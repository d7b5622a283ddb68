(* Parallel campaign engine tests: pool determinism (ordering and
   first-error semantics), memo-cache single-computation and hit
   accounting, the configuration fingerprint feeding the compile-cache
   key, compile-cache reuse across a sweep, and end-to-end bit-identity
   of campaign results across --jobs values. *)

module Exec = Epic.Exec
module Config = Epic.Config
module T = Epic.Toolchain
module E = Epic.Experiments
module Fault = Epic.Fault
module J = Epic.Profile.Json

(* ---- pool --------------------------------------------------------- *)

let test_pool_ordered () =
  let f i = (i * i) - (3 * i) in
  let seq = Exec.Pool.run ~jobs:1 200 f in
  let par = Exec.Pool.run ~jobs:4 200 f in
  Alcotest.(check (array int)) "parallel = sequential" seq par;
  Alcotest.(check int) "length" 200 (Array.length par);
  Alcotest.(check int) "slot 137" (f 137) par.(137)

let test_pool_edges () =
  Alcotest.(check (array int)) "n=0" [||] (Exec.Pool.run ~jobs:4 0 (fun i -> i));
  Alcotest.(check (array int)) "n=1" [| 7 |]
    (Exec.Pool.run ~jobs:4 1 (fun _ -> 7));
  Alcotest.check_raises "n<0"
    (Invalid_argument "Epic_exec.Pool.run: negative job count") (fun () ->
      ignore (Exec.Pool.run (-1) (fun i -> i)))

let test_pool_map () =
  let xs = List.init 50 (fun i -> i * 7) in
  Alcotest.(check (list int)) "map order"
    (List.map (fun x -> x + 1) xs)
    (Exec.Pool.map ~jobs:3 (fun x -> x + 1) xs)

let test_pool_first_error () =
  (* Jobs 5..19 all fail; whatever order domains execute them in, the
     lowest-index failure is the one surfaced — as in a sequential loop. *)
  for _ = 1 to 5 do
    Alcotest.check_raises "lowest-index error" (Failure "boom 5") (fun () ->
        ignore
          (Exec.Pool.run ~jobs:4 20 (fun i ->
               if i >= 5 then failwith (Printf.sprintf "boom %d" i) else i)))
  done

(* ---- memo cache --------------------------------------------------- *)

let test_cache_compute_once () =
  let c = Exec.Cache.create ~name:"t" () in
  let calls = ref 0 in
  let mk () = incr calls; [ !calls; 42 ] in
  let a = Exec.Cache.find_or_add c "k" mk in
  let b = Exec.Cache.find_or_add c "k" mk in
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check bool) "hit is physically equal" true (a == b);
  let s = Exec.Cache.stats c in
  Alcotest.(check int) "misses" 1 s.Exec.Cache.misses;
  Alcotest.(check int) "hits" 1 s.Exec.Cache.hits;
  Alcotest.(check int) "length" 1 (Exec.Cache.length c);
  let d = Exec.Cache.find_or_add c "k2" mk in
  Alcotest.(check bool) "distinct keys distinct values" true (d != a)

let test_cache_concurrent () =
  let c = Exec.Cache.create () in
  let calls = Atomic.make 0 in
  let vs =
    Exec.Pool.run ~jobs:4 16 (fun _ ->
        Exec.Cache.find_or_add c "shared" (fun () ->
            Atomic.incr calls;
            Array.make 8 (Atomic.get calls)))
  in
  Alcotest.(check int) "computed once across domains" 1 (Atomic.get calls);
  Array.iter
    (fun v -> Alcotest.(check bool) "all requesters share" true (v == vs.(0)))
    vs;
  let s = Exec.Cache.stats c in
  Alcotest.(check int) "one miss" 1 s.Exec.Cache.misses;
  Alcotest.(check int) "fifteen hits" 15 s.Exec.Cache.hits

let test_cache_error_memoised () =
  let c = Exec.Cache.create () in
  let calls = ref 0 in
  let mk () = incr calls; failwith "nope" in
  Alcotest.check_raises "first raises" (Failure "nope") (fun () ->
      ignore (Exec.Cache.find_or_add c "bad" mk));
  Alcotest.check_raises "replay raises the same" (Failure "nope") (fun () ->
      ignore (Exec.Cache.find_or_add c "bad" mk));
  Alcotest.(check int) "not recomputed" 1 !calls;
  Exec.Cache.reset c;
  Alcotest.(check int) "reset empties" 0 (Exec.Cache.length c)

(* [share]: the serving daemon's in-flight deduplication — one
   computation per key among concurrent requesters, nothing retained. *)
let test_cache_share () =
  let c = Exec.Cache.create () in
  (* Produce [key] on another thread, holding it until the cache has
     counted [hits] hits — a second requester has joined as a waiter —
     so the overlap is certain rather than timed. *)
  let in_flight key ~hits f =
    let started = Atomic.make false in
    let th =
      Thread.create
        (fun () ->
          try
            ignore
              (Exec.Cache.share c key (fun () ->
                   Atomic.set started true;
                   while (Exec.Cache.stats c).Exec.Cache.hits < hits do
                     Thread.yield ()
                   done;
                   f ()))
          with Failure _ -> ())
        ()
    in
    while not (Atomic.get started) do
      Thread.yield ()
    done;
    th
  in
  let leader = in_flight "k" ~hits:1 (fun () -> "payload") in
  let v =
    Exec.Cache.share c "k" (fun () ->
        Alcotest.fail "waiter recomputed the value")
  in
  Thread.join leader;
  Alcotest.(check string) "waiter shares the value" "payload" v;
  Alcotest.(check int) "one hit" 1 (Exec.Cache.stats c).Exec.Cache.hits;
  Alcotest.(check int) "key free after resolution" 0 (Exec.Cache.length c);
  Alcotest.(check string) "a later request computes afresh" "fresh"
    (Exec.Cache.share c "k" (fun () -> "fresh"));
  let leader =
    in_flight "boom" ~hits:2 (fun () -> failwith "deterministic failure")
  in
  Alcotest.check_raises "failure shared" (Failure "deterministic failure")
    (fun () ->
      ignore
        (Exec.Cache.share c "boom" (fun () ->
             Alcotest.fail "waiter recomputed the failure")));
  Thread.join leader;
  Alcotest.(check int) "failed key free" 0 (Exec.Cache.length c)

(* ---- configuration fingerprint ------------------------------------ *)

(* Every architectural field must feed the fingerprint: a mutation of any
   one of them yields a different compile-cache key.  One mutator per
   field of Epic_config.t; qcheck picks (field, magnitude) pairs. *)
let mutators : (string * (int -> Config.t -> Config.t)) list =
  let d delta base = max 1 (base + delta) in
  [
    ("n_alus", fun k c -> { c with Config.n_alus = d k c.Config.n_alus });
    ("n_gprs", fun k c -> { c with Config.n_gprs = d k c.Config.n_gprs });
    ("n_preds", fun k c -> { c with Config.n_preds = d k c.Config.n_preds });
    ("n_btrs", fun k c -> { c with Config.n_btrs = d k c.Config.n_btrs });
    ( "regs_per_inst",
      fun k c -> { c with Config.regs_per_inst = d k c.Config.regs_per_inst } );
    ( "issue_width",
      fun k c -> { c with Config.issue_width = 1 + ((c.Config.issue_width + k) mod 4) } );
    ("width", fun k c -> { c with Config.width = d k c.Config.width });
    ( "alu_omit",
      fun k c ->
        { c with
          Config.alu_omit =
            (if k mod 2 = 0 then [ Epic.Isa.DIV ] else [ Epic.Isa.MPY ]) } );
    ("custom_ops", fun _ c -> Config.add_custom c "ROTR");
    ("opcode_bits", fun k c -> { c with Config.opcode_bits = d k c.Config.opcode_bits });
    ("dst_bits", fun k c -> { c with Config.dst_bits = d k c.Config.dst_bits });
    ("src_bits", fun k c -> { c with Config.src_bits = d k c.Config.src_bits });
    ("pred_bits", fun k c -> { c with Config.pred_bits = d k c.Config.pred_bits });
    ( "rf_port_budget",
      fun k c -> { c with Config.rf_port_budget = d k c.Config.rf_port_budget } );
    ("forwarding", fun _ c -> { c with Config.forwarding = not c.Config.forwarding });
    ("mem_banks", fun k c -> { c with Config.mem_banks = d k c.Config.mem_banks });
    ( "pipeline_stages",
      fun k c -> { c with Config.pipeline_stages = 2 + ((c.Config.pipeline_stages + k) mod 3) } );
    ( "clock_mhz",
      fun k c -> { c with Config.clock_mhz = c.Config.clock_mhz +. float_of_int (d k 1) } );
    ( "lat_overrides",
      fun k c -> { c with Config.lat_overrides = [ (Epic.Isa.MPY, 1 + (abs k mod 7)) ] } );
  ]

let prop_fingerprint_sensitive =
  QCheck.Test.make ~name:"fingerprint changes when any field changes"
    ~count:200
    QCheck.(pair (int_range 0 (List.length mutators - 1)) (int_range 1 16))
    (fun (which, delta) ->
      let name, mutate = List.nth mutators which in
      let base = Config.default in
      let mutated = mutate delta base in
      (* The mutator must actually have changed the field (guards like
         issue_width wrap-around can be identity for some deltas). *)
      QCheck.assume (not (Config.equal base mutated));
      if Config.fingerprint base = Config.fingerprint mutated then
        QCheck.Test.fail_reportf "field %s not in fingerprint" name
      else true)

let test_fingerprint_stable () =
  Alcotest.(check string) "pure function"
    (Config.fingerprint Config.default)
    (Config.fingerprint Config.default);
  Alcotest.(check bool) "alu sweep points distinct" true
    (Config.fingerprint (Config.with_alus 1)
     <> Config.fingerprint (Config.with_alus 2))

(* ---- compile cache ------------------------------------------------ *)

let source = "int main() { int s = 0; for (int i = 0; i < 9; i = i + 1) { s = s + i; } return s; }"

let test_compile_cache_hit () =
  let cache = T.Compile_cache.create () in
  let a = T.compile_epic ~cache Config.default ~source () in
  let b = T.compile_epic ~cache Config.default ~source () in
  Alcotest.(check bool) "second compile is the cached artifact" true (a == b);
  let r1 = T.run_epic a and r2 = T.run_epic b in
  Alcotest.(check int) "cached artifact simulates identically"
    r1.Epic.Sim.stats.Epic.Sim.cycles r2.Epic.Sim.stats.Epic.Sim.cycles

let test_compile_cache_sweep () =
  (* A 1-4 ALU sweep shares one frontend compile; each design point still
     gets its own backend artifact. *)
  let cache = T.Compile_cache.create () in
  List.iter
    (fun n -> ignore (T.compile_epic ~cache (Config.with_alus n) ~source ()))
    [ 1; 2; 3; 4 ];
  let front = T.Compile_cache.frontend_stats cache in
  Alcotest.(check int) "one frontend miss" 1 front.Exec.Cache.misses;
  Alcotest.(check int) "three frontend hits" 3 front.Exec.Cache.hits;
  let arts = T.Compile_cache.artifact_stats cache in
  Alcotest.(check int) "four artifact misses" 4 arts.Exec.Cache.misses;
  Alcotest.(check int) "no artifact hits" 0 arts.Exec.Cache.hits

let test_compile_cache_isolation () =
  (* A cache hit hands out a *copy* of the frontend MIR, so one design
     point's backend (which mutates MIR in place) cannot leak scheduling
     into another's.  Equal cycle counts with and without the cache is
     the observable contract. *)
  let cold n =
    (T.compile_epic (Config.with_alus n) ~source () |> T.run_epic)
      .Epic.Sim.stats.Epic.Sim.cycles
  in
  let cache = T.Compile_cache.create () in
  let warm n =
    (T.compile_epic ~cache (Config.with_alus n) ~source () |> T.run_epic)
      .Epic.Sim.stats.Epic.Sim.cycles
  in
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "%d-ALU cycles unchanged by cache" n)
        (cold n) (warm n))
    [ 1; 2; 3; 4 ]

(* ---- campaign determinism across --jobs --------------------------- *)

let test_fault_campaign_jobs () =
  let a = T.compile_epic Config.default ~source () in
  let r1 = T.fault_campaign ~seed:11 ~runs:24 ~jobs:1 a in
  let r4 = T.fault_campaign ~seed:11 ~runs:24 ~jobs:4 a in
  Alcotest.(check string) "fault report identical across jobs"
    (J.to_string (Fault.report_to_json ~faults:true r1))
    (J.to_string (Fault.report_to_json ~faults:true r4))

let tiny_sizes =
  { E.sha_bytes = 64; aes_iters = 1; dct_size = (8, 8); dijkstra_nodes = 6 }

let test_table1_jobs () =
  let rows1 = E.table1 ~jobs:1 ~sizes:tiny_sizes ~alus:[ 1; 4 ] () in
  let rows4 = E.table1 ~jobs:4 ~sizes:tiny_sizes ~alus:[ 1; 4 ] () in
  Alcotest.(check bool) "table1 rows identical across jobs" true
    (rows1 = rows4);
  (* And the grid must actually have produced every point. *)
  List.iter
    (fun (r : E.table1_row) ->
      Alcotest.(check int) "two design points" 2 (List.length r.E.t1_epic))
    rows1

let test_avf_jobs () =
  let p1 = E.inject_faults ~jobs:1 ~sizes:tiny_sizes ~alus:[ 4 ] ~runs:6 () in
  let p4 = E.inject_faults ~jobs:3 ~sizes:tiny_sizes ~alus:[ 4 ] ~runs:6 () in
  let render pts =
    J.to_string
      (J.List
         (List.map
            (fun (p : E.avf_point) ->
              J.Obj
                [ ("name", J.Str p.E.af_name); ("alus", J.Int p.E.af_alus);
                  ("report", Fault.report_to_json ~faults:true p.E.af_report) ])
            pts))
  in
  Alcotest.(check string) "AVF rows identical across jobs" (render p1)
    (render p4)

let suite =
  [
    Alcotest.test_case "pool: results in index order" `Quick test_pool_ordered;
    Alcotest.test_case "pool: edge cases" `Quick test_pool_edges;
    Alcotest.test_case "pool: map preserves order" `Quick test_pool_map;
    Alcotest.test_case "pool: lowest-index error wins" `Quick
      test_pool_first_error;
    Alcotest.test_case "cache: computes once, hit is physical" `Quick
      test_cache_compute_once;
    Alcotest.test_case "cache: concurrent requesters share one compute"
      `Quick test_cache_concurrent;
    Alcotest.test_case "cache: failures memoised" `Quick
      test_cache_error_memoised;
    QCheck_alcotest.to_alcotest prop_fingerprint_sensitive;
    Alcotest.test_case "fingerprint: stable and sweep-distinct" `Quick
      test_fingerprint_stable;
    Alcotest.test_case "compile cache: hit returns same artifact" `Quick
      test_compile_cache_hit;
    Alcotest.test_case "compile cache: sweep shares the frontend" `Quick
      test_compile_cache_sweep;
    Alcotest.test_case "compile cache: cycles unchanged by caching" `Quick
      test_compile_cache_isolation;
    Alcotest.test_case "fault campaign: jobs 1 = jobs 4" `Quick
      test_fault_campaign_jobs;
    Alcotest.test_case "table1: jobs 1 = jobs 4" `Quick test_table1_jobs;
    Alcotest.test_case "AVF grid: jobs 1 = jobs 3" `Quick test_avf_jobs;
    Alcotest.test_case "cache: in-flight share" `Quick test_cache_share;
  ]
