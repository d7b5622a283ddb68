(* Traced runs: per-layer self time and allocation.  The same generated
   inputs as the timed run go through each layer's public function on
   one domain, inside spans ([Span]).  Each walk runs twice traced — the
   per-layer allocation must repeat exactly — and once untraced, which
   gives the tracing overhead. *)

open Util
module P = Epic_serve.Protocol
module Store = Epic_serve.Store
module C = Epic_explore.Campaign
module E = Epic.Experiments
module T = Epic.Toolchain
module S = Epic.Workloads.Sources
module Sim = Epic.Sim

let span = Span.span

(* Layer spans group per-input work under one structural span, whose
   self time is the benchmark's own overhead and is not attributed. *)
let structural = [ "request"; "point"; "cell" ]

(* Counters the walks fill besides the spans. *)
type counts = {
  mutable insts_out : int;      (* MIR instructions after the optimiser *)
  mutable bundles : int;
  mutable epic_cycles : int;
  mutable arm_cycles : int;
  mutable injections : int;
  mutable attributed : float list;  (* per input: layer time under it (s) *)
}

let counts () =
  { insts_out = 0; bundles = 0; epic_cycles = 0; arm_cycles = 0; injections = 0;
    attributed = [] }

let front k ~target ~predication source =
  let mir = Layers.front ~target ~predication source in
  k.insts_out <- k.insts_out + Layers.insts mir;
  mir

let backend k cfg mir =
  let a = Layers.backend cfg mir in
  k.bundles <- k.bundles + a.T.ea_sched.Epic.Sched.Sched.st_bundles;
  a

let simulate k a =
  let r = Layers.simulate a in
  k.epic_cycles <- k.epic_cycles + r.Sim.stats.Sim.cycles;
  r

(* Same program check: the composed layers against the toolchain's
   one-call entry points. *)
let same_program t what (a : T.epic_artifacts) (r : Sim.result)
    (ra : T.epic_artifacts) (rr : Sim.result) =
  let s = a.T.ea_sched.Epic.Sched.Sched.st_insts
  and rs = ra.T.ea_sched.Epic.Sched.Sched.st_insts in
  check t (what ^ ": composed layers differ from Toolchain.compile_epic/run_epic")
    (s = rs
     && a.T.ea_sched.Epic.Sched.Sched.st_bundles = ra.T.ea_sched.Epic.Sched.Sched.st_bundles
     && r.Sim.ret = rr.Sim.ret
     && r.Sim.stats.Sim.cycles = rr.Sim.stats.Sim.cycles)

(* ------------------------------------------------------------------ *)
(* Per-layer aggregation and the table *)

type layer = { l_calls : int; l_s : float; l_words : float; l_each : float list }

let aggregate () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s : Span.self) ->
      let name = s.Span.s_span.Span.sp_name in
      let l =
        Option.value (Hashtbl.find_opt tbl name)
          ~default:{ l_calls = 0; l_s = 0.; l_words = 0.; l_each = [] }
      in
      Hashtbl.replace tbl name
        { l_calls = l.l_calls + 1; l_s = l.l_s +. s.Span.s_time;
          l_words = l.l_words +. s.Span.s_words; l_each = s.Span.s_time :: l.l_each })
    (Span.selves ());
  tbl

(* Layer time under each structural span (one per input). *)
let attributed_per_input () =
  let sel = Span.selves () in
  List.filter_map
    (fun (s : Span.self) ->
      let sp = s.Span.s_span in
      if List.mem sp.Span.sp_name structural then
        Some (sp.Span.sp_t1 -. sp.Span.sp_t0 -. s.Span.s_time)
      else None)
    sel

let layer_ms tbl name = match Hashtbl.find_opt tbl name with Some l -> l.l_s *. 1e3 | None -> 0.
let layer_mw tbl name = match Hashtbl.find_opt tbl name with Some l -> l.l_words /. 1e6 | None -> 0.
let layer_words tbl name = match Hashtbl.find_opt tbl name with Some l -> l.l_words | None -> 0.
let layer_us tbl name =
  match Hashtbl.find_opt tbl name with Some l -> 1e6 *. median l.l_each | None -> 0.

let alloc_layers =
  ("cfront" :: List.map (fun p -> "opt." ^ p) Layers.pass_names)
  @ [ "sched"; "asm"; "arm.compile" ]

(* A walk: [run ~traced] feeds the inputs through the layers once. *)
let walk ~traced run =
  Span.reset ~on:traced;
  let k = counts () in
  let (), wall = time (fun () -> run k) in
  Span.enabled := false;
  let tbl = aggregate () in
  k.attributed <- attributed_per_input ();
  (k, tbl, wall)

(* Two traced walks and an untraced one.  The last walk's spans stay
   recorded for the trace file. *)
let three_walks t run =
  let _, tbl2, _ = walk ~traced:true run in
  let _, _, untraced = walk ~traced:false run in
  let k, tbl, traced = walk ~traced:true run in
  List.iter
    (fun name ->
      check t
        (Printf.sprintf "layer %s allocated %.0f then %.0f words over the same inputs" name
           (layer_words tbl2 name) (layer_words tbl name))
        (layer_words tbl2 name = layer_words tbl name))
    alloc_layers;
  (k, tbl, 100. *. (traced -. untraced) /. untraced)

(* [Sim.run] must allocate the same words at two input sizes of one
   program on one configuration: nothing per simulated cycle.  The words
   depend on the configuration (register files), so every traced run
   probes the same program: SHA-256 on the default 4-ALU design. *)
let sim_alloc_check t =
  let words bytes =
    let bm = S.sha_benchmark ~bytes () in
    let a = T.compile_epic (Epic.Config.with_alus 4) ~source:bm.S.bm_source () in
    ignore (Layers.simulate a);
    !Layers.last_run_words
  in
  let w1 = words 64 and w2 = words 1024 in
  check t (Printf.sprintf "Sim.run allocated %.0f words at 64 bytes, %.0f at 1024" w1 w2)
    (w1 = w2);
  w1

type extra = {
  x_disk_hit_ratio : float;
  x_dedup_hits : float;
  x_shed : float;
  x_unattributed_ms : float;
  x_pruned_ratio : float;
  x_infeasible : float;
  x_front_hit_ratio : float;
  x_store_hit_ratio : float;
}

let no_extra =
  { x_disk_hit_ratio = 0.; x_dedup_hits = 0.; x_shed = 0.; x_unattributed_ms = 0.;
    x_pruned_ratio = 0.; x_infeasible = 0.; x_front_hit_ratio = 0.; x_store_hit_ratio = 0. }

(* The layers each workload is chosen to load; their share of the
   attributed time is [dominant.share]. *)
let dominant = function
  | "serve_cold" -> [ "opt." ]
  | "serve_warm" -> [ "protocol."; "store."; "serve.unattributed" ]
  | "explore" -> [ "sched"; "asm"; "predecode" ]
  | _ -> [ "sim"; "arm." ]

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let report ?(appendix = "") ~workload ~k ~tbl ~overhead ~run_words (x : extra) =
  let rows =
    Hashtbl.fold
      (fun name l acc -> if List.mem name structural then acc else (name, l) :: acc)
      tbl []
  in
  let n_inputs = List.length k.attributed in
  let unattributed_total =
    if workload = "serve_warm" then Float.max 0. x.x_unattributed_ms /. 1e3 *. float_of_int n_inputs
    else 0.
  in
  let rows =
    if unattributed_total > 0. then
      ( "serve.unattributed",
        { l_calls = n_inputs; l_s = unattributed_total; l_words = 0.; l_each = [] } )
      :: rows
    else rows
  in
  let rows = List.sort (fun (_, a) (_, b) -> compare b.l_s a.l_s) rows in
  let total = List.fold_left (fun a (_, l) -> a +. l.l_s) 0. rows in
  let dom = dominant workload in
  let dom_s =
    List.fold_left
      (fun a (name, l) -> if List.exists (fun p -> starts_with p name) dom then a +. l.l_s else a)
      0. rows
  in
  let share = if total > 0. then dom_s /. total else 0. in
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.bprintf buf fmt in
  pr "per-layer self time, workload %s (%d inputs, one domain)\n" workload n_inputs;
  pr "%-22s %7s %12s %7s %12s\n" "layer" "calls" "self ms" "share" "self Mw";
  List.iter
    (fun (name, l) ->
      pr "%-22s %7d %12.3f %6.1f%% %12.3f\n" name l.l_calls (l.l_s *. 1e3)
        (if total > 0. then 100. *. l.l_s /. total else 0.) (l.l_words /. 1e6))
    rows;
  pr "%-22s %7s %12.3f\n" "attributed" "" (total *. 1e3);
  pr "dominant layers %s: %.1f%% of attributed time (%s)\n" (String.concat " + " dom)
    (100. *. share) (if share > 0.5 then "majority" else "NOT a majority");
  (if workload = "serve_cold" then
     let passes = List.filter (fun (n, _) -> starts_with "opt." n) rows in
     match passes with
     | (name, _) :: _ -> pr "largest optimiser pass: %s\n" name
     | [] -> ());
  pr "tracing overhead: %.1f%% (traced walk vs the same walk untraced)\n" overhead;
  Buffer.add_string buf appendix;
  mkdir_p out_dir;
  let base = Filename.concat out_dir workload in
  Span.write_chrome_trace (base ^ ".trace.json");
  let oc = open_out (base ^ ".layers.txt") in
  Buffer.output_buffer oc buf;
  close_out oc;
  prerr_string (Buffer.contents buf);
  Printf.eprintf "perfbench: wrote %s.trace.json and %s.layers.txt\n%!" base base;
  let ms n = (n ^ ".ms", layer_ms tbl n, "ms") in
  let mw n = (n ^ ".alloc_mw", layer_mw tbl n, "Mw") in
  let per_s cycles name =
    let s = layer_ms tbl name /. 1e3 in
    if s > 0. then float_of_int cycles /. s else 0.
  in
  [ ms "cfront"; mw "cfront" ]
  @ List.concat_map (fun p -> [ ms ("opt." ^ p); mw ("opt." ^ p) ]) Layers.pass_names
  @ [ ("opt.insts_out", float_of_int k.insts_out, "count");
      ms "sched"; mw "sched"; ("sched.bundles", float_of_int k.bundles, "count");
      ms "asm"; mw "asm"; ms "predecode";
      ms "sim"; ("sim.cycles", float_of_int k.epic_cycles, "count");
      ("sim.cycles_per_s", per_s k.epic_cycles "sim", "1/s");
      ("sim.alloc_words_per_run", run_words, "words");
      ("arm.compile.ms", layer_ms tbl "arm.compile", "ms");
      ("arm.sim.ms", layer_ms tbl "arm.sim", "ms");
      ("arm.sim.cycles_per_s", per_s k.arm_cycles "arm.sim", "1/s");
      ms "fault"; ("fault.injections", float_of_int k.injections, "count");
      ("protocol.parse_us", layer_us tbl "protocol.parse", "us");
      ("protocol.key_us", layer_us tbl "protocol.key", "us");
      ("protocol.serialise_us", layer_us tbl "protocol.serialise", "us");
      ("store.find_us", layer_us tbl "store.find", "us");
      ("store.add_us", layer_us tbl "store.add", "us");
      ("store.hit_ratio", x.x_store_hit_ratio, "ratio");
      ("serve.disk_hit_ratio", x.x_disk_hit_ratio, "ratio");
      ("serve.dedup_hits", x.x_dedup_hits, "count");
      ("serve.shed", x.x_shed, "count");
      ("serve.unattributed_ms", x.x_unattributed_ms, "ms");
      ("explore.prepare.ms", layer_ms tbl "explore.prepare", "ms");
      ("explore.pruned_ratio", x.x_pruned_ratio, "ratio");
      ("explore.infeasible", x.x_infeasible, "count");
      ("compile_cache.front_hit_ratio", x.x_front_hit_ratio, "ratio");
      ("trace.overhead_pct", overhead, "%");
      ("dominant.share", share, "ratio") ]

(* ------------------------------------------------------------------ *)
(* serve_cold / serve_warm *)

let payload_of_line line =
  (* {"id":N,"ok":true,"result":<payload>} *)
  let marker = "\"result\":" in
  let rec find i =
    if String.sub line i (String.length marker) = marker then i + String.length marker
    else find (i + 1)
  in
  let start = find 0 in
  String.sub line start (String.length line - start - 1)

let field path line =
  match Timed.result_of_line line with
  | Some j -> int_at ("result" :: path) j
  | None -> None

(* The layers a daemon miss runs, composed; checked field by field
   against the daemon's response for the same request, which came from
   Toolchain.compile_epic/run_epic. *)
let compute t k (r : Gen.req) ~response =
  let source = r.Gen.bm.S.bm_source in
  let same what a b = check t (Printf.sprintf "request %d: %s" r.Gen.id what) (a = b) in
  match r.Gen.op with
  | P.Compile c ->
    let mir = front k ~target:`Epic ~predication:c.P.c_predication source in
    let a = backend k c.P.c_config mir in
    let res = simulate k a in
    let sched = a.T.ea_sched in
    same "composed layers differ from the daemon's compile"
      [ Some res.Sim.ret; Some res.Sim.stats.Sim.cycles;
        Some sched.Epic.Sched.Sched.st_insts; Some sched.Epic.Sched.Sched.st_bundles ]
      [ field [ "ret" ] response; field [ "stats"; "cycles" ] response;
        field [ "sched"; "insts" ] response; field [ "sched"; "bundles" ] response ]
  | P.Fault_campaign f ->
    let mir = front k ~target:`Epic ~predication:true source in
    let a = backend k f.P.fc_config mir in
    let rp =
      span "fault" (fun () ->
          T.fault_campaign ~jobs:1 ~seed:f.P.fc_seed ~runs:f.P.fc_runs
            ~targets:f.P.fc_targets ~fuel_factor:f.P.fc_fuel_factor a)
    in
    k.injections <- k.injections + (f.P.fc_runs * List.length f.P.fc_targets);
    same "composed fault campaign differs from the daemon's"
      [ Some rp.Epic.Fault.rp_golden_ret; Some rp.Epic.Fault.rp_golden_cycles ]
      [ field [ "golden_ret" ] response; field [ "golden_cycles" ] response ]
  | P.Explore_slice e ->
    let mir = front k ~target:`Epic ~predication:true source in
    let cycles =
      List.concat_map
        (fun issue ->
          List.map
            (fun alus ->
              let cfg =
                { Epic.Config.default with Epic.Config.n_alus = alus; issue_width = issue }
              in
              let res = simulate k (backend k cfg mir) in
              Some res.Sim.stats.Sim.cycles)
            e.P.ex_alus)
        e.P.ex_issues
    in
    let served =
      match Option.bind (Timed.result_of_line response) (member_path [ "result"; "points" ]) with
      | Some (J.List pts) -> List.map (int_at [ "cycles" ]) pts
      | _ -> []
    in
    same "composed explore slice differs from the daemon's" cycles served
  | _ -> ()

(* One request through protocol -> store -> (layers on a miss) -> store
   -> protocol.  [response] is the daemon's line for the request. *)
let serve_one t k st (r : Gen.req) ~response =
  Span.with_request r.Gen.id @@ fun () ->
  span "request" @@ fun () ->
  match span "protocol.parse" (fun () -> P.request_of_line r.Gen.line) with
  | Error _ -> check t "request did not parse" false
  | Ok q ->
    let key = Option.get (span "protocol.key" (fun () -> P.cache_key q.P.rq_op)) in
    let payload =
      match span "store.find" (fun () -> Store.find st ~key) with
      | Some p -> p
      | None ->
        compute t k r ~response;
        let p = payload_of_line response in
        span "store.add" (fun () -> Store.add st ~key p);
        p
    in
    let line = span "protocol.serialise" (fun () -> P.ok_response ~id:q.P.rq_id ~result:payload) in
    check t (Printf.sprintf "request %d: traced response differs from the daemon's" r.Gen.id)
      (String.equal line response)

let stats_extra d =
  let line = Daemon.call d "{\"op\":\"stats\"}" in
  match Timed.result_of_line line with
  | None -> no_extra
  | Some j ->
    let get path = float_of_int (Option.value ~default:0 (int_at ("result" :: path) j)) in
    let served = get [ "served" ] in
    let fh = get [ "compile_cache"; "front"; "hits" ]
    and fm = get [ "compile_cache"; "front"; "misses" ] in
    { no_extra with
      x_disk_hit_ratio = (if served > 0. then get [ "disk_served" ] /. served else 0.);
      x_dedup_hits = get [ "dedup_hits" ];
      x_shed = get [ "shed" ];
      x_front_hit_ratio = (if fh +. fm > 0. then fh /. (fh +. fm) else 0.) }

let traced_inputs = 24
let warm_walk_passes = 20

let serve ~warm ~seed =
  let t = tally () in
  (* The daemon pass over the traced mix: the responses the walk must
     reproduce, the client-side p50 and the daemon's stats (read after
     the window). *)
  let daemon_pass ~tag ~dir reqs streams check =
    let d =
      Daemon.spawn ~sock:(scratch_path (tag ^ ".sock")) ~cache_dir:dir
        ~log:(scratch_path (tag ^ ".epicd.log"))
    in
    let conns, _ = Daemon.replay d (Timed.lines_of streams) in
    let rs = Timed.responses streams conns in
    let x = stats_extra d in
    Daemon.shutdown d;
    (check reqs rs, median (List.map (fun (_, _, l, _) -> l) rs), x)
  in
  let reqs, passes, responses, dir, (x, client_p50) =
    if not warm then begin
      let reqs = List.filteri (fun i _ -> i < traced_inputs) (Timed.cold_set ~seed 0) in
      let by_id, p50, x =
        daemon_pass ~tag:"tc" ~dir:(scratch_path "tc-cache") reqs (Timed.two_streams reqs)
          (fun reqs rs -> snd (Timed.check_cold t reqs rs))
      in
      (reqs, 1, by_id, None, (x, p50))
    end
    else begin
      let set = Timed.warm_set ~seed in
      let dir = scratch_path "tw-cache" in
      let cold = Timed.fill t ~tag:"tw-fill" ~dir set in
      let (), p50, x =
        daemon_pass ~tag:"tw" ~dir set (Timed.warm_streams ~seed ~passes:warm_walk_passes set)
          (fun _ rs ->
            List.iter
              (fun ((r : Gen.req), line, _, _) ->
                check t "warm response differs from the cold one"
                  (String.equal line (Hashtbl.find cold r.Gen.id)))
              rs)
      in
      (set, warm_walk_passes, cold, Some dir, (x, p50))
    end
  in
  let fresh = ref 0 in
  let last_store = ref None in
  let run k =
    let dir =
      match dir with
      | Some d -> d
      | None ->
        incr fresh;
        scratch_path (Printf.sprintf "walk-%d" !fresh)
    in
    let st = Store.open_ dir in
    last_store := Some st;
    for _ = 1 to passes do
      List.iter (fun r -> serve_one t k st r ~response:(Hashtbl.find responses r.Gen.id)) reqs
    done
  in
  let k, tbl, overhead = three_walks t run in
  let store_hit_ratio =
    match !last_store with Some st -> Store.hit_rate (Store.stats st) | None -> 0.
  in
  let layer_p50 = median k.attributed in
  let run_words = sim_alloc_check t in
  let workload = if warm then "serve_warm" else "serve_cold" in
  ( t,
    report ~workload ~k ~tbl ~overhead ~run_words
      { x with x_unattributed_ms = 1e3 *. (client_p50 -. layer_p50);
               x_store_hit_ratio = store_hit_ratio } )

(* ------------------------------------------------------------------ *)
(* explore *)

let traced_points = 320

let explore ~seed ~seconds =
  let t = tally () in
  let o = Timed.explore_options ~seed ~seconds 0 in
  let ws = Timed.prepare_all o in
  let points = C.grid o ws in
  let chosen = C.sample ~seed:o.C.o_seed ~budget:o.C.o_budget (Array.length points) in
  let inputs =
    Array.to_list chosen
    |> List.filter_map (fun i ->
           let p = points.(i) in
           let w = List.find (fun w -> w.C.w_bm.S.bm_name = p.C.p_workload) ws in
           let cfg = C.config_of w p in
           match Epic.Config.validate cfg with Ok () -> Some (w, p, cfg) | Error _ -> None)
    |> List.filteri (fun i _ -> i < traced_points)
  in
  let fresh = ref 0 in
  let run k =
    incr fresh;
    let st = Store.open_ (scratch_path (Printf.sprintf "te-walk-%d" !fresh)) in
    let ws =
      List.map
        (fun (w : C.prepared) ->
          span "explore.prepare" (fun () ->
              C.prepare ~max_cands:o.C.o_max_cands ~max_ops:o.C.o_max_ops w.C.w_bm))
        ws
    in
    List.iteri
      (fun i ((w0 : C.prepared), p, cfg) ->
        let w = List.find (fun w -> w.C.w_bm.S.bm_name = w0.C.w_bm.S.bm_name) ws in
        Span.with_request i @@ fun () ->
        span "point" @@ fun () ->
        let mir, cdigest = w.C.w_progs.(p.C.p_cands) in
        let key = C.store_key w cfg ~cdigest in
        ignore (span "store.find" (fun () -> Store.find st ~key));
        let outcome =
          match backend k cfg mir with
          | a ->
            let r = simulate k a in
            if r.Sim.ret <> w.C.w_bm.S.bm_expected land 0xFFFFFFFF || r.Sim.trap <> None
            then C.Failed "wrong result"
            else C.Measured r.Sim.stats.Sim.cycles
          | exception e -> C.Failed (Printexc.to_string e)
        in
        span "store.add" (fun () -> Store.add st ~key (C.payload_of_outcome outcome)))
      inputs
  in
  let k, tbl, overhead = three_walks t run in
  (* The reference: the toolchain's backend-only entry point on every
     point.  A point is infeasible in both or in neither. *)
  List.iteri
    (fun i ((w : C.prepared), p, cfg) ->
      let mir, _ = w.C.w_progs.(p.C.p_cands) in
      let what = Printf.sprintf "explore point %d" i in
      let attempt f = match f () with a -> Some a | exception _ -> None in
      match
        ( attempt (fun () -> Layers.backend cfg mir),
          attempt (fun () -> T.compile_epic_mir ~key:"ref" cfg ~mir ()) )
      with
      | Some a, Some ra ->
        let r = Layers.simulate a in
        same_program t what a r ra (T.run_epic ra);
        check t (what ^ ": wrong checksum")
          (r.Sim.trap = None && r.Sim.ret = w.C.w_bm.S.bm_expected land 0xFFFFFFFF)
      | None, None -> check t what true
      | _ -> check t (what ^ ": infeasible in only one of the two compiles") false)
    inputs;
  let c = (C.run o).C.r_counts in
  let x =
    { no_extra with
      x_pruned_ratio =
        float_of_int c.C.c_pruned /. float_of_int (max 1 (c.C.c_pruned + c.C.c_evaluated));
      x_infeasible = float_of_int c.C.c_errors }
  in
  let run_words = sim_alloc_check t in
  (t, report ~workload:"explore" ~k ~tbl ~overhead ~run_words x)

(* ------------------------------------------------------------------ *)
(* table1_paper *)

(* The traced Table 1 walk, broken down per workload (the layout of
   ROADMAP's "Measured at this re-anchor" table). *)
let per_workload_table (bms : S.benchmark list) ~run_words =
  let sel = Span.selves () in
  let sum req pred f =
    List.fold_left
      (fun a (s : Span.self) ->
        if s.Span.s_span.Span.sp_req = req && pred s.Span.s_span.Span.sp_name then a +. f s
        else a)
      0. sel
  in
  let ms req pred = 1e3 *. sum req pred (fun s -> s.Span.s_time) in
  let mw req pred = sum req pred (fun s -> s.Span.s_words) /. 1e6 in
  let is_front n = n = "cfront" || starts_with "opt." n in
  let is_backend n = List.mem n [ "sched"; "asm"; "predecode" ] in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "\nper workload (paper sizes; EPIC = one front end, then 1-4 ALU designs):\n";
  Printf.bprintf buf "%-9s %10s %9s %11s %11s %12s %11s %10s\n" "workload" "front ms"
    "licm ms" "backend ms" "EPIC sim ms" "compile Mw" "SA-110 ms" "run words";
  List.iteri
    (fun i (bm : S.benchmark) ->
      let e = (2 * i) + 1 and a = 2 * i in
      Printf.bprintf buf "%-9s %10.1f %9.1f %11.1f %11.1f %12.2f %11.1f %10.0f\n" bm.S.bm_name
        (ms e is_front) (ms e (( = ) "opt.licm")) (ms e is_backend) (ms e (( = ) "sim"))
        (mw e (fun n -> is_front n || is_backend n))
        (ms a (fun n -> n <> "cell")) run_words)
    bms;
  Buffer.contents buf

let table1_paper () =
  let t = tally () in
  let expected = Timed.read_expected () in
  let bms = Gen.paper_benchmarks () in
  (* Request 2i is workload i on the SA-110, 2i+1 on EPIC (all ALU counts). *)
  let index (bm : S.benchmark) =
    let rec go i = function
      | (x : S.benchmark) :: rest -> if x.S.bm_name = bm.S.bm_name then i else go (i + 1) rest
      | [] -> invalid_arg "index"
    in
    go 0 bms
  in
  let run ~sims k =
    List.iter
      (fun (bm : S.benchmark) ->
        let source = bm.S.bm_source in
        let want = Option.value ~default:[] (List.assoc_opt bm.S.bm_name expected) in
        let ret_ok ret = ret = bm.S.bm_expected land 0xFFFFFFFF in
        Span.with_request (2 * index bm) @@ fun () ->
        span "cell" @@ fun () ->
        let mir = front k ~target:`Arm ~predication:false source in
        let prog, layout, linked =
          span "arm.compile" (fun () -> Epic.Arm.compile_program mir)
        in
        if sims then begin
          let r =
            span "arm.sim" (fun () ->
                Epic.Arm.Sim.run prog ~mem:(Epic.Memmap.init_memory layout linked) ())
          in
          k.arm_cycles <- k.arm_cycles + r.Epic.Arm.Sim.stats.Epic.Arm.Sim.cycles;
          check t (bm.S.bm_name ^ " on the SA-110: wrong cycles or checksum")
            (ret_ok r.Epic.Arm.Sim.ret
             && List.nth_opt want 0 = Some r.Epic.Arm.Sim.stats.Epic.Arm.Sim.cycles)
        end;
        Span.with_request ((2 * index bm) + 1) @@ fun () ->
        span "cell" @@ fun () ->
        let mir = front k ~target:`Epic ~predication:true source in
        List.iteri
          (fun i n ->
            let a = backend k (Epic.Config.with_alus n) mir in
            if sims then begin
              let r = simulate k a in
              check t (Printf.sprintf "%s at %d ALUs: wrong cycles or checksum" bm.S.bm_name n)
                (ret_ok r.Sim.ret && List.nth_opt want (i + 1) = Some r.Sim.stats.Sim.cycles)
            end)
          E.alu_sweep)
      bms
  in
  (* Compile-layer allocation must repeat: a second compile-only walk. *)
  let _, tbl2, _ = walk ~traced:true (run ~sims:false) in
  let _, _, untraced = walk ~traced:false (run ~sims:true) in
  let k, tbl, traced = walk ~traced:true (run ~sims:true) in
  List.iter
    (fun name ->
      check t (Printf.sprintf "layer %s allocation does not repeat" name)
        (layer_words tbl2 name = layer_words tbl name))
    alloc_layers;
  let overhead = 100. *. (traced -. untraced) /. untraced in
  (* Reference compiles through the toolchain's compile cache, as the
     campaign does; it also gives the front-end hit ratio. *)
  let cache = T.Compile_cache.create () in
  List.iter
    (fun (bm : S.benchmark) ->
      let source = bm.S.bm_source in
      ignore (T.compile_arm ~cache ~source ());
      let mir = Layers.front ~target:`Epic ~predication:true source in
      List.iter
        (fun n ->
          let cfg = Epic.Config.with_alus n in
          let a = Layers.backend cfg mir and ra = T.compile_epic ~cache cfg ~source () in
          check t (Printf.sprintf "%s at %d ALUs: composed schedule differs" bm.S.bm_name n)
            (a.T.ea_sched = ra.T.ea_sched && a.T.ea_words = ra.T.ea_words))
        E.alu_sweep)
    bms;
  let f = T.Compile_cache.frontend_stats cache in
  let hits = f.Epic.Exec.Cache.hits and misses = f.Epic.Exec.Cache.misses in
  let run_words = sim_alloc_check t in
  let by_workload = per_workload_table bms ~run_words in
  ( t,
    report ~workload:"table1_paper" ~k ~tbl ~overhead ~run_words ~appendix:by_workload
      { no_extra with
        x_front_hit_ratio = float_of_int hits /. float_of_int (max 1 (hits + misses)) } )
