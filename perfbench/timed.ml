(* Timed runs: the end-to-end metrics, tracing off.  Every workload does
   fixed, seeded work whose amount follows from [--seconds], so a run
   lasts about that long on a 2-core host while parent and change always
   do identical work. *)

open Util
module P = Epic_serve.Protocol
module Store = Epic_serve.Store
module C = Epic_explore.Campaign
module E = Epic.Experiments
module T = Epic.Toolchain
module S = Epic.Workloads.Sources

let setup_repeats = 5

(* Throughput of each campaign on a 2-core x86-64 host, used only to size
   the campaign from [--seconds]. *)
let cold_round_s = 5.
let warm_passes_per_s = 12.
let explore_points_per_s = 82.

(* ------------------------------------------------------------------ *)
(* Response checks, shared with the traced run *)

type served = { sv_cycles : int; sv_points : int }

let result_of_line line =
  match J.parse line with Error _ -> None | Ok j -> Some j

(* Check one response against the request's reference checksum; returns
   the simulated cycles and design points it reports. *)
let check_response t (r : Gen.req) line =
  let expected = r.Gen.bm.S.bm_expected land 0xFFFFFFFF in
  let fail what =
    check t (Printf.sprintf "request %d: %s: %s" r.Gen.id what line) false;
    { sv_cycles = 0; sv_points = 0 }
  in
  match result_of_line line with
  | None -> fail "unparseable response"
  | Some j -> (
    match (J.member "ok" j, int_at [ "id" ] j, J.member "result" j) with
    | Some (J.Bool true), Some id, Some res when id = r.Gen.id -> (
      match r.Gen.op with
      | P.Compile _ -> (
        match (int_at [ "ret" ] res, int_at [ "stats"; "cycles" ] res, J.member "trap" res) with
        | Some ret, Some cycles, Some J.Null when ret = expected ->
          check t "compile" true;
          { sv_cycles = cycles; sv_points = 1 }
        | _ -> fail "wrong compile result")
      | P.Fault_campaign _ -> (
        match (int_at [ "golden_ret" ] res, int_at [ "golden_cycles" ] res, J.member "rows" res) with
        | Some ret, Some cycles, Some (J.List rows)
          when ret = expected && List.length rows = List.length Epic.Fault.all_targets ->
          check t "fault-campaign" true;
          { sv_cycles = cycles; sv_points = 1 }
        | _ -> fail "wrong fault-campaign result")
      | P.Explore_slice _ -> (
        match J.member "points" res with
        | Some (J.List pts) ->
          let cycles = List.filter_map (int_at [ "cycles" ]) pts in
          if List.length cycles = List.length pts && pts <> [] then begin
            check t "explore-slice" true;
            { sv_cycles = List.fold_left ( + ) 0 cycles; sv_points = List.length pts }
          end
          else fail "explore-slice point without cycles"
        | _ -> fail "wrong explore-slice result")
      | _ -> fail "the benchmark sends no such request")
    | _ -> fail "error response")

(* explore-slice results carry cycles but no checksum: recompute every
   point in process (after the timed window) and compare. *)
let check_slices t (reqs : Gen.req list) (lines : (int, string) Hashtbl.t) =
  List.iter
    (fun (r : Gen.req) ->
      match r.Gen.op with
      | P.Explore_slice e ->
        let cache = T.Compile_cache.create () in
        let source = r.Gen.bm.S.bm_source in
        let reference =
          List.concat_map
            (fun issue ->
              List.map
                (fun alus ->
                  let cfg =
                    { Epic.Config.default with Epic.Config.n_alus = alus; issue_width = issue }
                  in
                  let a = T.compile_epic ~cache cfg ~source () in
                  let res = T.run_epic a in
                  if res.Epic.Sim.ret <> r.Gen.bm.S.bm_expected land 0xFFFFFFFF then -1
                  else res.Epic.Sim.stats.Epic.Sim.cycles)
                e.P.ex_alus)
            e.P.ex_issues
        in
        let served =
          match Option.bind (Hashtbl.find_opt lines r.Gen.id) result_of_line with
          | Some j -> (
            match member_path [ "result"; "points" ] j with
            | Some (J.List pts) -> List.map (int_at [ "cycles" ]) pts
            | _ -> [])
          | None -> []
        in
        check t
          (Printf.sprintf "request %d: explore-slice cycles differ from the toolchain" r.Gen.id)
          (served = List.map Option.some reference)
      | _ -> ())
    reqs

(* Split a request list into the two connections' streams. *)
let two_streams (reqs : Gen.req list) =
  let pick parity =
    Array.of_list (List.filteri (fun i _ -> i mod 2 = parity) reqs)
  in
  [| pick 0; pick 1 |]

(* Set-up samples from daemons that are spawned, connected to and shut
   down again at once. *)
let spawn_samples ~tag n dir_of =
  List.init n (fun i ->
      let d =
        Daemon.spawn ~sock:(scratch_path (tag ^ ".sock")) ~cache_dir:(dir_of i)
          ~log:(scratch_path (tag ^ ".epicd.log"))
      in
      Daemon.shutdown d;
      d.Daemon.setup_s)

(* A stretch of a serve campaign.  Throughputs are medians over the
   segments, so a burst of interference from outside the benchmark moves
   one segment, not the result. *)
type segment = { sg_wall : float; sg_requests : int; sg_points : int; sg_cycles : int }

let serve_metrics ~setup_s ~lat ~segments ~rss =
  let n = List.length lat in
  let rate f = median (List.map (fun s -> float_of_int (f s) /. s.sg_wall) segments) in
  let req_rate = rate (fun s -> s.sg_requests) in
  Printf.eprintf "perfbench: %d requests in %d segments, %d latency samples (%d above p95)\n%!"
    n (List.length segments) n (n - int_of_float (ceil (0.95 *. float_of_int n)));
  [ ("setup_s", setup_s, "s");
    ("req_p50_ms", 1e3 *. median lat, "ms");
    ("req_p95_ms", 1e3 *. percentile 95. lat, "ms");
    ("req_per_s", req_rate, "1/s");
    ("points_per_s", rate (fun s -> s.sg_points), "1/s");
    ("sim_cycles_per_s", rate (fun s -> s.sg_cycles), "1/s");
    ("campaign_s", float_of_int n /. req_rate, "s");
    ("peak_rss_mb", rss, "MB") ]

(* Every response of a replay with its request, latency and finish time. *)
let responses streams (conns : Daemon.conn array) =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun c rs ->
            let cn = conns.(c) in
            List.mapi
              (fun k r -> (r, cn.Daemon.responses.(k), cn.Daemon.latency.(k), cn.Daemon.finished.(k)))
              (Array.to_list rs))
          streams))

(* Check the responses of a cold pass over [reqs]; returns what each
   reported and the response lines by request id. *)
let check_cold t reqs rs =
  let by_id = Hashtbl.create 128 in
  let served =
    List.map
      (fun ((r : Gen.req), line, lat, fin) ->
        Hashtbl.replace by_id r.Gen.id line;
        (check_response t r line, lat, fin))
      rs
  in
  check_slices t reqs by_id;
  (served, by_id)

let lines_of streams = Array.map (Array.map (fun (r : Gen.req) -> r.Gen.line)) streams

let segment_of ~wall served =
  { sg_wall = wall; sg_requests = List.length served;
    sg_points = List.fold_left (fun a (s, _, _) -> a + s.sv_points) 0 served;
    sg_cycles = List.fold_left (fun a (s, _, _) -> a + s.sv_cycles) 0 served }

let warm_set ~seed = Gen.serve_requests ~seed ~stream:(-1) ~blocks:2

(* Serve [reqs] once through a fresh daemon on [dir]: the cold pass.
   Returns the responses by request id. *)
let fill t ~tag ~dir reqs =
  let d =
    Daemon.spawn ~sock:(scratch_path (tag ^ ".sock")) ~cache_dir:dir
      ~log:(scratch_path (tag ^ ".epicd.log"))
  in
  let streams = two_streams reqs in
  let conns, _ = Daemon.replay d (lines_of streams) in
  Daemon.shutdown d;
  snd (check_cold t reqs (responses streams conns))

(* serve_cold runs in rounds: each round is a fresh daemon on an empty
   cache directory serving its own seeded set of distinct requests, so
   every request is cold while the run still gathers enough latency
   samples for a p95.  A round is one segment. *)
let cold_rounds seconds = max 1 (int_of_float (Float.ceil (seconds /. cold_round_s)))

let cold_set ~seed round = Gen.serve_requests ~seed ~stream:round ~blocks:4

let serve_cold ~seed ~seconds =
  let t = tally () in
  let rounds =
    List.init (cold_rounds seconds) (fun i ->
        let reqs = cold_set ~seed i in
        let d =
          Daemon.spawn ~sock:(scratch_path "cold.sock")
            ~cache_dir:(scratch_path (Printf.sprintf "cold-cache-%d" i))
            ~log:(scratch_path "cold.epicd.log")
        in
        let streams = two_streams reqs in
        let conns, wall = Daemon.replay d (lines_of streams) in
        let rss = Daemon.peak_rss_mb d.Daemon.pid in
        Daemon.shutdown d;
        let served, _ = check_cold t reqs (responses streams conns) in
        (d.Daemon.setup_s, segment_of ~wall served, List.map (fun (_, l, _) -> l) served, rss))
  in
  let extra =
    spawn_samples ~tag:"cold-setup" (max 0 (setup_repeats - List.length rounds)) (fun i ->
        scratch_path (Printf.sprintf "cold-setup-%d" i))
  in
  ( t,
    serve_metrics
      ~setup_s:(median (extra @ List.map (fun (s, _, _, _) -> s) rounds))
      ~lat:(List.concat_map (fun (_, _, l, _) -> l) rounds)
      ~segments:(List.map (fun (_, s, _, _) -> s) rounds)
      ~rss:(median (List.map (fun (_, _, _, r) -> r) rounds)) )

(* The replay streams of serve_warm: each connection walks the whole set
   [passes] times, in its own seeded order per pass. *)
let warm_streams ~seed ~passes (set : Gen.req list) =
  let set = Array.of_list set in
  Array.init 2 (fun c ->
      let st = Random.State.make [| seed; 100 + c |] in
      Array.concat
        (List.init passes (fun _ ->
             let a = Array.copy set in
             Gen.shuffle st a;
             a)))

(* serve_warm's segments are equal slices of the replay's wall time. *)
let warm_segments = 8

let serve_warm ~seed ~seconds =
  let t = tally () in
  let set = warm_set ~seed in
  let dir = scratch_path "warm-cache" in
  let cold = fill t ~tag:"warm-fill" ~dir set in
  let extra = spawn_samples ~tag:"warm" (setup_repeats - 1) (fun _ -> dir) in
  let d =
    Daemon.spawn ~sock:(scratch_path "warm.sock") ~cache_dir:dir
      ~log:(scratch_path "warm.epicd.log")
  in
  let setup_s = median (d.Daemon.setup_s :: extra) in
  let passes = max 1 (int_of_float (Float.round (seconds *. warm_passes_per_s))) in
  let streams = warm_streams ~seed ~passes set in
  let conns, wall = Daemon.replay d (lines_of streams) in
  let rss = Daemon.peak_rss_mb d.Daemon.pid in
  Daemon.shutdown d;
  (* What each request reports, read from its (already checked) cold line. *)
  let reported = Hashtbl.create 64 in
  List.iter
    (fun (r : Gen.req) ->
      Hashtbl.replace reported r.Gen.id (check_response (tally ()) r (Hashtbl.find cold r.Gen.id)))
    set;
  let served =
    List.map
      (fun ((r : Gen.req), line, lat, fin) ->
        check t
          (Printf.sprintf "request %d: warm response differs from the cold one" r.Gen.id)
          (String.equal line (Hashtbl.find cold r.Gen.id));
        (Hashtbl.find reported r.Gen.id, lat, fin))
      (responses streams conns)
  in
  let slice = wall /. float_of_int warm_segments in
  let segments =
    List.init warm_segments (fun i ->
        segment_of ~wall:slice
          (List.filter
             (fun (_, _, fin) -> min (warm_segments - 1) (int_of_float (fin /. slice)) = i)
             served))
  in
  (t, serve_metrics ~setup_s ~lat:(List.map (fun (_, l, _) -> l) served) ~segments ~rss)

(* ------------------------------------------------------------------ *)
(* explore *)

(* The run's campaign is split into a few seeded campaigns, each on a
   fresh store; the metrics are medians over them. *)
let explore_campaigns = 3

let explore_options ~seed ~seconds i =
  let per = seconds *. explore_points_per_s /. float_of_int explore_campaigns in
  { C.default_options with
    C.o_budget = max 50 (int_of_float (Float.round per));
    o_seed = (seed * explore_campaigns) + i; o_jobs = 2;
    o_cache_dir = Some (scratch_path (Printf.sprintf "explore-cache-%d" i));
    o_workloads = Gen.small_workloads () }

let prepare_all (o : C.options) =
  List.map (C.prepare ~max_cands:o.C.o_max_cands ~max_ops:o.C.o_max_ops) o.C.o_workloads

(* A failed point is infeasible (the design cannot hold the program) unless
   the program ran and returned the wrong checksum. *)
let wrong_result msg =
  String.length msg >= 12 && String.sub msg 0 12 = "wrong result"

(* Walk the campaign's sample and read every evaluated point back from
   its store: (measured, infeasible, wrong, cycles). *)
let read_back (o : C.options) ws store =
  let points = C.grid o ws in
  let chosen = C.sample ~seed:o.C.o_seed ~budget:o.C.o_budget (Array.length points) in
  Array.fold_left
    (fun (m, inf, bad, cyc) i ->
      let p = points.(i) in
      let w = List.find (fun w -> w.C.w_bm.S.bm_name = p.C.p_workload) ws in
      let cfg = C.config_of w p in
      match Epic.Config.validate cfg with
      | Error _ -> (m, inf, bad, cyc)
      | Ok () -> (
        let key = C.store_key w cfg ~cdigest:(snd w.C.w_progs.(p.C.p_cands)) in
        match Store.find store ~key with
        | None -> (m, inf, bad, cyc)
        | Some payload -> (
          match C.outcome_of_payload payload with
          | C.Measured c -> (m + 1, inf, bad, cyc + c)
          | C.Failed msg when wrong_result msg -> (m, inf, bad + 1, cyc)
          | C.Failed _ -> (m, inf + 1, bad, cyc))))
    (0, 0, 0, 0) chosen

let explore ~seed ~seconds =
  let t = tally () in
  let options = List.init explore_campaigns (explore_options ~seed ~seconds) in
  let setups = host_scaled (List.init setup_repeats (fun _ () -> prepare_all (List.hd options))) in
  Printf.eprintf "perfbench: explore set-up: %s\n%!" (describe_scaled setups);
  let ws = (List.hd setups).value in
  let runs =
    List.map
      (fun o ->
        Gc.compact ();
        reset_peak_rss ();
        let r, wall = time (fun () -> C.run o) in
        (o, r, wall, self_peak_rss_mb ()))
      options
  in
  let rates =
    List.map
      (fun ((o : C.options), (r : C.result), wall, _) ->
        let warm = C.run { o with C.o_jobs = 1 } in
        check t "explore frontier differs between the cold run and a warm re-run"
          (String.equal (J.to_string r.C.r_doc) (J.to_string warm.C.r_doc));
        let measured, infeasible, wrong, cycles = read_back o ws (Option.get r.C.r_store) in
        let c = r.C.r_counts in
        check t "explore points read back from the store disagree with the campaign counts"
          (measured + infeasible + wrong = c.C.c_evaluated
          && infeasible + wrong = c.C.c_errors);
        for _ = 1 to measured + infeasible do check t "point" true done;
        for _ = 1 to wrong do check t "explore point returned a wrong checksum" false done;
        Printf.eprintf
          "perfbench: explore seed %d: evaluated %d (infeasible %d), pruned %d, invalid %d in %.2fs\n%!"
          o.C.o_seed c.C.c_evaluated infeasible c.C.c_pruned c.C.c_invalid wall;
        (float_of_int c.C.c_evaluated /. wall, float_of_int cycles /. wall))
      runs
  in
  let walls = List.map (fun (_, _, w, _) -> w) runs in
  let wall = median walls in
  ( t,
    [ ("setup_s", median (List.map scaled_s setups), "s");
      ("req_p50_ms", 1e3 *. wall, "ms");
      ("req_p95_ms", 1e3 *. percentile 95. walls, "ms");
      ("req_per_s", 1. /. wall, "1/s");
      ("points_per_s", median (List.map fst rates), "1/s");
      ("sim_cycles_per_s", median (List.map snd rates), "1/s");
      ("campaign_s", wall, "s");
      ("peak_rss_mb", median (List.map (fun (_, _, _, m) -> m) runs), "MB") ] )

(* ------------------------------------------------------------------ *)
(* table1_paper *)

let expected_table1 = "perfbench/table1_paper.expected"

(* Lines "name sa110 epic1 epic2 epic3 epic4". *)
let read_expected () =
  let ic = open_in expected_table1 in
  let rec go acc =
    match input_line ic with
    | line -> (
      match String.split_on_char ' ' (String.trim line) with
      | name :: nums when String.length name > 0 && name.[0] <> '#' ->
        go ((name, List.map int_of_string nums) :: acc)
      | _ -> go acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let row_cycles (r : E.table1_row) = r.E.t1_sa110 :: List.map snd r.E.t1_epic

(* Compile every Table 1 design point into a fresh compile cache: the
   front end and optimiser once per workload and target, the backend once
   per ALU count. *)
let compile_grid () =
  let cache = T.Compile_cache.create () in
  List.iter
    (fun (bm : S.benchmark) ->
      let source = bm.S.bm_source in
      ignore (T.compile_arm ~cache ~source ());
      List.iter
        (fun n -> ignore (T.compile_epic ~cache (Epic.Config.with_alus n) ~source ()))
        E.alu_sweep)
    (Gen.paper_benchmarks ());
  cache

(* The run replays the campaign's grid on one domain, cell by cell, once,
   over the pre-compiled cache.  Each cell is the call
   Experiments.table1 makes for it (Toolchain.arm_cycles or epic_cycles,
   which verify the checksum), and is host-scaled on its own, so a burst
   of outside load is scaled out of the one cell it hits.  One domain,
   because at two the campaign time would also measure how 20 uneven
   cells pack onto the domains, and the minor collections that stop both
   domains whenever one waits for the host. *)
let table1_setups = 5

type cell = Arm of S.benchmark | Epic of S.benchmark * int

(* The grid in Experiments.table1's order: per workload, the SA-110, then
   EPIC at each ALU count. *)
let table1_cells () =
  List.concat_map
    (fun bm -> Arm bm :: List.map (fun n -> Epic (bm, n)) E.alu_sweep)
    (Gen.paper_benchmarks ())

let run_cell ~cache = function
  | Arm bm ->
    (T.arm_cycles ~cache ~source:bm.S.bm_source ~expected:bm.S.bm_expected ())
      .Epic.Arm.Sim.cycles
  | Epic (bm, n) ->
    (T.epic_cycles ~cache (Epic.Config.with_alus n) ~source:bm.S.bm_source
       ~expected:bm.S.bm_expected ())
      .Epic.Sim.cycles

(* The campaign's rows, from its cycles in grid order. *)
let table1_rows cycles =
  let per_bm = 1 + List.length E.alu_sweep in
  List.mapi
    (fun i (bm : S.benchmark) ->
      match List.filteri (fun j _ -> j / per_bm = i) cycles with
      | sa110 :: epic ->
        { E.t1_name = bm.S.bm_name; t1_sa110 = sa110; t1_epic = List.combine E.alu_sweep epic }
      | [] -> assert false)
    (Gen.paper_benchmarks ())

(* Compare a campaign's rows with the expected counts; returns the total
   simulated cycles. *)
let check_table1 t expected rows =
  check t "table1 rows missing" (List.length rows = List.length expected);
  List.fold_left
    (fun total (r : E.table1_row) ->
      let got = row_cycles r in
      let want = Option.value ~default:[] (List.assoc_opt r.E.t1_name expected) in
      List.iteri
        (fun i c ->
          check t
            (Printf.sprintf "table1 %s column %d: %d cycles, expected %s" r.E.t1_name i c
               (match List.nth_opt want i with Some w -> string_of_int w | None -> "none"))
            (List.nth_opt want i = Some c))
        got;
      List.fold_left ( + ) total got)
    0 rows

let table1_paper () =
  let t = tally () in
  let expected = read_expected () in
  let setups = host_scaled (List.init table1_setups (fun _ -> compile_grid)) in
  let cache = (List.hd (List.rev setups)).value in
  let cells = table1_cells () in
  Gc.compact ();
  reset_peak_rss ();
  let timed = host_scaled (List.map (fun c () -> run_cell ~cache c) cells) in
  let rss = self_peak_rss_mb () in
  let cycles = check_table1 t expected (table1_rows (List.map (fun x -> x.value) timed)) in
  let wall = List.fold_left (fun a x -> a +. scaled_s x) 0. timed in
  Printf.eprintf "perfbench: table1 set-up: %s; campaign of %d cells: %s\n%!"
    (describe_scaled setups) (List.length cells) (describe_scaled timed);
  (* One campaign per run, so its p95 is its time. *)
  ( t,
    [ ("setup_s", median (List.map scaled_s setups), "s");
      ("req_p50_ms", 1e3 *. wall, "ms");
      ("req_p95_ms", 1e3 *. wall, "ms");
      ("req_per_s", 1. /. wall, "1/s");
      ("points_per_s", float_of_int (List.length cells) /. wall, "1/s");
      ("sim_cycles_per_s", float_of_int cycles /. wall, "1/s");
      ("campaign_s", wall, "s");
      ("peak_rss_mb", rss, "MB") ] )
