(* epicload: load generator and SLO gate for the epicd daemon.

   Builds a deterministic request scenario (3 workloads x 3
   configurations of compiles, plus simulate / fault-campaign /
   explore-slice traffic in the mixed and bursty scenarios), replays it
   for --passes passes against one of three transports —

     in-process (default)   a fresh Epic_serve.Server per pass, the
                            cheapest harness and the restart test: each
                            pass re-opens the artifact cache directory
     --epicd BIN            spawn the real daemon binary in pipe mode,
                            once per pass
     --connect SOCK         drive an already-running socket daemon

   — and then asserts the service-level objectives: every work request
   succeeded, the responses of later passes are byte-identical to the
   first (the protocol's determinism guarantee), the p95 latency
   reported by the daemon is within --slo-p95-ms, and, when an artifact
   cache is in play, the disk hit rate of every pass after the first
   reaches --expect-hit-rate (default 0.9).  Exit status 1 on any
   violated objective, so CI can gate on it directly. *)

open Cmdliner
module P = Epic_serve.Protocol
module J = Epic.Profile.Json

(* The handwritten-assembly example's gcd program: exercises the
   simulate (assemble-and-run) path without touching the compiler. *)
let gcd_asm =
  ";; gcd(r12, r13) by repeated remainder, result in r3\n\
   _start:\n\
   { MOV r1, #4096 ; MOV r12, #1071 ; MOV r13, #462 ; PBRR b0, @loop }\n\
   loop:\n\
   { CMPP.NE p1, p2, r13, #0 ; PBRR b1, @done }\n\
   { BRCT #1, #2 }\n\
   { REM r14, r12, r13 }\n\
   { MOV r12, r13 ; MOV r13, r14 }\n\
   { BRU #0 }\n\
   done:\n\
   { MOV r3, r12 }\n\
   { STW r1, #2, r3 }\n\
   { HALT }\n"

let wl name params =
  P.Src_workload { P.wl_name = name; wl_params = List.sort compare params }

let workloads =
  [ wl "sha" [ ("bytes", 64) ];
    wl "dct" [ ("width", 8); ("height", 8) ];
    wl "dijkstra" [ ("nodes", 6) ] ]

let configs =
  List.map
    (fun n -> { Epic.Config.default with Epic.Config.n_alus = n })
    [ 2; 3; 4 ]

let compile ?(opt = Epic.Toolchain.O1) cfg src =
  P.Compile
    { P.c_config = cfg; c_source = src; c_opt = opt; c_predication = true;
      c_unroll = Epic.Toolchain.default_unroll; c_fuel = None }

(* 3 workloads x 3 configurations, the acceptance batch. *)
let compile_grid = List.concat_map (fun c -> List.map (compile c) workloads) configs

let extras =
  [ P.Simulate
      { P.s_config = Epic.Config.default; s_asm = gcd_asm; s_fuel = None;
        s_mem_bytes = 65536 };
    P.Fault_campaign
      { P.fc_config = Epic.Config.default; fc_source = wl "sha" [ ("bytes", 64) ];
        fc_seed = 1; fc_runs = 4; fc_targets = Epic.Fault.all_targets;
        fc_fuel_factor = 4 };
    P.Explore_slice
      { P.ex_source = wl "dijkstra" [ ("nodes", 6) ]; ex_alus = [ 1; 2 ];
        ex_issues = [ 4 ] } ]

(* Interleave a stats barrier every [n] requests: each barrier drains the
   connection, the bursty-arrival shape. *)
let burstify n ops =
  List.concat
    (List.mapi
       (fun i op -> if i > 0 && i mod n = 0 then [ P.Stats; op ] else [ op ])
       ops)

let scenario_ops = function
  | "mixed" -> compile_grid @ extras
  | "bursty" -> burstify 4 (compile_grid @ extras)
  | "compile-heavy" ->
    List.concat_map
      (fun c ->
        List.concat_map
          (fun w -> [ compile ~opt:Epic.Toolchain.O0 c w; compile c w ])
          workloads)
      configs
  | s ->
    failwith
      (Printf.sprintf
         "unknown scenario %S (expected mixed, bursty, compile-heavy)" s)

(* ------------------------------------------------------------------ *)
(* Transports: each runs one pass (a list of request lines) and returns
   the response lines, in request order. *)

let pass_in_process ~jobs ~cache_dir lines =
  let store = Option.map Epic_serve.Store.open_ cache_dir in
  let t = Epic_serve.Server.create ~jobs ?store () in
  Epic_serve.Server.serve_strings t lines

(* Spawn the daemon binary in pipe mode.  The scenario is a few KB of
   requests — far below the pipe buffer — so writing it whole before
   draining responses cannot deadlock. *)
let pass_spawn ?(extra_args = []) ~jobs ~cache_dir bin lines =
  let args =
    [ bin; "--jobs"; string_of_int jobs ]
    @ (match cache_dir with None -> [] | Some d -> [ "--cache-dir"; d ])
    @ extra_args
  in
  (* cloexec, so the daemon inherits only the dup2'd stdin/stdout: were
     it to keep a copy of req_w, it would never see EOF on its input. *)
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process bin (Array.of_list args) req_r resp_w Unix.stderr in
  Unix.close req_r;
  Unix.close resp_w;
  let oc = Unix.out_channel_of_descr req_w in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc;
  let ic = Unix.in_channel_of_descr resp_r in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let responses = read [] in
  close_in ic;
  (match Unix.waitpid [] pid with
   | _, Unix.WEXITED 0 -> ()
   | _, st ->
     let what =
       match st with
       | Unix.WEXITED c -> Printf.sprintf "exited %d" c
       | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
       | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s
     in
     failwith (Printf.sprintf "epicd %s" what));
  responses

(* The first request goes alone and its reply is awaited before the rest
   are pipelined: concurrent clients then start their streams in step
   (see [run_clients]). *)
let pass_connect path lines =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  let oc = Unix.out_channel_of_descr sock in
  let ic = Unix.in_channel_of_descr sock in
  let send ls =
    List.iter (fun l -> output_string oc l; output_char oc '\n') ls;
    flush oc
  in
  let first_reply =
    match lines with
    | [] -> []
    | first :: rest ->
      send [ first ];
      let reply = input_line ic in
      send rest;
      [ reply ]
  in
  Unix.shutdown sock Unix.SHUTDOWN_SEND;
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let responses = first_reply @ read [] in
  (try Unix.close sock with Unix.Unix_error (_, _, _) -> ());
  responses

(* ------------------------------------------------------------------ *)
(* Stats-response probing *)

let mem path j =
  List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path

let as_num = function
  | Some (J.Int i) -> Some (float_of_int i)
  | Some (J.Float f) -> Some f
  | _ -> None

type lat_dist = {
  l_p50 : float option;
  l_p95 : float option;
  l_p99 : float option;
  l_max : float option;
}

let parse_stats line =
  match J.parse line with
  | Error e -> failwith (Printf.sprintf "unparseable stats response: %s" e)
  | Ok j ->
    let num path = as_num (mem path j) in
    ( { l_p50 = num [ "result"; "latency"; "p50_ms" ];
        l_p95 = num [ "result"; "latency"; "p95_ms" ];
        l_p99 = num [ "result"; "latency"; "p99_ms" ];
        l_max = num [ "result"; "latency"; "max_ms" ] },
      num [ "result"; "disk_cache"; "hits" ],
      num [ "result"; "disk_cache"; "misses" ],
      num [ "result"; "sim_rate"; "cycles_per_s" ] )

let pp_dist d =
  let f = function Some v -> Printf.sprintf "%.1f" v | None -> "-" in
  Printf.sprintf "p50/p95/p99/max %s/%s/%s/%s ms" (f d.l_p50) (f d.l_p95)
    (f d.l_p99) (f d.l_max)

(* A single numeric field out of a stats response line. *)
let stat_field line path =
  match J.parse line with
  | Error _ -> None
  | Ok j -> as_num (mem ("result" :: path) j)

(* ------------------------------------------------------------------ *)

(* Option.bind with the arguments in reading order. *)
let ( =<< ) f x = Option.bind x f

(* ------------------------------------------------------------------ *)
(* Overload scenario: a burst against a deliberately tiny admission
   queue.  The first wave must shed (the point of the test); a retry
   loop with deterministic exponential backoff resends exactly the shed
   requests until everything has been answered.  Zero lost requests and
   at least one shed are both hard objectives. *)

let run_overload ~cache_dir ~epicd_bin ~retries ~retry_base_ms ~retry_seed
    ~jobs =
  let queue_max = 4 in
  let ops = compile_grid @ extras in
  let send_wave =
    match epicd_bin with
    | Some bin ->
      fun lines ->
        pass_spawn ~jobs ~cache_dir bin lines
          ~extra_args:[ "--queue-max"; string_of_int queue_max ]
    | None ->
      (* One long-lived server across the waves: sheds accumulate in its
         stats, and retries hit its in-memory caches even without a
         cache directory. *)
      let store = Option.map Epic_serve.Store.open_ cache_dir in
      let t =
        Epic_serve.Server.create ~jobs ~queue_max ?store ()
      in
      fun lines -> Epic_serve.Server.serve_strings t lines
  in
  let got = Hashtbl.create 16 in
  let sheds = ref 0 in
  let pending = ref (List.mapi (fun i op -> (i, op)) ops) in
  let attempt = ref 0 in
  while !pending <> [] && !attempt <= retries do
    incr attempt;
    if !attempt > 1 then begin
      let delay =
        Epic.Exec.Backoff.delay_ms ~base_ms:retry_base_ms ~seed:retry_seed
          ~key:0 ~attempt:(!attempt - 1) ()
      in
      Unix.sleepf (delay /. 1000.)
    end;
    let lines =
      List.map
        (fun (i, op) ->
          P.to_line { P.rq_id = Some i; rq_deadline_ms = None; rq_op = op })
        !pending
    in
    let responses = send_wave lines in
    List.iter
      (fun line ->
        match Result.to_option (J.parse line) with
        | None -> failwith (Printf.sprintf "unparseable response: %s" line)
        | Some j ->
          let id =
            match J.member "id" j with Some (J.Int i) -> Some i | _ -> None
          in
          let ok =
            match J.member "ok" j with Some (J.Bool b) -> b | _ -> false
          in
          let code =
            match J.member "code" =<< J.member "error" j with
            | Some (J.Str c) -> Some c
            | _ -> None
          in
          match (id, ok, code) with
          | Some i, true, _ -> Hashtbl.replace got i line
          | Some _, false, Some "serve/overload" -> incr sheds
          | _, false, _ ->
            failwith (Printf.sprintf "unexpected error response: %s" line)
          | None, true, _ -> ())
      responses;
    let before = List.length !pending in
    pending := List.filter (fun (i, _) -> not (Hashtbl.mem got i)) !pending;
    Printf.printf
      "overload wave %d: %d sent, %d answered, %d shed so far\n%!" !attempt
      before
      (before - List.length !pending)
      !sheds
  done;
  let lost = List.length !pending in
  if lost > 0 then begin
    Printf.eprintf
      "epicload: FAIL: %d request(s) lost after %d wave(s) of retries\n" lost
      !attempt;
    exit 1
  end;
  if !sheds = 0 then begin
    Printf.eprintf
      "epicload: FAIL: overload scenario never shed — burst too small for \
       queue-max %d\n"
      queue_max;
    exit 1
  end;
  Printf.printf
    "epicload: overload OK (%d requests, %d shed then retried to completion \
     in %d wave(s), 0 lost)\n"
    (List.length ops) !sheds !attempt

(* ------------------------------------------------------------------ *)
(* Chaos mode: hand over to the seeded injection campaign in
   Epic_serve.Chaos, which drives the real daemon binary over pipes. *)

let run_chaos ~cache_dir ~epicd_bin ~seed ~report_file ~jobs =
  let bin =
    match epicd_bin with
    | Some b -> b
    | None -> failwith "--chaos requires --epicd BIN (it drives the real daemon)"
  in
  let cache_dir =
    match cache_dir with
    | Some d -> d
    | None ->
      failwith "--chaos requires --cache-dir DIR (the directory is wiped)"
  in
  let report = Epic_serve.Chaos.run ~jobs ~seed ~bin ~cache_dir () in
  let json = J.to_string (Epic_serve.Chaos.report_to_json report) in
  (match report_file with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     output_string oc json;
     output_char oc '\n';
     close_out oc;
     Printf.printf "chaos: report written to %s\n" path);
  if report.Epic_serve.Chaos.r_ok then
    Printf.printf "epicload: chaos OK (seed %d, %d injections survived)\n" seed
      (List.length report.Epic_serve.Chaos.r_injections)
  else begin
    Printf.eprintf "epicload: FAIL: chaos campaign (seed %d):\n%s\n" seed json;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Concurrent clients: N threads replay the same scenario against one
   socket daemon, to exercise its cross-client in-flight deduplication
   rather than its disk cache.  A start barrier alone does not make the
   identical streams overlap: a client's whole stream is queued before
   the next client's reader runs, so identical requests rarely meet in
   flight.  Each client therefore sends its first request alone (all of
   them are then in flight together) and waits for the reply before
   pipelining the rest, which starts the streams in step. *)

let run_clients ~path ~clients lines =
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let go = ref false in
  let results = Array.make clients None in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            Mutex.lock mu;
            while not !go do
              Condition.wait cv mu
            done;
            Mutex.unlock mu;
            results.(i) <-
              Some
                (match pass_connect path lines with
                 | r -> Ok r
                 | exception e -> Error e))
          ())
  in
  Mutex.lock mu;
  go := true;
  Condition.broadcast cv;
  Mutex.unlock mu;
  List.iter Thread.join threads;
  Array.to_list results
  |> List.map (function
       | Some (Ok r) -> r
       | Some (Error e) -> raise e
       | None -> assert false)

(* ------------------------------------------------------------------ *)

let run scenario passes clients cache_dir epicd_bin connect slo_p95
    slo_ref_rate expect_hit deadline_ms retries retry_base_ms retry_seed chaos
    chaos_seed chaos_report stats_json jobs =
  Cli_common.handle_errors @@ fun () ->
  if passes < 1 then failwith "--passes must be >= 1";
  if clients < 1 then failwith "--clients must be >= 1";
  if clients > 1 && connect = None then
    failwith "--clients > 1 drives concurrent socket connections; it requires \
              --connect";
  if epicd_bin <> None && connect <> None then
    failwith "--epicd and --connect are mutually exclusive";
  if chaos then run_chaos ~cache_dir ~epicd_bin ~seed:chaos_seed
      ~report_file:chaos_report ~jobs
  else if scenario = "overload" then begin
    if connect <> None then
      failwith "--scenario overload drives its own daemon; drop --connect";
    run_overload ~cache_dir ~epicd_bin ~retries ~retry_base_ms ~retry_seed
      ~jobs
  end
  else begin
  let ops = scenario_ops scenario @ [ P.Stats ] in
  let reqs =
    List.mapi
      (fun i op ->
        { P.rq_id = Some i;
          rq_deadline_ms = (if P.is_control op then None else deadline_ms);
          rq_op = op })
      ops
  in
  let lines = List.map P.to_line reqs in
  let control =
    List.map (fun r -> P.is_control r.P.rq_op) reqs
  in
  let work_ids =
    List.filter_map
      (fun r -> if P.is_control r.P.rq_op then None else r.P.rq_id)
      reqs
  in
  let run_pass () =
    match (epicd_bin, connect) with
    | Some bin, _ -> [ pass_spawn ~jobs ~cache_dir bin lines ]
    | None, Some path ->
      if clients > 1 then run_clients ~path ~clients lines
      else [ pass_connect path lines ]
    | None, None -> [ pass_in_process ~jobs ~cache_dir lines ]
  in
  let failures = ref [] in
  let fail fmt = Format.kasprintf (fun m -> failures := m :: !failures) fmt in
  let work_of ~client responses =
    (* Responses arrive in request order, so the control mask applies
       positionally. *)
    if List.length responses <> List.length control then
      fail "client %d: expected %d responses, got %d (lost requests)" client
        (List.length control)
        (List.length responses);
    List.filteri
      (fun i _ -> not (try List.nth control i with _ -> true))
      responses
  in
  let baseline = ref [] in
  let last_stats = ref None in
  (* In connect mode the daemon survives across passes, so its stats
     counters are cumulative: track the previous pass's disk totals and
     assert on the delta. *)
  let prev_disk = ref (0., 0.) in
  for pass = 1 to passes do
    let t0 = Epic.Exec.now () in
    let per_client = run_pass () in
    let wall = Epic.Exec.now () -. t0 in
    let works = List.mapi (fun ci r -> work_of ~client:ci r) per_client in
    List.iteri
      (fun ci work ->
        List.iteri
          (fun i line ->
            match J.member "ok" =<< Result.to_option (J.parse line) with
            | Some (J.Bool true) -> ()
            | _ ->
              fail "pass %d client %d: work response %d not ok: %s" pass ci i
                line)
          work;
        (* Per-connection ordering: every client's response ids must be
           the request ids, in request order. *)
        let got_ids =
          List.map
            (fun line ->
              match J.member "id" =<< Result.to_option (J.parse line) with
              | Some (J.Int i) -> Some i
              | _ -> None)
            work
        in
        if got_ids <> List.map Option.some work_ids then
          fail "pass %d client %d: response ids out of request order" pass ci)
      works;
    let work = match works with w :: _ -> w | [] -> [] in
    List.iteri
      (fun ci w ->
        if ci > 0 && w <> work then
          fail
            "pass %d: client %d responses differ from client 0 (determinism \
             violation)"
            pass ci)
      works;
    (* With one client the scenario's trailing stats barrier doubles as
       the probe; with several, each client got its own stats response
       (excluded from byte-identity), so a dedicated control connection
       reads the daemon-wide totals after the pass. *)
    let stats_line =
      if clients > 1 then
        match connect with
        | Some path ->
          let l =
            P.to_line
              { P.rq_id = Some 999_999; rq_deadline_ms = None; rq_op = P.Stats }
          in
          (match List.rev (pass_connect path [ l ]) with
           | last :: _ -> Some last
           | [] -> None)
        | None -> None
      else
        match List.rev (List.concat per_client) with
        | last :: _ -> Some last
        | [] -> None
    in
    last_stats := stats_line;
    let dist, hits, misses, rate =
      match stats_line with
      | Some last -> parse_stats last
      | None ->
        ( { l_p50 = None; l_p95 = None; l_p99 = None; l_max = None },
          None, None, None )
    in
    (* Normalise the SLO by the daemon's own host-throughput probe: a
       runner sustaining half the reference simulated-cycles-per-second
       is allowed twice the latency.  Fast runners never tighten the
       objective (the scale factor is clamped at 1). *)
    let slo_eff =
      match rate with
      | Some m when slo_ref_rate > 0. && m > 0. ->
        slo_p95 *. Float.max 1.0 (slo_ref_rate /. m)
      | _ -> slo_p95
    in
    (match dist.l_p95 with
     | Some v when v > slo_eff ->
       fail "pass %d: p95 latency %.1f ms exceeds SLO of %.1f ms%s" pass v
         slo_eff
         (if slo_eff <> slo_p95 then
            Printf.sprintf " (%.1f ms scaled by host sim rate)" slo_p95
          else "")
     | _ -> ());
    let hit_rate =
      match (hits, misses) with
      | Some h, Some m ->
        let ph, pm = !prev_disk in
        if connect <> None then prev_disk := (h, m);
        let dh, dm = (h -. ph, m -. pm) in
        if dh +. dm > 0. then Some (dh /. (dh +. dm)) else None
      | _ -> None
    in
    (match hit_rate with
     | Some r when pass > 1 && r < expect_hit ->
       fail "pass %d: disk hit rate %.0f%% below expected %.0f%%" pass
         (100. *. r) (100. *. expect_hit)
     | _ -> ());
    if pass = 1 then baseline := work
    else if work <> !baseline then
      fail "pass %d: responses differ from pass 1 (determinism violation)" pass;
    Printf.printf "pass %d: %d responses%s in %.2f s, %s%s%s\n%!" pass
      (List.fold_left (fun n r -> n + List.length r) 0 per_client)
      (if clients > 1 then Printf.sprintf " across %d clients" clients else "")
      wall (pp_dist dist)
      (match rate with
       | Some m -> Printf.sprintf ", host %.2e cyc/s" m
       | None -> "")
      (match hit_rate with
       | Some r -> Printf.sprintf ", disk hit rate %.0f%%" (100. *. r)
       | None -> "")
  done;
  (* Overlapping identical streams must collapse: if N barrier-started
     clients replaying the same scenario never shared one in-flight
     evaluation, the concurrent path is not actually concurrent. *)
  (if clients > 1 then
     match Option.bind !last_stats (fun l -> stat_field l [ "dedup_hits" ]) with
     | Some d when d > 0. ->
       Printf.printf "epicload: %d in-flight dedup hits across %d clients\n"
         (int_of_float d) clients
     | Some _ ->
       fail "no in-flight dedup hits across %d concurrent clients" clients
     | None -> fail "stats response carries no dedup_hits field");
  (match (stats_json, !last_stats) with
   | Some file, Some line ->
     let oc = open_out file in
     output_string oc line;
     output_char oc '\n';
     close_out oc;
     Printf.printf "epicload: stats written to %s\n" file
   | Some _, None -> fail "no stats response to write"
   | None, _ -> ());
  (match List.rev !failures with
   | [] ->
     Printf.printf "epicload: %s x%d%s OK (%d requests per pass)\n" scenario
       passes
       (if clients > 1 then Printf.sprintf " x%d clients" clients else "")
       (List.length lines)
   | fs ->
     List.iter (Printf.eprintf "epicload: FAIL: %s\n") fs;
     exit 1)
  end

let cmd =
  let scenario =
    Arg.(value & opt string "mixed"
         & info [ "scenario" ] ~docv:"NAME"
           ~doc:"Traffic shape: mixed (compile grid + simulate, \
                 fault-campaign, explore-slice), bursty (mixed with stats \
                 barriers every 4 requests), compile-heavy, or overload (a \
                 burst against a tiny admission queue, retried with seeded \
                 exponential backoff until zero requests are lost).")
  in
  let passes =
    Arg.(value & opt int 2
         & info [ "passes" ] ~docv:"N"
           ~doc:"Replay the scenario $(docv) times; passes after the first \
                 must be byte-identical and (with a cache) mostly disk hits.")
  in
  let clients =
    Arg.(value & opt int 1
         & info [ "clients" ] ~docv:"N"
           ~doc:"Replay each pass from $(docv) concurrent socket clients \
                 (requires --connect and a daemon started with \
                 $(b,--max-conns) >= $(docv)).  All clients must receive \
                 complete, identical, in-order response streams, and the \
                 daemon must report in-flight dedup hits.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Artifact cache directory for in-process and --epicd modes \
                 (re-opened by each pass: the restart test).")
  in
  let epicd_bin =
    Arg.(value & opt (some string) None
         & info [ "epicd" ] ~docv:"BIN"
           ~doc:"Spawn this epicd binary in pipe mode, once per pass, \
                 instead of serving in-process.")
  in
  let connect =
    Arg.(value & opt (some string) None
         & info [ "connect" ] ~docv:"SOCKET"
           ~doc:"Drive an already-running daemon over its Unix socket.")
  in
  let slo =
    Arg.(value & opt float 30000.
         & info [ "slo-p95-ms" ] ~docv:"MS"
           ~doc:"Fail if the daemon reports a p95 request latency above \
                 $(docv) milliseconds.")
  in
  let slo_ref_rate =
    Arg.(value & opt float 0.
         & info [ "slo-ref-rate" ] ~docv:"CYC_PER_S"
           ~doc:"Reference host simulated-cycles-per-second the SLO was \
                 calibrated on.  When positive, the p95 objective is \
                 scaled by $(docv) / (the daemon's own sim_rate probe), \
                 clamped at 1x, so slower CI runners don't flake.  0 \
                 disables normalisation.")
  in
  let expect_hit =
    Arg.(value & opt float 0.9
         & info [ "expect-hit-rate" ] ~docv:"R"
           ~doc:"Minimum disk-cache hit rate (0-1) required of every pass \
                 after the first.")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Stamp every work request with this per-request deadline; \
                 the daemon abandons work past it with a \
                 $(i,serve/deadline) error.")
  in
  let retries =
    Arg.(value & opt int 5
         & info [ "retries" ] ~docv:"N"
           ~doc:"Retry waves allowed in the overload scenario before shed \
                 requests count as lost.")
  in
  let retry_base_ms =
    Arg.(value & opt float 25.
         & info [ "retry-base-ms" ] ~docv:"MS"
           ~doc:"Base delay of the exponential backoff between retry waves \
                 (doubled each wave, with deterministic seeded jitter, \
                 capped at 2 s).")
  in
  let retry_seed =
    Arg.(value & opt int 0
         & info [ "retry-seed" ] ~docv:"SEED"
           ~doc:"Seed of the backoff jitter; the same seed replays the same \
                 delays.")
  in
  let chaos =
    Arg.(value & flag
         & info [ "chaos" ]
           ~doc:"Run the seeded chaos campaign instead of a load scenario: \
                 torn writes, bit flips, garbage and oversized frames, a \
                 slow-loris client, blown deadlines, and a kill-and-restart, \
                 each followed by byte-identity and cache-recovery checks.  \
                 Requires --epicd and --cache-dir (the directory is wiped).")
  in
  let chaos_seed =
    Arg.(value & opt int 0
         & info [ "chaos-seed" ] ~docv:"SEED"
           ~doc:"Seed of the chaos campaign; every injected fault is a pure \
                 function of it.")
  in
  let chaos_report =
    Arg.(value & opt (some string) None
         & info [ "chaos-report" ] ~docv:"FILE"
           ~doc:"Write the chaos campaign's JSON report to $(docv).")
  in
  let stats_json =
    Arg.(value & opt (some string) None
         & info [ "stats-json" ] ~docv:"FILE"
           ~doc:"Write the final stats response (one JSON line) to $(docv) — \
                 the CI artifact.")
  in
  Cmd.v
    (Cmd.info "epicload"
       ~doc:"Generate load against epicd and assert its service-level \
             objectives")
    Term.(const run $ scenario $ passes $ clients $ cache_dir $ epicd_bin
          $ connect $ slo $ slo_ref_rate $ expect_hit $ deadline_ms $ retries
          $ retry_base_ms $ retry_seed $ chaos $ chaos_seed $ chaos_report
          $ stats_json $ Cli_common.jobs_term)

let () = exit (Cmd.eval cmd)
