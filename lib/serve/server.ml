(* The epicd serving core: one request loop per connection over a
   shared Epic_exec work queue, fronted by the persistent disk cache.

   Requests are read line by line.  Each admitted work request becomes a
   task on the work queue and a completion cell in the connection's
   FIFO; responses are emitted in cell order — so the response stream is
   byte-identical for every jobs value, exactly like the campaign CLIs.
   Control requests (stats, shutdown) act as barriers: they drain the
   connection's FIFO, then answer inline.  Pipe mode and the in-memory
   transport are simply one connection.

   Work results are served through {!Store.find_or_add} when a disk
   cache is attached: the cache key is {!Protocol.cache_key}, the cached
   value is the serialised result payload, and a hit splices those bytes
   verbatim into the response.  An in-memory {!Epic.Toolchain.Compile_cache}
   additionally deduplicates compiles inside one process (including
   between concurrent requests). *)

module J = Epic.Profile.Json
module P = Protocol
module Diag = Epic.Diag

(* ------------------------------------------------------------------ *)
(* Bounded latency reservoir.

   A long-lived daemon must not grow a per-request latency list without
   bound.  The reservoir keeps a fixed-capacity sample: the first [cap]
   observations fill it, after which observation [n] replaces a slot
   with probability cap/(n+1) — algorithm R, except the "random" index
   is a pure integer mix of the observation count, so two daemons
   serving the same request stream keep identical samples.  Percentiles
   degrade gracefully from exact (below the cap) to sampled. *)

module Reservoir = struct
  type t = {
    cap : int;
    sample : float array;
    mutable n : int;               (* total observations, unbounded *)
  }

  let default_cap = 4096

  let create ?(cap = default_cap) () =
    if cap < 1 then invalid_arg "Reservoir.create: cap must be >= 1";
    { cap; sample = Array.make cap 0.; n = 0 }

  (* Splitmix-style finaliser: deterministic stand-in for randomness. *)
  let mix k =
    let z = ref ((k + 0x9e3779b9) land max_int) in
    z := (!z lxor (!z lsr 16)) * 0x21f0aaad land max_int;
    z := (!z lxor (!z lsr 15)) * 0x735a2d97 land max_int;
    (!z lxor (!z lsr 15)) land max_int

  let add t v =
    (if t.n < t.cap then t.sample.(t.n) <- v
     else
       let i = mix t.n mod (t.n + 1) in
       if i < t.cap then t.sample.(i) <- v);
    t.n <- t.n + 1

  let count t = t.n
  let cap t = t.cap
  let sampled t = min t.n t.cap
  let snapshot t = Array.sub t.sample 0 (sampled t)
end

type t = {
  jobs : int;
  queue_max : int;            (* admission high-water mark: shed beyond *)
  deadline_ms : int option;   (* server default per-request deadline *)
  deadline_cycles_per_ms : int;
      (* fuel budget implied by one wall millisecond of deadline — a
         conservative host-independent constant, NOT the live sim-rate
         probe, so whether a run is capped never depends on the machine *)
  store : Store.t option;
  cache : Epic.Toolchain.Compile_cache.t;
  pre_cache : Epic.Sim.Predecode.t Epic.Exec.Cache.t;
      (* raw-asm simulate requests: config fingerprint x image digest ->
         predecode (compile-based ops reuse the one in the artifacts) *)
  sim_rate : Epic.Experiments.sim_rate Lazy.t;
      (* host throughput probe: ~0.25s, forced on the first stats
         request, under [probe_mu] *)
  t_start : float;
  stat_mu : Mutex.t;
      (* guards every mutable counter below plus the latency reservoir —
         they are touched from every reader thread and every worker *)
  probe_mu : Mutex.t;
      (* serialises forcing the sim_rate probe: [Lazy.force] is not
         safe to race, and concurrent stats requests would *)
  inflight : (string * bool, int) result Epic.Exec.Cache.t;
      (* cross-client in-flight deduplication, keyed by
         {!Protocol.cache_key}: the disk store collapses repeated
         requests, this collapses concurrent ones.  A value is
         [Ok (payload, from_disk)] or [Error ms] for a missed deadline. *)
  mutable n_ok : int;
  mutable n_err : int;
  mutable n_disk_served : int;      (* ok responses spliced from disk *)
  mutable n_admitted : int;         (* work requests accepted for service *)
  mutable n_shed : int;             (* work requests rejected on overload *)
  mutable n_deadline : int;         (* requests that missed their deadline *)
  mutable n_dedup : int;            (* responses shared from an in-flight twin *)
  mutable n_fanout : int;           (* requests granted intra-request jobs > 1 *)
  mutable outstanding : int;        (* work admitted, response not yet written *)
  mutable op_counts : (string * int) list;
  lat : Reservoir.t;                (* per work request, service+wait, bounded *)
  mutable q_max : int;              (* deepest admission depth seen *)
}

let create ?(jobs = Epic.Exec.default_jobs ()) ?(queue_max = 256) ?deadline_ms
    ?(deadline_cycles_per_ms = 10_000) ?store () =
  if jobs < 1 then invalid_arg "Epic_serve.Server.create: jobs must be >= 1";
  if queue_max < 1 then
    invalid_arg "Epic_serve.Server.create: queue_max must be >= 1";
  (match deadline_ms with
   | Some ms when ms < 0 ->
     invalid_arg "Epic_serve.Server.create: deadline_ms must be >= 0"
   | _ -> ());
  if deadline_cycles_per_ms < 1 then
    invalid_arg "Epic_serve.Server.create: deadline_cycles_per_ms must be >= 1";
  { jobs; queue_max; deadline_ms; deadline_cycles_per_ms; store;
    cache = Epic.Toolchain.Compile_cache.create ();
    pre_cache = Epic.Exec.Cache.create ~name:"predecode" ();
    sim_rate = lazy (Epic.Experiments.sim_rate ());
    t_start = Epic.Exec.now ();
    stat_mu = Mutex.create (); probe_mu = Mutex.create ();
    inflight = Epic.Exec.Cache.create ~name:"inflight" ();
    n_ok = 0; n_err = 0; n_disk_served = 0;
    n_admitted = 0; n_shed = 0; n_deadline = 0; n_dedup = 0; n_fanout = 0;
    outstanding = 0;
    op_counts = []; lat = Reservoir.create (); q_max = 0 }

let locked t f =
  Mutex.lock t.stat_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.stat_mu) f

(* ------------------------------------------------------------------ *)
(* Deadlines.

   A work request's deadline is the client's [deadline_ms] if given,
   else the server default; [None] means unbounded.  Enforcement has
   three layers, none of which can leave a wall-clock value in a
   response (responses stay byte-deterministic):

   1. a wall-clock check when the request starts on a worker
      domain — a request that spent its whole budget queueing is
      answered [serve/deadline] without doing any work;
   2. a fuel cap on simulations: the deadline converts to a cycle
      budget ([deadline_cycles_per_ms] per millisecond, a fixed
      conservative constant) and a run that traps on fuel it would not
      otherwise have been given is reported as [serve/deadline] — and
      crucially never written to the cache, since the cap is a policy
      choice, not part of the result;
   3. wall-clock checks between the points of multi-point requests
      (explore-slice), the "between items" granularity.

   Timed-out requests get an error response like any other failure; the
   rest of the stream is unaffected. *)

exception Deadline_exceeded of int  (* the deadline, in ms *)

let deadline_diag ms =
  Diag.v ~code:"serve/deadline"
    ~context:[ ("deadline_ms", string_of_int ms) ]
    (Printf.sprintf "request exceeded its %d ms deadline" ms)

type dl = {
  dl_ms : int option;        (* effective deadline *)
  dl_expires : float option; (* absolute wall-clock expiry *)
}

let no_deadline = { dl_ms = None; dl_expires = None }

let deadline_of t ~enq (req_ms : int option) =
  match (match req_ms with Some _ -> req_ms | None -> t.deadline_ms) with
  | None -> no_deadline
  | Some ms ->
    { dl_ms = Some ms; dl_expires = Some (enq +. (float_of_int ms /. 1e3)) }

let check_deadline dl =
  match dl with
  | { dl_ms = Some ms; dl_expires = Some e } when Epic.Exec.now () >= e ->
    raise (Deadline_exceeded ms)
  | _ -> ()

(* Run a simulation under the deadline's fuel budget.  If the caller's
   own fuel (or the simulator default) is already tighter than the
   deadline's cycle budget, the run is untouched — its fuel trap, if
   any, is a legitimate, cacheable result.  Only when the deadline
   tightens the budget does a fuel trap mean "deadline exceeded". *)
let run_fueled t dl ~user_fuel (run : int option -> Epic.Sim.result) =
  match dl.dl_ms with
  | None -> run user_fuel
  | Some ms ->
    let cap = ms * t.deadline_cycles_per_ms in
    let own = match user_fuel with Some f -> f | None -> Epic.Sim.default_fuel in
    if own <= cap then run user_fuel
    else
      let r = run (Some cap) in
      (match r.Epic.Sim.trap with
       | Some { Epic.Sim.tr_cause = Epic.Sim.T_fuel; _ } ->
         raise (Deadline_exceeded ms)
       | _ -> r)

(* ------------------------------------------------------------------ *)
(* Result payload builders: deterministic functions of the request —
   never include wall time, cache state or anything machine-dependent,
   so the serialised payload is cacheable and replays byte-identically. *)

let json_of_trap = function
  | None -> J.Null
  | Some (tr : Epic.Sim.trap) ->
    J.Str (Epic.Sim.string_of_trap_cause tr.Epic.Sim.tr_cause)

let entry_of (image : Epic.Asm.Aunit.image) =
  match List.assoc_opt "_start" image.Epic.Asm.Aunit.im_symbols with
  | Some e -> e
  | None -> 0

let compile_result t dl (c : P.compile_req) =
  let source = P.resolve_source c.P.c_source in
  let a =
    Epic.Toolchain.compile_epic ~opt:c.P.c_opt ~predication:c.P.c_predication
      ~unroll:c.P.c_unroll ~cache:t.cache c.P.c_config ~source ()
  in
  check_deadline dl;
  let r =
    run_fueled t dl ~user_fuel:c.P.c_fuel (fun fuel ->
        Epic.Toolchain.run_epic ?fuel a)
  in
  let area = Epic.Area.estimate c.P.c_config in
  J.Obj
    [ ("ret", J.Int r.Epic.Sim.ret);
      ("trap", json_of_trap r.Epic.Sim.trap);
      ("stats", Epic.Profile.stats_to_json r.Epic.Sim.stats);
      ( "sched",
        J.Obj
          [ ("blocks", J.Int a.Epic.Toolchain.ea_sched.Epic.Sched.Sched.st_blocks);
            ("insts", J.Int a.Epic.Toolchain.ea_sched.Epic.Sched.Sched.st_insts);
            ("bundles", J.Int a.Epic.Toolchain.ea_sched.Epic.Sched.Sched.st_bundles)
          ] );
      ("slices", J.Int area.Epic.Area.slices);
      ("clock_mhz", J.Float area.Epic.Area.clock_mhz) ]

let simulate_result t dl (s : P.simulate_req) =
  if s.P.s_mem_bytes <= 0 then
    Diag.raisef ~code:"serve/request" "simulate: mem_bytes must be positive";
  let image, _words = Epic.Asm.assemble_text s.P.s_config s.P.s_asm in
  (* One predecode per (config x instruction stream), shared across the
     whole request stream — a re-submitted scenario skips decode entirely. *)
  let key =
    Epic.Config.fingerprint s.P.s_config ^ "|"
    ^ Epic.Sim.Predecode.image_digest image
  in
  let pre =
    Epic.Exec.Cache.find_or_add t.pre_cache key (fun () ->
        Epic.Sim.Predecode.of_image s.P.s_config image)
  in
  let mem = Bytes.make s.P.s_mem_bytes '\000' in
  let r =
    run_fueled t dl ~user_fuel:s.P.s_fuel (fun fuel ->
        Epic.Sim.run ?fuel ~pre s.P.s_config ~image ~mem
          ~entry:(entry_of image) ())
  in
  J.Obj
    [ ("ret", J.Int r.Epic.Sim.ret);
      ("trap", json_of_trap r.Epic.Sim.trap);
      ("stats", Epic.Profile.stats_to_json r.Epic.Sim.stats) ]

let fault_result t ~jobs (f : P.fault_req) =
  let source = P.resolve_source f.P.fc_source in
  let a =
    Epic.Toolchain.compile_epic ~cache:t.cache f.P.fc_config ~source ()
  in
  let rp =
    Epic.Toolchain.fault_campaign ~jobs ~seed:f.P.fc_seed ~runs:f.P.fc_runs
      ~targets:f.P.fc_targets ~fuel_factor:f.P.fc_fuel_factor a
  in
  Epic.Fault.report_to_json rp

let fuzz_result ~jobs (f : P.fuzz_req) =
  let r =
    Epic.Difftest.fuzz ~jobs ~shrink:f.P.fz_shrink ~kinds:f.P.fz_kinds
      ~seed:f.P.fz_seed ~cases:f.P.fz_cases ()
  in
  J.Obj
    [ ("cases", J.Int r.Epic.Difftest.r_cases);
      ("mir", J.Int r.Epic.Difftest.r_mir);
      ("asm", J.Int r.Epic.Difftest.r_asm);
      ("enc", J.Int r.Epic.Difftest.r_enc);
      ( "findings",
        J.List
          (List.map
             (fun (f : Epic.Difftest.finding) ->
               J.Obj
                 [ ("case", J.Int f.Epic.Difftest.f_case);
                   ( "kind",
                     J.Str (Epic.Difftest.string_of_kind f.Epic.Difftest.f_kind)
                   );
                   ("class", J.Str f.Epic.Difftest.f_class);
                   ("engine", J.Str f.Epic.Difftest.f_engine);
                   ("detail", J.Str f.Epic.Difftest.f_detail) ])
             r.Epic.Difftest.r_findings) ) ]

let explore_result t dl (e : P.explore_req) =
  let source = P.resolve_source e.P.ex_source in
  let points =
    List.concat_map
      (fun issue ->
        List.map
          (fun alus ->
            (* The between-items deadline check of a multi-point
               request: an expired slice stops before its next point. *)
            check_deadline dl;
            let cfg =
              { Epic.Config.default with Epic.Config.n_alus = alus;
                issue_width = issue }
            in
            match Epic.Config.validate cfg with
            | Error ds ->
              J.Obj
                [ ("alus", J.Int alus); ("issue", J.Int issue);
                  ("invalid", J.Str (Diag.to_string_list ds)) ]
            | Ok () ->
              let a = Epic.Toolchain.compile_epic ~cache:t.cache cfg ~source () in
              let r = Epic.Toolchain.run_epic a in
              let area = Epic.Area.estimate cfg in
              let cycles = r.Epic.Sim.stats.Epic.Sim.cycles in
              J.Obj
                [ ("alus", J.Int alus); ("issue", J.Int issue);
                  ("cycles", J.Int cycles);
                  ("slices", J.Int area.Epic.Area.slices);
                  ("brams", J.Int area.Epic.Area.brams);
                  ("clock_mhz", J.Float area.Epic.Area.clock_mhz);
                  ( "millis",
                    J.Float
                      (float_of_int cycles /. (area.Epic.Area.clock_mhz *. 1e3))
                  ) ])
          e.P.ex_alus)
      e.P.ex_issues
  in
  J.Obj [ ("points", J.List points) ]

(* Adaptive intra-request fan-out.  Fault campaigns and fuzz batches are
   internally parallel and documented byte-identical for any jobs value
   (pre-drawn PRNG streams) — so when such a request is effectively
   alone (nothing else in flight), serialising it on one worker wastes
   the whole pool.  The policy: alone on a multi-job server, the
   request gets the full pool; under load it runs on one domain and
   request-level parallelism does the work.  The decision is taken at
   production time, so a cached or deduplicated response never pays it,
   and either way the bytes match. *)
let intra_jobs t (op : P.op) =
  match op with
  | (P.Fault_campaign _ | P.Fuzz_batch _) when t.jobs > 1 ->
    if locked t (fun () -> t.outstanding) <= 1 then t.jobs else 1
  | _ -> 1

let work_payload t dl ~jobs (op : P.op) =
  let j =
    match op with
    | P.Compile c -> compile_result t dl c
    | P.Simulate s -> simulate_result t dl s
    | P.Fault_campaign f -> fault_result t ~jobs f
    | P.Fuzz_batch f -> fuzz_result ~jobs f
    | P.Explore_slice e -> explore_result t dl e
    | P.Stats | P.Shutdown -> assert false
  in
  J.to_string j

(* Every toolchain failure a bad request can provoke, rendered as a
   structured diagnostic for the error response.  The catch-all matters:
   a long-running daemon answers what it cannot serve; it never dies on
   one request. *)
let diag_of_exn = function
  | Diag.Error d -> d
  | Epic.Asm.Asm_error d | Epic.Encoding.Encode_error d | Epic.Sim.Sim_error d ->
    d
  | Epic.Cfront.Error m -> Diag.v ~code:"serve/compile" m
  | Epic.Opt.Pipeline.Error m -> Diag.v ~code:"serve/pipeline" m
  | Epic.Sched.Codegen.Codegen_error m -> Diag.v ~code:"serve/codegen" m
  | Failure m -> Diag.v ~code:"serve/failure" m
  | Invalid_argument m -> Diag.v ~code:"serve/invalid" m
  | P.Bad d -> d
  | (Stack_overflow | Out_of_memory | Assert_failure _) as e -> raise e
  | e -> Diag.v ~code:"serve/op" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Request evaluation *)

type queued = {
  qu_req : (P.request, Diag.t) result;
  qu_enq : float;
  qu_dl : dl;                                 (* resolved deadline *)
}

type evaluated = {
  ev_line : string;   (* complete response line *)
  ev_op : string;
  ev_ok : bool;
  ev_disk : bool;
  ev_deadline : bool; (* the error was a missed deadline *)
  ev_ms : float;
}

(* Evaluate [produce] once per key across concurrent requests.  A
   request that shares another's outcome counts a dedup hit and leaves
   the disk flag with the producer, so stats never double-count.  A
   deadline miss is the producer's own budget, not a property of the
   request: a waiter handed someone else's miss re-runs the protocol and
   typically becomes the next producer. *)
let rec dedup t key produce =
  let ran = ref false in
  let shared () =
    if not !ran then locked t (fun () -> t.n_dedup <- t.n_dedup + 1)
  in
  match
    Epic.Exec.Cache.share t.inflight key (fun () ->
        ran := true;
        match produce () with
        | v -> Ok v
        | exception Deadline_exceeded ms -> Error ms)
  with
  | Ok (payload, disk) ->
    shared ();
    (payload, disk && !ran)
  | Error ms when !ran -> raise (Deadline_exceeded ms)
  | Error _ -> dedup t key produce
  | exception e ->
    shared ();
    raise e

let eval t (q : queued) : evaluated =
  let finish ?(deadline = false) ~op ~ok ~disk line =
    { ev_line = line; ev_op = op; ev_ok = ok; ev_disk = disk;
      ev_deadline = deadline; ev_ms = (Epic.Exec.now () -. q.qu_enq) *. 1e3 }
  in
  match q.qu_req with
  | Error d ->
    finish ~op:"invalid" ~ok:false ~disk:false (P.error_response ~id:None d)
  | Ok { P.rq_id = id; rq_op = op; _ } ->
    let opn = P.op_name op in
    (* The fan-out decision happens only when the payload is actually
       produced — a disk hit or a dedup share never records one. *)
    let produce () =
      let jobs = intra_jobs t op in
      if jobs > 1 then locked t (fun () -> t.n_fanout <- t.n_fanout + 1);
      work_payload t q.qu_dl ~jobs op
    in
    let produce_stored () =
      match (t.store, P.cache_key op) with
      | Some st, Some key -> Store.find_or_add st ~key produce
      | _ -> (produce (), false)
    in
    (match
       (* The dispatch-time wall-clock check: a request whose whole
          budget was spent queueing is answered without doing work.  A
          timed-out computation is never cached — [find_or_add]'s
          producer raising leaves no entry behind. *)
       check_deadline q.qu_dl;
       match P.cache_key op with
       | Some key -> dedup t key produce_stored
       | None -> produce_stored ()
     with
     | payload, disk ->
       finish ~op:opn ~ok:true ~disk (P.ok_response ~id ~result:payload)
     | exception Deadline_exceeded ms ->
       finish ~op:opn ~ok:false ~disk:false ~deadline:true
         (P.error_response ~id (deadline_diag ms))
     | exception e ->
       finish ~op:opn ~ok:false ~disk:false
         (P.error_response ~id (diag_of_exn e)))

(* Callers hold [stat_mu]. *)
let bump_counter t op =
  t.op_counts <-
    (match List.assoc_opt op t.op_counts with
     | None -> (op, 1) :: t.op_counts
     | Some n -> (op, n + 1) :: List.remove_assoc op t.op_counts)

let bump t op = locked t (fun () -> bump_counter t op)

(* Called as the response is written, which is also when its admission
   slot is released. *)
let record t (e : evaluated) =
  locked t (fun () ->
      t.outstanding <- t.outstanding - 1;
      if e.ev_ok then t.n_ok <- t.n_ok + 1 else t.n_err <- t.n_err + 1;
      if e.ev_disk then t.n_disk_served <- t.n_disk_served + 1;
      if e.ev_deadline then t.n_deadline <- t.n_deadline + 1;
      bump_counter t e.ev_op;
      Reservoir.add t.lat e.ev_ms)

(* ------------------------------------------------------------------ *)
(* Statistics *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))

(* Percentiles come from the bounded reservoir: exact below the cap,
   sampled beyond it; [count] stays the true total so throughput math is
   unaffected, and [sampled]/[reservoir_cap] make the bound visible. *)
let latency_json t =
  let sorted = Reservoir.snapshot t.lat in
  Array.sort compare sorted;
  J.Obj
    [ ("count", J.Int (Reservoir.count t.lat));
      ("sampled", J.Int (Reservoir.sampled t.lat));
      ("reservoir_cap", J.Int (Reservoir.cap t.lat));
      ("p50_ms", J.Float (percentile sorted 50.));
      ("p95_ms", J.Float (percentile sorted 95.));
      ("p99_ms", J.Float (percentile sorted 99.));
      ("max_ms", J.Float (if Array.length sorted = 0 then 0. else sorted.(Array.length sorted - 1))) ]

(* The ~0.25s throughput probe is forced outside [stat_mu] (workers must
   not stall on a stats request) but under its own lock: concurrent
   stats requests racing [Lazy.force] would be undefined behaviour. *)
let sim_rate_json t =
  Mutex.lock t.probe_mu;
  let r = (try Ok (Lazy.force t.sim_rate) with e -> Error e) in
  Mutex.unlock t.probe_mu;
  match r with
  | Ok v -> Epic.Experiments.sim_rate_to_json v
  | Error e -> raise e

let stats_json t =
  let sim_rate = sim_rate_json t in
  locked t @@ fun () ->
  J.Obj
    [ ("uptime_s", J.Float (Epic.Exec.now () -. t.t_start));
      ("jobs", J.Int t.jobs);
      ("served", J.Int (t.n_ok + t.n_err));
      ("ok", J.Int t.n_ok);
      ("errors", J.Int t.n_err);
      ("ops", J.Obj (List.rev_map (fun (k, n) -> (k, J.Int n)) t.op_counts));
      ("latency", latency_json t);
      ("queue_depth_max", J.Int t.q_max);
      ("queue_max", J.Int t.queue_max);
      ("admitted", J.Int t.n_admitted);
      ("shed", J.Int t.n_shed);
      ("in_flight", J.Int t.outstanding);
      ("dedup_hits", J.Int t.n_dedup);
      ("intra_fanout", J.Int t.n_fanout);
      ("deadline_timeouts", J.Int t.n_deadline);
      ( "deadline_ms",
        match t.deadline_ms with None -> J.Null | Some ms -> J.Int ms );
      ("disk_served", J.Int t.n_disk_served);
      ("sim_rate", sim_rate);
      ( "predecode_cache",
        Epic.Exec.Cache.stats_to_json (Epic.Exec.Cache.stats t.pre_cache) );
      ( "disk_cache",
        match t.store with None -> J.Null | Some st -> Store.stats_to_json st );
      ( "compile_cache",
        J.Obj
          (List.map
             (fun (name, s) -> (name, Epic.Exec.Cache.stats_to_json s))
             (Epic.Toolchain.Compile_cache.stats t.cache)) ) ]

(* ------------------------------------------------------------------ *)
(* The serve loop over an abstract line transport.

   One reader per connection; the heavy work lives on a shared
   {!Epic.Exec.Workq}.  Each admitted request gets a completion cell in
   the connection's FIFO and a task on the queue; responses are emitted
   strictly in cell order, which keeps a connection's response stream
   byte-identical for any [--jobs].  Admission compares the {e global}
   count of admitted-but-unwritten responses against [queue_max], since
   the queue being protected is the shared one; on a single connection
   shedding therefore depends only on the request stream.  Control
   requests drain only their own connection's FIFO, then answer inline;
   cross-client coincidences of the same request are collapsed by
   [dedup] inside [eval]. *)

type io = {
  next_line : unit -> string option;  (* blocking; None = end of input *)
  pending : unit -> bool;     (* more input available without blocking? *)
  emit : string -> unit;              (* send one response line *)
}

type stop = Eof | Shutdown_requested

let overload_diag t ~depth =
  Diag.v ~code:"serve/overload"
    ~context:
      [ ("queue_depth", string_of_int depth);
        ("queue_max", string_of_int t.queue_max) ]
    (Printf.sprintf
       "admission queue full (%d queued, high-water mark %d); back off and \
        retry"
       depth t.queue_max)

type cell = { mutable c_out : (evaluated, exn) result option }

(* Responses a connection may hold back while its reader keeps taking
   pipelined input; at this many the reader drains its FIFO first. *)
let fifo_max = 64

let serve t ~(pool : Epic.Exec.Workq.t) io : stop =
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let inflight : cell Queue.t = Queue.create () in
  let await cell =
    Mutex.lock mu;
    while cell.c_out = None do
      Condition.wait cond mu
    done;
    let r = Option.get cell.c_out in
    Mutex.unlock mu;
    r
  in
  (* A cell leaves the FIFO only as its response is written, so the
     [finally] below can release the admission slot of every response
     this connection never wrote. *)
  let flush () =
    while not (Queue.is_empty inflight) do
      match await (Queue.peek inflight) with
      | Error x -> raise x
      | Ok e ->
        ignore (Queue.pop inflight);
        record t e;
        io.emit e.ev_line
    done
  in
  let submit q =
    let cell = { c_out = None } in
    Queue.push cell inflight;
    Epic.Exec.Workq.submit pool (fun () ->
        let r = (match eval t q with e -> Ok e | exception x -> Error x) in
        Mutex.lock mu;
        cell.c_out <- Some r;
        Condition.broadcast cond;
        Mutex.unlock mu)
  in
  (* [Some depth] when the request must be shed. *)
  let admit () =
    locked t (fun () ->
        if t.outstanding >= t.queue_max then begin
          t.n_shed <- t.n_shed + 1;
          bump_counter t "shed";
          Some t.outstanding
        end
        else begin
          t.n_admitted <- t.n_admitted + 1;
          t.outstanding <- t.outstanding + 1;
          t.q_max <- max t.q_max t.outstanding;
          None
        end)
  in
  let rec loop () =
    match io.next_line () with
    | None ->
      flush ();
      Eof
    | Some line ->
      let enq = Epic.Exec.now () in
      let req = P.request_of_line line in
      (match req with
       | Ok { P.rq_id = id; rq_op = (P.Stats | P.Shutdown) as op; _ } ->
         flush ();
         bump t (P.op_name op);
         io.emit (P.ok_response ~id ~result:(J.to_string (stats_json t)));
         if op = P.Shutdown then Shutdown_requested else loop ()
       | _ ->
         (match admit () with
          | Some depth ->
            (* Overload shedding: above the high-water mark every new
               work request (or unparseable line) is rejected
               {e immediately} — ahead of the queued work, out of
               request order, which is why responses carry ids — so a
               client learns to back off in microseconds instead of
               waiting behind the queue it is trying to add to. *)
            let id = match req with Ok r -> r.P.rq_id | Error _ -> None in
            io.emit (P.error_response ~id (overload_diag t ~depth))
          | None ->
            let dl =
              deadline_of t ~enq
                (match req with
                 | Ok r -> r.P.rq_deadline_ms
                 | Error _ -> None)
            in
            submit { qu_req = req; qu_enq = enq; qu_dl = dl };
            if Queue.length inflight >= fifo_max || not (io.pending ()) then
              flush ());
         loop ())
  in
  Fun.protect loop ~finally:(fun () ->
      let unwritten = Queue.length inflight in
      if unwritten > 0 then
        locked t (fun () -> t.outstanding <- t.outstanding - unwritten))

let with_pool t f =
  let pool = Epic.Exec.Workq.create ~jobs:t.jobs () in
  Fun.protect ~finally:(fun () -> Epic.Exec.Workq.shutdown pool) (fun () ->
      f pool)

(* In-memory transport: the whole request list is one pending stream, so
   the FIFO and control barriers behave exactly as they do on a pipe
   under load.  Used by the tests and epicload's in-process mode. *)
let serve_strings t lines =
  let rem = ref lines in
  let out = ref [] in
  let io =
    { next_line =
        (fun () ->
          match !rem with [] -> None | x :: r -> rem := r; Some x);
      pending = (fun () -> !rem <> []);
      emit = (fun s -> out := s :: !out) }
  in
  ignore (with_pool t (fun pool -> serve t ~pool io));
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Pipe / socket transports.

   The reader works on the raw file descriptor with its own buffer, so
   "is more input pending?" is answerable: a buffered newline, or the
   descriptor selecting readable.  (A stdlib in_channel would read
   ahead invisibly and hide pending input from the serve loop.) *)

module Line_reader = struct
  type r = {
    fd : Unix.file_descr;
    chunk : Bytes.t;
    mutable buf : Buffer.t;
    mutable eof : bool;
    max_line : int;
    mutable over : string option;
        (* Some prefix: the current line blew past [max_line]; the
           prefix (max_line + 1 bytes, enough for the serve/oversized
           verdict) is retained and everything else is discarded until
           the terminating newline.  Bounds memory at ~max_line + one
           chunk no matter what a client streams at us. *)
  }

  let create ?(max_line = P.max_line_bytes) fd =
    { fd; chunk = Bytes.create 65536; buf = Buffer.create 65536; eof = false;
      max_line; over = None }

  let refill r =
    match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
    | 0 -> r.eof <- true
    | n -> Buffer.add_subbytes r.buf r.chunk 0 n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

  let take_line r =
    let s = Buffer.contents r.buf in
    match String.index_opt s '\n' with
    | Some i ->
      let line = String.sub s 0 i in
      r.buf <- Buffer.create 65536;
      Buffer.add_string r.buf (String.sub s (i + 1) (String.length s - i - 1));
      let line =
        if line <> "" && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      Some line
    | None -> None

  (* In discard mode: drop buffered bytes up to (and including) the next
     newline; returns true once the oversized line has ended. *)
  let drop_to_newline r =
    let s = Buffer.contents r.buf in
    match String.index_opt s '\n' with
    | Some i ->
      r.buf <- Buffer.create 65536;
      Buffer.add_string r.buf (String.sub s (i + 1) (String.length s - i - 1));
      true
    | None ->
      Buffer.clear r.buf;
      false

  let rec next_line r =
    match r.over with
    | Some prefix ->
      if drop_to_newline r then begin r.over <- None; Some prefix end
      else if r.eof then begin r.over <- None; Some prefix end
      else begin refill r; next_line r end
    | None ->
      (match take_line r with
       | Some line -> Some line
       | None ->
         if Buffer.length r.buf > r.max_line then begin
           (* The line is already over the frame limit; keep just enough
              bytes to prove it and shed the rest as it streams in. *)
           r.over <-
             Some (String.sub (Buffer.contents r.buf) 0 (r.max_line + 1));
           Buffer.clear r.buf;
           next_line r
         end
         else if r.eof then
           if Buffer.length r.buf > 0 then begin
             let line = Buffer.contents r.buf in
             Buffer.clear r.buf;
             Some line
           end
           else None
         else begin
           refill r;
           next_line r
         end)

  (* A complete buffered line, or bytes already readable on the fd:
     either way the serve loop should keep queueing before it flushes. *)
  let pending r =
    (not r.eof)
    && (String.contains (Buffer.contents r.buf) '\n'
        ||
        match Unix.select [ r.fd ] [] [] 0.0 with
        | [ _ ], _, _ -> true
        | _ -> false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false)
end

let io_of_fd in_fd oc =
  let r = Line_reader.create in_fd in
  { next_line = (fun () -> Line_reader.next_line r);
    pending = (fun () -> Line_reader.pending r);
    emit =
      (fun s ->
        output_string oc s;
        output_char oc '\n';
        flush oc) }

let run_pipe t ~in_fd ~out : stop =
  with_pool t (fun pool -> serve t ~pool (io_of_fd in_fd out))

(* Unix-socket mode: up to [max_conns] connections are served at once
   over one shared work queue; with [max_conns = 1] they are accepted
   strictly one at a time.  The accept loop polls with a short select
   timeout so it notices the stop flag; each connection runs its reader
   on a systhread (cheap blocking I/O — the heavy work lives on the
   queue's domains).  Shutdown drain: the connection that received the
   shutdown request answers it, then EOFs every peer's read side
   ([SHUTDOWN_RECEIVE] wakes a blocked read); peers flush their queued
   work — every admitted request is still answered — and exit on
   end-of-input.

   A broken client must not take the daemon down with it: SIGPIPE is
   ignored for the process (a write to a dead peer then surfaces as
   EPIPE / [Sys_error] instead of a fatal signal), and any exception on
   a connection — the peer resetting mid-request, vanishing before
   reading its responses, a handler error — is logged to stderr and
   costs that connection, never the daemon. *)
let run_socket ?(max_conns = 1) t ~path : stop =
  if max_conns < 1 then
    invalid_arg "Epic_serve.Server.run_socket: max_conns must be >= 1";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error (_, _, _) -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock (max 16 max_conns);
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error (_, _, _) -> ());
      try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
  @@ fun () ->
  with_pool t @@ fun pool ->
  let reg_mu = Mutex.create () in
  let conns : (int, Unix.file_descr) Hashtbl.t = Hashtbl.create 16 in
  let stop_flag = ref false in
  let next_id = ref 0 in
  let threads : Thread.t list ref = ref [] in
  let with_reg f =
    Mutex.lock reg_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock reg_mu) f
  in
  let eof_peers_locked () =
    Hashtbl.iter
      (fun _ fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error (_, _, _) -> ())
      conns
  in
  let handle cid conn =
    let oc = Unix.out_channel_of_descr conn in
    let stop =
      match serve t ~pool (io_of_fd conn oc) with
      | stop -> stop
      | exception
          (( Unix.Unix_error
               ( ( Unix.EPIPE | Unix.ECONNRESET | Unix.ENOTCONN
                 | Unix.ETIMEDOUT ),
                 _, _ )
           | Sys_error _ ) as e) ->
        Printf.eprintf "epicd: dropping client after connection error: %s\n%!"
          (Printexc.to_string e);
        Eof
      | exception e ->
        Printf.eprintf "epicd: dropping client after handler error: %s\n%!"
          (Printexc.to_string e);
        Eof
    in
    (try flush oc with Sys_error _ -> ());
    with_reg (fun () ->
        Hashtbl.remove conns cid;
        match stop with
        | Shutdown_requested ->
          stop_flag := true;
          eof_peers_locked ()
        | Eof -> ());
    try Unix.close conn with Unix.Unix_error (_, _, _) -> ()
  in
  let stopping () = with_reg (fun () -> !stop_flag) in
  let rec acceptor () =
    if stopping () then ()
    else if with_reg (fun () -> Hashtbl.length conns) >= max_conns then begin
      (* At capacity: let dial-ins wait in the listen backlog. *)
      Unix.sleepf 0.02;
      acceptor ()
    end
    else
      match Unix.select [ sock ] [] [] 0.05 with
      | [], _, _ -> acceptor ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> acceptor ()
      | _ ->
        (match Unix.accept sock with
         | conn, _ ->
           incr next_id;
           let cid = !next_id in
           with_reg (fun () -> Hashtbl.replace conns cid conn);
           threads := Thread.create (handle cid) conn :: !threads;
           acceptor ()
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> acceptor ())
  in
  acceptor ();
  (* A connection accepted in the same instant the stop flag was set
     missed the peer drain above — EOF it here before joining. *)
  with_reg eof_peers_locked;
  List.iter Thread.join !threads;
  Shutdown_requested
