(* Parallel campaign engine: Domain-based job pool with deterministic
   result ordering, plus a keyed memo cache for compiled artifacts.

   The pool is deliberately simple: a shared atomic counter hands out job
   indices, so idle domains keep pulling work (the load-balancing
   property of work stealing without per-domain deques — campaign jobs
   are coarse enough that the counter is never contended), and results
   are stored at their job's index.  Parallel runs are therefore
   bit-identical to sequential ones, including which exception surfaces
   when jobs fail. *)

module Json = Epic_profile.Json

let default_jobs () = Domain.recommended_domain_count ()

module Pool = struct
  let run_seq n f =
    if n = 0 then [||]
    else begin
      let results = Array.make n None in
      for i = 0 to n - 1 do
        results.(i) <- Some (f i)
      done;
      Array.map Option.get results
    end

  let run ?jobs n f =
    if n < 0 then invalid_arg "Epic_exec.Pool.run: negative job count";
    let jobs = match jobs with None -> default_jobs () | Some j -> j in
    let jobs = max 1 (min jobs n) in
    if jobs <= 1 then run_seq n f
    else begin
      let results = Array.make n None in
      let errors = Array.make n None in
      let next = Atomic.make 0 in
      let rec worker () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match f i with
           | v -> results.(i) <- Some v
           | exception e -> errors.(i) <- Some e);
          worker ()
        end
      in
      let helpers = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join helpers;
      (* Deterministic failure: surface the lowest-index exception, the
         one a sequential loop would have raised first. *)
      Array.iter (function Some e -> raise e | None -> ()) errors;
      Array.map Option.get results
    end

  let map ?jobs f xs =
    let a = Array.of_list xs in
    Array.to_list (run ?jobs (Array.length a) (fun i -> f a.(i)))
end

module Cache = struct
  type 'a state =
    | In_flight
    | Ready of 'a
    | Failed of exn

  (* Waiters hold the entry record itself, so an entry that [share]
     drops from the table on resolution still delivers its outcome. *)
  type 'a entry = { mutable state : 'a state }

  type stats = { hits : int; misses : int }

  type 'a t = {
    name : string;
    mutex : Mutex.t;
    cond : Condition.t;
    table : (string, 'a entry) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
  }

  let create ?(name = "cache") () =
    { name; mutex = Mutex.create (); cond = Condition.create ();
      table = Hashtbl.create 16; hits = 0; misses = 0 }

  (* First requester computes outside the lock; everyone else blocks on
     the condition until the entry resolves.  Exceptions are memoised so
     every requester of a failing key observes the same failure.  With
     [keep = false] the entry leaves the table as it resolves, so the
     key's lifetime is exactly one computation. *)
  let lookup ~keep t key f =
    Mutex.lock t.mutex;
    match Hashtbl.find_opt t.table key with
    | Some e ->
      t.hits <- t.hits + 1;
      let rec await () =
        match e.state with
        | In_flight ->
          Condition.wait t.cond t.mutex;
          await ()
        | Ready v ->
          Mutex.unlock t.mutex;
          v
        | Failed x ->
          Mutex.unlock t.mutex;
          raise x
      in
      await ()
    | None ->
      let e = { state = In_flight } in
      Hashtbl.replace t.table key e;
      t.misses <- t.misses + 1;
      Mutex.unlock t.mutex;
      let resolve st =
        Mutex.lock t.mutex;
        e.state <- st;
        if not keep then Hashtbl.remove t.table key;
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex
      in
      (match f () with
       | v -> resolve (Ready v); v
       | exception x -> resolve (Failed x); raise x)

  let find_or_add t key f = lookup ~keep:true t key f
  let share t key f = lookup ~keep:false t key f

  let stats t =
    Mutex.lock t.mutex;
    let s = { hits = t.hits; misses = t.misses } in
    Mutex.unlock t.mutex;
    s

  let name t = t.name

  let length t =
    Mutex.lock t.mutex;
    let n = Hashtbl.length t.table in
    Mutex.unlock t.mutex;
    n

  let reset t =
    Mutex.lock t.mutex;
    Hashtbl.reset t.table;
    t.hits <- 0;
    t.misses <- 0;
    Mutex.unlock t.mutex

  let snapshot = stats

  let reset_stats t =
    Mutex.lock t.mutex;
    t.hits <- 0;
    t.misses <- 0;
    Mutex.unlock t.mutex

  let hit_rate (s : stats) =
    let total = s.hits + s.misses in
    if total = 0 then 0. else float_of_int s.hits /. float_of_int total

  let stats_to_json (s : stats) =
    Json.Obj [ ("hits", Json.Int s.hits); ("misses", Json.Int s.misses) ]
end

(* ------------------------------------------------------------------ *)
(* Persistent worker pool.

   Pool.run spawns domains per call, which is right for campaigns (one
   big fan-out, then done) but wrong for a server: a long-lived daemon
   dispatching small requests would pay domain startup on every one.
   Workq keeps [jobs] domains alive for the lifetime of the queue; any
   thread may submit thunks, and idle workers pick them up in FIFO
   order.  Completion is the submitter's business (the thunk writes to
   a completion cell and signals its own condition variable), which is
   what lets one queue serve many independent submitters — the
   daemon's connections — without the queue knowing about response
   routing. *)

module Workq = struct
  type t = {
    mu : Mutex.t;
    cond : Condition.t;          (* a task arrived, or stop was set *)
    tasks : (unit -> unit) Queue.t;
    mutable stop : bool;
    mutable workers : unit Domain.t list;
  }

  let rec worker t =
    Mutex.lock t.mu;
    while Queue.is_empty t.tasks && not t.stop do
      Condition.wait t.cond t.mu
    done;
    if Queue.is_empty t.tasks then Mutex.unlock t.mu (* stop, queue drained *)
    else begin
      let task = Queue.pop t.tasks in
      Mutex.unlock t.mu;
      (* A task must handle its own exceptions (the daemon's tasks
         resolve their completion cell with the exception); a raise
         escaping here would silently kill a worker, so the last-resort
         catch keeps the pool at full strength no matter what. *)
      (try task () with _ -> ());
      worker t
    end

  let create ?jobs () =
    let jobs = match jobs with None -> default_jobs () | Some j -> j in
    if jobs < 1 then invalid_arg "Epic_exec.Workq.create: jobs must be >= 1";
    let t =
      { mu = Mutex.create (); cond = Condition.create ();
        tasks = Queue.create (); stop = false; workers = [] }
    in
    t.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker t));
    t

  let submit t task =
    Mutex.lock t.mu;
    if t.stop then begin
      Mutex.unlock t.mu;
      invalid_arg "Epic_exec.Workq.submit: queue is shut down"
    end;
    Queue.push task t.tasks;
    Condition.signal t.cond;
    Mutex.unlock t.mu

  (* Graceful: pending tasks still run; workers exit once the queue is
     empty. *)
  let shutdown t =
    Mutex.lock t.mu;
    t.stop <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mu;
    List.iter Domain.join t.workers
end

(* ------------------------------------------------------------------ *)
(* Campaign reporting.                                                 *)

type campaign_stats = {
  cs_label : string;
  cs_jobs : int;
  cs_tasks : int;
  cs_wall_s : float;
  cs_caches : (string * Cache.stats) list;
  cs_notes : (string * int) list;
}

let now () = Unix.gettimeofday ()

let pp_campaign_stats ppf cs =
  Format.fprintf ppf "%s: %d jobs on %d domain%s in %.2fs" cs.cs_label
    cs.cs_tasks cs.cs_jobs
    (if cs.cs_jobs = 1 then "" else "s")
    cs.cs_wall_s;
  List.iter
    (fun (name, (s : Cache.stats)) ->
      Format.fprintf ppf "; %s %d/%d hits" name s.Cache.hits
        (s.Cache.hits + s.Cache.misses))
    cs.cs_caches;
  List.iter
    (fun (name, v) -> Format.fprintf ppf "; %s %d" name v)
    cs.cs_notes

(* The stats-on-stderr convention in one place: stdout stays
   byte-identical across --jobs values; wall time and cache traffic go
   to stderr.  Cache counters are read after [f] so a campaign's own
   compiles are included. *)
let run_campaign ?(quiet = false) ~label ~jobs ?caches ?(notes = fun _ -> [])
    ~tasks f =
  let t0 = now () in
  let result = f () in
  let cs =
    { cs_label = label; cs_jobs = jobs; cs_tasks = tasks result;
      cs_wall_s = now () -. t0;
      cs_caches = (match caches with None -> [] | Some g -> g ());
      cs_notes = notes result }
  in
  if not quiet then Format.eprintf "%a@." pp_campaign_stats cs;
  (result, cs)

let campaign_stats_to_json cs =
  Json.Obj
    [ ("label", Json.Str cs.cs_label);
      ("jobs", Json.Int cs.cs_jobs);
      ("tasks", Json.Int cs.cs_tasks);
      ("wall_seconds", Json.Float cs.cs_wall_s);
      ( "caches",
        Json.Obj
          (List.map
             (fun (name, s) -> (name, Cache.stats_to_json s))
             cs.cs_caches) );
      ( "notes",
        Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) cs.cs_notes) ) ]

(* ------------------------------------------------------------------ *)
(* Retry backoff *)

module Backoff = struct
  (* Deterministic exponential backoff: clients that retry a shed or
     timed-out request must not retry in lockstep (they would overload
     the server again at the same instant), yet campaign tools must stay
     reproducible.  The jitter is therefore a pure function of
     (seed, key, attempt) — splitmix-style integer mixing — so a seeded
     run always sleeps the same amounts, while distinct request keys
     spread out within each attempt's window. *)

  let mix seed key attempt =
    let h = ref (seed lxor (key * 0x9e3779b9) lxor (attempt * 0x85ebca6b)) in
    h := !h lxor (!h lsr 16);
    h := !h * 0x21f0aaad land max_int;
    h := !h lxor (!h lsr 15);
    h := !h * 0x735a2d97 land max_int;
    h := !h lxor (!h lsr 15);
    !h land max_int

  let delay_ms ?(base_ms = 25.) ?(cap_ms = 2_000.) ~seed ~key ~attempt () =
    if attempt < 1 then 0.
    else
      let window = Float.min cap_ms (base_ms *. Float.pow 2. (float_of_int (attempt - 1))) in
      (* Full jitter: uniform in (0, window], never 0 so a retry always
         yields the CPU to the server at least briefly. *)
      let u =
        float_of_int (1 + (mix seed key attempt mod 1_000_000)) /. 1_000_000.
      in
      window *. u
end
