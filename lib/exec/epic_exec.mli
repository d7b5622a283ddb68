(** Parallel campaign engine: a Domain-based job pool with deterministic
    result ordering, and a keyed memo cache for compiled artifacts.

    Every campaign in the repository — [epic_explore] sweeps, [bench]
    tables, [epicfault] injection runs — is a set of hundreds of
    independent simulations.  {!Pool} fans them out across OCaml 5
    domains while keeping the observable output {e bit-identical} to a
    sequential run: jobs are identified by their index, results land in
    an index-keyed array, and the first (lowest-index) failure is the one
    re-raised, exactly as a sequential loop would.

    {b Immutability contract.}  The pool provides no isolation: job
    functions run concurrently in one heap.  Callers must only share
    read-only data between jobs.  The toolchain's artifacts honour this
    contract ({!Epic_sim.run} never writes the image or the
    configuration — see its interface; fault injection copies the image
    and memory per run), which is what makes the campaign layers safe to
    parallelise.  Requires OCaml >= 5.0 ([Domain]). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the default for every [--jobs]
    flag. *)

module Pool : sig
  val run : ?jobs:int -> int -> (int -> 'a) -> 'a array
  (** [run ~jobs n f] computes [[| f 0; ...; f (n-1) |]].  With
      [jobs <= 1] (or [n <= 1]) this is a plain sequential loop in index
      order.  Otherwise [jobs] domains (capped at [n]) self-schedule job
      indices from a shared queue — idle domains keep pulling work, so
      load balances like work stealing — and each result is stored at its
      job's index: the returned array never depends on execution order.

      If jobs raise, the remaining jobs still run, and the exception of
      the {e lowest-index} failing job is re-raised — the same exception
      a sequential loop would have surfaced first.  [jobs] defaults to
      {!default_jobs}.
      @raise Invalid_argument on [n < 0]. *)

  val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
  (** [map ~jobs f xs] is [List.map f xs] evaluated by {!run}: same
      order, same first-error semantics. *)
end

module Cache : sig
  type 'a t
  (** A domain-safe memo table from string keys to values.  Concurrent
      lookups of the same key block until the first requester finishes
      computing, so a value is computed once per key — including when a
      parallel sweep requests it from every domain at the same time.  A
      computation that raises is also memoised: every requester of that
      key re-raises the same exception (deterministic failures). *)

  type stats = { hits : int; misses : int }

  val create : ?name:string -> unit -> 'a t
  (** [name] (default ["cache"]) labels the stats in reports. *)

  val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a
  (** [find_or_add t key f] returns the cached value for [key], computing
      it with [f] on the first request.  A hit returns the physically
      identical value.  Waiting for an in-flight computation counts as a
      hit. *)

  val share : 'a t -> string -> (unit -> 'a) -> 'a
  (** [share t key f] is {!find_or_add} without retention: concurrent
      requesters of [key] still wait for the one computation of [f] and
      share its value or exception, but the entry is dropped as soon as
      [f] resolves, so a later request computes afresh.  This is the
      serving daemon's in-flight deduplication table. *)

  val stats : 'a t -> stats
  val name : 'a t -> string
  val length : 'a t -> int
  val reset : 'a t -> unit
  (** Drop every entry and zero the counters. *)

  val snapshot : 'a t -> stats
  (** Atomic read of the hit/miss counters (alias of {!stats}, named for
      observation points: the serving daemon and the tests take
      snapshots before and after a batch and diff them, never peeking at
      internals). *)

  val reset_stats : 'a t -> unit
  (** Zero the hit/miss counters but keep every cached entry — the
      warm-cache observation primitive: reset, replay, snapshot. *)

  val hit_rate : stats -> float
  (** [hits / (hits + misses)]; [0.] when no traffic was recorded. *)

  val stats_to_json : stats -> Epic_profile.Json.t
end

module Workq : sig
  (** A {e persistent} worker pool: [jobs] domains that outlive any one
      fan-out.  {!Pool} spawns domains per call — right for campaigns,
      wrong for a long-running daemon dispatching small requests.  Any
      thread (systhread or domain) may {!submit} thunks; idle workers
      execute them in FIFO submission order.  Completion signalling is
      the submitter's job: a task typically writes a completion cell and
      signals the submitter's own condition variable, which is what lets
      one queue serve many independent submitters (the serving
      daemon's connections) without the queue knowing about response
      routing.

      Tasks must not let exceptions escape (the pool swallows them as a
      last resort so a worker can never die); wrap the real work and
      route failures through the completion cell. *)

  type t

  val create : ?jobs:int -> unit -> t
  (** Spawn [jobs] (default {!default_jobs}) worker domains.
      @raise Invalid_argument on [jobs < 1]. *)

  val submit : t -> (unit -> unit) -> unit
  (** Enqueue a task.  @raise Invalid_argument after {!shutdown}. *)

  val shutdown : t -> unit
  (** Graceful stop: pending tasks still run, workers exit once the
      queue drains, and every worker domain is joined. *)
end

module Backoff : sig
  (** Deterministic retry backoff for clients of an overloaded service
      (the [epicload] retry policy, the chaos harness).  Exponential
      windows with {e seeded} full jitter: the delay is a pure function
      of [(seed, key, attempt)], so replayed campaigns sleep identical
      amounts while distinct request keys de-synchronise within each
      window. *)

  val delay_ms :
    ?base_ms:float ->
    ?cap_ms:float ->
    seed:int ->
    key:int ->
    attempt:int ->
    unit ->
    float
  (** Delay before retry number [attempt] (1-based; [attempt <= 0] is
      [0.]) of request [key].  The window doubles per attempt from
      [base_ms] (default 25) and is capped at [cap_ms] (default 2000);
      the returned delay is uniform in (0, window]. *)
end

(** {1 Campaign reporting}

    Wall-time and cache-effectiveness observability for the campaign
    layers, rendered through {!Epic_profile}'s JSON values so [bench
    --json] dumps compose with the existing reporting. *)

type campaign_stats = {
  cs_label : string;                    (** Campaign name (e.g. ["table1"]). *)
  cs_jobs : int;                        (** Domains used. *)
  cs_tasks : int;                       (** Independent jobs executed. *)
  cs_wall_s : float;                    (** Wall-clock seconds. *)
  cs_caches : (string * Cache.stats) list;  (** Per-cache hit/miss counts. *)
  cs_notes : (string * int) list;
      (** Campaign-specific counters appended to the stats line (e.g. the
          explorer's skipped-invalid and pruned point counts). *)
}

val now : unit -> float
(** [Unix.gettimeofday] — wall clock for campaign timing. *)

val pp_campaign_stats : Format.formatter -> campaign_stats -> unit
(** One line: label, tasks, jobs, wall time, cache hit rates. *)

val campaign_stats_to_json : campaign_stats -> Epic_profile.Json.t

val run_campaign :
  ?quiet:bool ->
  label:string ->
  jobs:int ->
  ?caches:(unit -> (string * Cache.stats) list) ->
  ?notes:('a -> (string * int) list) ->
  tasks:('a -> int) ->
  (unit -> 'a) ->
  'a * campaign_stats
(** The campaign convention shared by every CLI and the bench harness:
    time [f ()] on the wall clock, read the cache counters {e after} it
    finishes ([caches], default none), derive the task count and any
    extra counters ([notes], default none) from the result, and — unless
    [quiet] — print the one-line {!pp_campaign_stats} summary to
    {b stderr}, so stdout stays byte-identical across [--jobs] values. *)
