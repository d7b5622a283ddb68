(** The epicd serving core.

    Every transport — the in-memory request list, a pipe, each socket
    connection — runs the same loop: requests are read line by line,
    each admitted work request becomes a task on one shared
    {!Epic.Exec.Workq}, and responses are written in request order, so
    a connection's response stream is byte-identical for any [jobs] and
    [max_conns].  Control requests ([stats], [shutdown]) drain the
    connection's own in-flight work, then answer inline.  Work results
    are served through the optional disk {!Store}, and identical
    requests in flight at the same time are evaluated once. *)

(** Bounded latency sample: exact below its capacity, a deterministic
    reservoir sample beyond it (two daemons serving the same request
    stream keep identical samples). *)
module Reservoir : sig
  type t

  val create : ?cap:int -> unit -> t
  (** [cap] defaults to 4096.  @raise Invalid_argument on [cap < 1]. *)

  val add : t -> float -> unit
  val count : t -> int
  (** Total observations, unbounded. *)

  val sampled : t -> int
  (** Observations currently held: [min count cap]. *)

  val snapshot : t -> float array
  (** A copy of the held sample. *)
end

type t

val create :
  ?jobs:int ->
  ?queue_max:int ->
  ?deadline_ms:int ->
  ?deadline_cycles_per_ms:int ->
  ?store:Store.t ->
  unit ->
  t
(** [jobs] (default {!Epic.Exec.default_jobs}) worker domains serve the
    requests.  [queue_max] (default 256) is the admission high-water
    mark: a work request arriving while that many admitted responses
    are unwritten is shed with a [serve/overload] error.  [deadline_ms]
    is the default deadline of requests that set none (default: none);
    a deadline caps simulations at [deadline_cycles_per_ms] (default
    10_000) cycles per millisecond.
    @raise Invalid_argument on a non-positive [jobs], [queue_max] or
    [deadline_cycles_per_ms], or a negative [deadline_ms]. *)

type stop = Eof | Shutdown_requested

val stats_json : t -> Epic.Profile.Json.t
(** The live statistics a [stats] request answers with. *)

val serve_strings : t -> string list -> string list
(** Serve a list of request lines as one connection and return the
    response lines. *)

val run_pipe : t -> in_fd:Unix.file_descr -> out:out_channel -> stop
(** Serve one connection reading [in_fd] and writing [out], until end
    of input or a [shutdown] request. *)

val run_socket : ?max_conns:int -> t -> path:string -> stop
(** Listen on the Unix socket [path] and serve up to [max_conns]
    (default 1) connections at once until a [shutdown] request.  A
    connection error or handler exception drops that connection only.
    @raise Invalid_argument on [max_conns < 1]. *)
