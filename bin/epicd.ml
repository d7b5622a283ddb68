(* epicd: compile-and-simulate as a service.  A long-running daemon
   accepting newline-delimited JSON requests — compile, simulate,
   fault-campaign, fuzz-batch, explore-slice, stats, shutdown — over a
   Unix socket (--socket) or stdin/stdout (the default pipe mode, one
   daemon per client, convenient under a supervisor or in CI).

   Every connection (pipe mode is one connection) submits its requests
   to one shared Epic_exec work queue of --jobs domains; responses come
   back in request order and are byte-identical for every --jobs and
   --max-conns value.  With --cache-dir, results are served from a
   persistent on-disk artifact cache keyed by configuration fingerprint
   x source digest x request parameters, so a campaign replayed
   tomorrow — or by the next daemon — hits disk instead of the compiler.

   On exit the daemon prints a JSON summary (request counts, latency
   percentiles, queue depth, cache traffic) to stderr; the same numbers
   are available live through a {"op": "stats"} request. *)

open Cmdliner

let run socket max_conns cache_dir cache_entries queue_max deadline_ms jobs =
  Cli_common.handle_errors @@ fun () ->
  let store =
    Option.map
      (fun dir -> Epic_serve.Store.open_ ?max_entries:cache_entries dir)
      cache_dir
  in
  let t =
    Epic_serve.Server.create ~jobs ~queue_max ?deadline_ms ?store ()
  in
  let stop =
    match socket with
    | Some path ->
      Printf.eprintf "epicd: listening on %s (%d domain(s), %d connection(s))\n%!"
        path jobs max_conns;
      Epic_serve.Server.run_socket ~max_conns t ~path
    | None -> Epic_serve.Server.run_pipe t ~in_fd:Unix.stdin ~out:stdout
  in
  ignore (stop : Epic_serve.Server.stop);
  (* The shutdown summary goes to stderr, like every campaign tool's
     statistics: stdout carries only responses. *)
  Printf.eprintf "%s\n"
    (Epic.Profile.Json.to_string (Epic_serve.Server.stats_json t))

let cmd =
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix domain socket instead of stdin/stdout. \
                 A shutdown request stops the daemon; see $(b,--max-conns) \
                 for concurrent connections.")
  in
  let max_conns =
    Arg.(value & opt int 8
         & info [ "max-conns" ] ~docv:"N"
           ~doc:"Serve up to $(docv) socket connections concurrently over one \
                 shared work queue, with cross-client deduplication of \
                 identical in-flight requests.  With 1, connections are \
                 accepted one at a time.  Ignored in pipe mode.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Persistent artifact cache directory.  Results are keyed by \
                 configuration fingerprint, source digest and request \
                 parameters; entries survive restarts and are invalidated \
                 wholesale on a format-version bump.")
  in
  let cache_entries =
    Arg.(value & opt (some int) None
         & info [ "cache-entries" ] ~docv:"N"
           ~doc:"Cap the artifact cache at $(docv) entries; the oldest \
                 entries are evicted beyond it (default: unlimited).")
  in
  let queue_max =
    Arg.(value & opt int 256
         & info [ "queue-max" ] ~docv:"N"
           ~doc:"Admission high-water mark: when $(docv) requests are already \
                 queued, further work is shed immediately with a \
                 $(i,serve/overload) error instead of growing the queue.")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Default per-request deadline in milliseconds, applied to \
                 requests that do not set their own $(i,deadline_ms) field.  \
                 Work past its deadline is abandoned with a \
                 $(i,serve/deadline) error (default: no deadline).")
  in
  Cmd.v
    (Cmd.info "epicd"
       ~doc:"Serve EPIC compile-and-simulate requests over newline-delimited \
             JSON")
    Term.(const run $ socket $ max_conns $ cache_dir $ cache_entries
          $ queue_max $ deadline_ms $ Cli_common.jobs_term)

let () = exit (Cmd.eval cmd)
