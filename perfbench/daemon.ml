(* The real epicd binary, driven from outside over its Unix socket. *)

let exe = "_build/default/bin/epicd.exe"
let now = Unix.gettimeofday

type t = {
  pid : int;
  sock : string;
  setup_s : float;                 (* spawn to first accepted connection *)
  first : Unix.file_descr;         (* that connection, kept for the client *)
  first_ic : in_channel;
  first_oc : out_channel;
}

(* Peak resident memory of a process, from the kernel's high-water mark. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let live : int list ref = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error (_, _, _) -> ())
    !live;
  live := []

let () = at_exit kill_all

let connect ~deadline sock =
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if now () > deadline then failwith ("epicd did not come up on " ^ sock);
      Unix.sleepf 0.0002;
      go ()
  in
  go ()

let spawn ~sock ~cache_dir ~log =
  (try Unix.unlink sock with Unix.Unix_error (_, _, _) -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let t0 = now () in
  let pid =
    Unix.create_process exe
      [| exe; "--socket"; sock; "--max-conns"; "2"; "--jobs"; "2";
         "--cache-dir"; cache_dir |]
      null err err
  in
  Unix.close null;
  Unix.close err;
  live := pid :: !live;
  let first = connect ~deadline:(t0 +. 30.) sock in
  let setup_s = now () -. t0 in
  { pid; sock; setup_s; first; first_ic = Unix.in_channel_of_descr first;
    first_oc = Unix.out_channel_of_descr first }

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

(* Ask the daemon to stop on its first connection and wait until it has
   exited; any other connection must already be closed. *)
let shutdown d =
  send_line d.first_oc "{\"op\":\"shutdown\"}";
  (try ignore (input_line d.first_ic) with End_of_file -> ());
  Unix.close d.first;
  (match Unix.waitpid [] d.pid with
   | _, Unix.WEXITED 0 -> ()
   | _ -> failwith "epicd exited abnormally");
  live := List.filter (( <> ) d.pid) !live

(* One request on the first connection (control requests after the
   timed window: stats). *)
let call d line =
  send_line d.first_oc line;
  input_line d.first_ic

(* What one connection of [replay] saw, request by request. *)
type conn = {
  responses : string array;
  latency : float array;   (* first byte written to last byte read, s *)
  finished : float array;  (* completion, s after the replay started *)
}

(* Closed-loop clients, one domain per connection: each sends its lines
   in order, waiting for every response.  Returns what each connection
   saw and the wall time from the first byte written to the last byte
   read. *)
let replay d (streams : string array array) =
  let conns =
    Array.mapi
      (fun i _ ->
        if i = 0 then (d.first, d.first_ic, d.first_oc)
        else
          let fd = connect ~deadline:(now () +. 30.) d.sock in
          (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd))
      streams
  in
  let t0 = now () in
  let run i () =
    let _, ic, oc = conns.(i) in
    let lines = streams.(i) in
    let n = Array.length lines in
    let c =
      { responses = Array.make n ""; latency = Array.make n 0.; finished = Array.make n 0. }
    in
    Array.iteri
      (fun k line ->
        let a = now () in
        send_line oc line;
        c.responses.(k) <- input_line ic;
        let b = now () in
        c.latency.(k) <- b -. a;
        c.finished.(k) <- b -. t0)
      lines;
    c
  in
  let doms = Array.mapi (fun i _ -> Domain.spawn (run i)) streams in
  let out = Array.map Domain.join doms in
  Array.iteri (fun i (fd, _, _) -> if i > 0 then Unix.close fd) conns;
  let wall =
    Array.fold_left
      (fun m c -> Array.fold_left Float.max m c.finished)
      0. out
  in
  (out, wall)
