(* Small shared helpers: statistics, files, the result line. *)

module J = Epic.Profile.Json

let now = Unix.gettimeofday
let out_dir = "perfbench/out"

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)))

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Scratch space of this run, removed when the process exits. *)
let scratch =
  lazy
    (let dir = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
     rm_rf dir;
     mkdir_p dir;
     at_exit (fun () -> try rm_rf dir with _ -> ());
     dir)

let scratch_path name = Filename.concat (Lazy.force scratch) name

(* Peak resident memory of this process since the last [reset_peak_rss]. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

let self_peak_rss_mb () = Daemon.peak_rss_mb (Unix.getpid ())

(* Outcome tally: every checked output is one attempt. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Host speed.  On a shared 2-vCPU host, work on one domain runs up to
   twice as slow for minutes at a time, in phases longer than a run, so
   no median inside a run removes them.  [host_scaled fs] runs each thunk
   and times a fixed reference loop before the first and after each; a
   thunk's scale is [reference_nominal_s /. (mean of the two reference
   times around it)], and its wall time times its scale is its time on a
   host where the loop takes [reference_nominal_s].  The loop is the
   benchmark's own code, so a change to the program cannot move it.  Like
   the simulators and the compiler, it does integer and array work and
   allocates a little. *)
let reference_steps = 45_000_000
let reference_nominal_s = 0.1

let reference () =
  let work () =
    let mem = Array.make 8192 0 in
    let x = ref 12345 and live = ref [] in
    for i = 1 to reference_steps do
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
      let j = !x land 8191 in
      mem.(j) <- mem.(j) + i;
      if i land 7 = 0 then live := (i, !x) :: (if i land 1023 = 0 then [] else !live)
    done;
    Sys.opaque_identity (mem, !live)
  in
  snd (time work)

type 'a scaled = { value : 'a; wall_s : float; scale : float }

let scaled_s x = x.wall_s *. x.scale

let host_scaled fs =
  let before = ref (reference ()) in
  List.map
    (fun f ->
      let value, wall_s = time f in
      let after = reference () in
      let host = (!before +. after) /. 2. in
      before := after;
      { value; wall_s; scale = reference_nominal_s /. host })
    fs

(* For standard error: the scaled and the wall seconds of [xs]. *)
let describe_scaled xs =
  let sum f = List.fold_left (fun a x -> a +. f x) 0. xs in
  Printf.sprintf "%.3f s scaled, %.3f s wall" (sum scaled_s) (sum (fun x -> x.wall_s))

(* The last line of standard output. *)
let emit_result t metrics =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
  in
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (t.failed = 0) t.attempted t.failed body

let member_path path j =
  List.fold_left
    (fun acc k -> match acc with Some j -> J.member k j | None -> None)
    (Some j) path

let int_at path j =
  match member_path path j with Some (J.Int n) -> Some n | _ -> None
