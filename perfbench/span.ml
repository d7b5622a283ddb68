(* In-memory span recorder for the traced run.  A span is one call into
   a layer: name, start, end, parent span and request id, plus the words
   the call allocated.  Spans nest (one domain, strictly nested calls),
   so a span's self time is its duration minus its children's.  Nothing
   is written until the run ends. *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_req : int;
  sp_parent : int;      (* -1 at the top *)
  sp_t0 : float;
  sp_t1 : float;
  sp_words : float;     (* words allocated between start and end *)
}

let enabled = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let request = ref (-1)
let origin = ref 0.

let now = Unix.gettimeofday

(* Words allocated so far.  The minor collection first makes the count
   exact: without it the runtime's counter lags by the part of the minor
   heap in use, and two walks over the same inputs would disagree. *)
let words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let reset ~on =
  enabled := on;
  spans := [];
  stack := [];
  next_id := 0;
  request := -1;
  origin := now ()

let with_request id f =
  let saved = !request in
  request := id;
  Fun.protect ~finally:(fun () -> request := saved) f

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let w0 = words () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let w1 = words () in
      stack := List.tl !stack;
      spans :=
        { sp_id = id; sp_name = name; sp_req = !request; sp_parent = parent;
          sp_t0 = t0; sp_t1 = t1; sp_words = w1 -. w0 }
        :: !spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Per-span self time (s) and self allocation (words). *)
type self = { s_span : span; s_time : float; s_words : float }

let selves () =
  let all = List.rev !spans in
  let child_time = Hashtbl.create 1024 and child_words = Hashtbl.create 1024 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then begin
        add child_time s.sp_parent (s.sp_t1 -. s.sp_t0);
        add child_words s.sp_parent s.sp_words
      end)
    all;
  let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
  List.map
    (fun s ->
      { s_span = s;
        s_time = s.sp_t1 -. s.sp_t0 -. get child_time s.sp_id;
        s_words = s.sp_words -. get child_words s.sp_id })
    all

(* Chrome trace-event JSON (the format epicprof emits for simulated
   time): one complete event per span, microseconds from the start of
   the run, with the request id, parent span and self figures as args. *)
let write_chrome_trace path =
  let module J = Epic.Profile.Json in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  output_string oc
    "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\
     \"perfbench traced run (host time)\"}}";
  List.iter
    (fun s ->
      let sp = s.s_span in
      let us t = (t -. !origin) *. 1e6 in
      output_string oc ",\n";
      output_string oc
        (J.to_string
           (J.Obj
              [ ("ph", J.Str "X"); ("pid", J.Int 1); ("tid", J.Int 1);
                ("ts", J.Float (us sp.sp_t0));
                ("dur", J.Float ((sp.sp_t1 -. sp.sp_t0) *. 1e6));
                ("name", J.Str sp.sp_name); ("cat", J.Str "layer");
                ( "args",
                  J.Obj
                    [ ("id", J.Int sp.sp_id); ("parent", J.Int sp.sp_parent);
                      ("req", J.Int sp.sp_req);
                      ("self_us", J.Float (s.s_time *. 1e6));
                      ("self_words", J.Float s.s_words) ] ) ])))
    (List.sort
       (fun a b -> compare (a.s_span.sp_t0, a.s_span.sp_id) (b.s_span.sp_t0, b.s_span.sp_id))
       (selves ()));
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
