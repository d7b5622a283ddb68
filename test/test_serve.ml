(* Serving-daemon tests: wire-protocol round-trips for every request
   kind, strict-parser diagnostics for malformed input, byte-identity of
   batch responses across --jobs values, disk-cache persistence across
   daemon restarts, the store's atomicity/eviction/versioning mechanics,
   and the memo-cache observation API. *)

module P = Epic_serve.Protocol
module Server = Epic_serve.Server
module Store = Epic_serve.Store
module Config = Epic.Config
module J = Epic.Profile.Json

let tiny_asm = "_start:\n{ MOV r3, #42 }\n{ HALT }\n"

let sha_wl = P.Src_workload { P.wl_name = "sha"; wl_params = [ ("bytes", 64) ] }

let sample_requests =
  [ P.Compile
      { P.c_config = { Config.default with Config.n_alus = 2 };
        c_source = sha_wl; c_opt = Epic.Toolchain.O0; c_predication = false;
        c_unroll = 2; c_fuel = Some 100000 };
    P.Simulate
      { P.s_config = Config.default; s_asm = tiny_asm; s_fuel = None;
        s_mem_bytes = 4096 };
    P.Fault_campaign
      { P.fc_config = { Config.default with Config.issue_width = 2 };
        fc_source = P.Src_text "int main() { return 7; }"; fc_seed = 3;
        fc_runs = 2; fc_targets = [ Epic.Fault.F_gpr; Epic.Fault.F_mem ];
        fc_fuel_factor = 8 };
    P.Fuzz_batch
      { P.fz_seed = 5; fz_cases = 4; fz_kinds = [ Epic.Difftest.K_enc ];
        fz_shrink = false };
    P.Explore_slice
      { P.ex_source = sha_wl; ex_alus = [ 1; 3 ]; ex_issues = [ 2; 4 ] };
    P.Stats; P.Shutdown ]

(* ---- protocol ----------------------------------------------------- *)

let test_roundtrip () =
  List.iteri
    (fun i op ->
      let r = { P.rq_id = Some i; rq_deadline_ms = None; rq_op = op } in
      match P.request_of_line (P.to_line r) with
      | Ok r' ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip %s" (P.op_name op))
          true (P.request_equal r r')
      | Error d ->
        Alcotest.failf "%s failed to re-parse: %s" (P.op_name op)
          (Epic.Diag.to_string d))
    sample_requests;
  (* An id-less request survives too. *)
  match P.request_of_line (P.to_line { P.rq_id = None; rq_deadline_ms = None; rq_op = P.Stats }) with
  | Ok r -> Alcotest.(check bool) "no id" true (r.P.rq_id = None)
  | Error _ -> Alcotest.fail "id-less request rejected"

let check_bad name line expected_code =
  match P.request_of_line line with
  | Ok _ -> Alcotest.failf "%s: parsed but should not" name
  | Error d -> Alcotest.(check string) name expected_code d.Epic.Diag.code

let test_malformed () =
  check_bad "not json" "{oops" "serve/parse";
  check_bad "unknown op" {|{"op":"teleport"}|} "serve/op";
  check_bad "missing op" {|{"id":1}|} "serve/request";
  check_bad "unknown field"
    {|{"op":"compile","workload":{"name":"sha"},"volume":11}|} "serve/request";
  check_bad "ill-typed id" {|{"id":"seven","op":"stats"}|} "serve/request";
  check_bad "invalid config"
    {|{"op":"compile","config":{"alus":0},"workload":{"name":"sha"}}|}
    "serve/config";
  check_bad "unknown custom"
    {|{"op":"compile","config":{"custom":["WARP"]},"workload":{"name":"sha"}}|}
    "serve/config";
  check_bad "both sources"
    {|{"op":"compile","source":"int main(){return 0;}","workload":{"name":"sha"}}|}
    "serve/request";
  check_bad "missing asm" {|{"op":"simulate"}|} "serve/request"

(* Errors only detectable at evaluation time come back as ok:false
   responses with structured diagnostics. *)
let test_eval_errors () =
  let t = Server.create ~jobs:1 () in
  let lines =
    [ {|{"id":0,"op":"compile","workload":{"name":"quicksort"}}|};
      {|{"id":1,"op":"simulate","asm":"{ FLY b0 }"}|};
      {|{"id":2,"op":"simulate","asm":"_start:\n{ HALT }\n","mem_bytes":-4}|} ]
  in
  let responses = Server.serve_strings t lines in
  Alcotest.(check int) "three responses" 3 (List.length responses);
  List.iter
    (fun line ->
      match J.parse line with
      | Error e -> Alcotest.failf "unparseable response: %s" e
      | Ok j ->
        Alcotest.(check bool) "ok:false" true
          (J.member "ok" j = Some (J.Bool false));
        (match Option.bind (J.member "error" j) (J.member "code") with
         | Some (J.Str code) ->
           Alcotest.(check bool)
             (Printf.sprintf "code %s is serve/*or asm" code)
             true
             (String.length code > 0)
         | _ -> Alcotest.fail "missing error.code"))
    responses;
  (* The workload error specifically carries the serve/workload code. *)
  match J.parse (List.hd responses) with
  | Ok j ->
    (match Option.bind (J.member "error" j) (J.member "code") with
     | Some (J.Str c) -> Alcotest.(check string) "workload code" "serve/workload" c
     | _ -> Alcotest.fail "missing code")
  | Error e -> Alcotest.failf "unparseable: %s" e

(* ---- determinism across jobs -------------------------------------- *)

let work_batch () =
  let reqs =
    List.mapi
      (fun i op -> { P.rq_id = Some i; rq_deadline_ms = None; rq_op = op })
      (List.filter (fun op -> not (P.is_control op)) sample_requests)
  in
  List.map P.to_line reqs

(* ---- disk persistence across restarts ----------------------------- *)

let with_tmpdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "epic_serve_test_%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  rm dir;
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let test_restart_persistence () =
  with_tmpdir @@ fun dir ->
  let batch = work_batch () in
  let n_cacheable = List.length batch in
  (* First daemon lifetime: all misses, entries written. *)
  let store1 = Store.open_ dir in
  let r1 = Server.serve_strings (Server.create ~jobs:2 ~store:store1 ()) batch in
  let s1 = Store.stats store1 in
  Alcotest.(check int) "first run misses" n_cacheable s1.Store.st_misses;
  Alcotest.(check int) "first run hits" 0 s1.Store.st_hits;
  Alcotest.(check int) "entries on disk" n_cacheable (Store.entries store1);
  (* Second daemon lifetime (a restart): same directory, fresh handles —
     every request is a disk hit and the bytes are identical. *)
  let store2 = Store.open_ dir in
  let r2 = Server.serve_strings (Server.create ~jobs:2 ~store:store2 ()) batch in
  let s2 = Store.stats store2 in
  Alcotest.(check int) "second run hits" n_cacheable s2.Store.st_hits;
  Alcotest.(check int) "second run misses" 0 s2.Store.st_misses;
  Alcotest.(check (float 1e-9)) "hit rate" 1.0 (Store.hit_rate s2);
  Alcotest.(check (list string)) "byte-identical responses" r1 r2

(* ---- store mechanics ---------------------------------------------- *)

let entry_path dir key =
  Filename.concat
    (Filename.concat dir (Printf.sprintf "v%d" Store.format_version))
    (Digest.to_hex (Digest.string key))

let test_store_key_guard () =
  with_tmpdir @@ fun dir ->
  let st = Store.open_ dir in
  Store.add st ~key:"alpha" "payload-a";
  Alcotest.(check (option string)) "hit" (Some "payload-a")
    (Store.find st ~key:"alpha");
  (* A foreign file squatting on a key's digest path reads as a miss,
     not as someone else's payload. *)
  let oc = open_out_bin (entry_path dir "beta") in
  output_string oc "gamma\nstolen";
  close_out oc;
  Alcotest.(check (option string)) "foreign file is a miss" None
    (Store.find st ~key:"beta");
  (* Truncated (empty) entry: also a miss. *)
  let oc = open_out_bin (entry_path dir "delta") in
  close_out oc;
  Alcotest.(check (option string)) "empty file is a miss" None
    (Store.find st ~key:"delta")

let test_store_eviction () =
  with_tmpdir @@ fun dir ->
  let st = Store.open_ ~max_entries:2 dir in
  Store.add st ~key:"one" "1";
  Store.add st ~key:"two" "2";
  Store.add st ~key:"three" "3";
  Alcotest.(check int) "capped" 2 (Store.entries st);
  Alcotest.(check int) "evictions counted" 1 (Store.stats st).Store.st_evictions

let test_store_versioning () =
  with_tmpdir @@ fun dir ->
  let st = Store.open_ dir in
  Store.add st ~key:"k" "v";
  Alcotest.(check int) "one entry" 1 (Store.entries st);
  (* A leftover temporary from a crashed writer is swept on open. *)
  let tmp =
    Filename.concat
      (Filename.concat dir (Printf.sprintf "v%d" Store.format_version))
      ".tmp-999-1"
  in
  let oc = open_out_bin tmp in
  output_string oc "torn";
  close_out oc;
  (* Bumping the format version invalidates the old generation wholesale. *)
  let st2 = Store.open_ ~version:(Store.format_version + 1) dir in
  Alcotest.(check int) "new generation empty" 0 (Store.entries st2);
  Alcotest.(check (option string)) "old entry gone" None (Store.find st2 ~key:"k");
  Alcotest.(check bool) "old generation removed" false
    (Sys.file_exists
       (Filename.concat dir (Printf.sprintf "v%d" Store.format_version)));
  (* Re-opening the original version again: the sweep removed it, so the
     store is empty but usable. *)
  let st3 = Store.open_ dir in
  Alcotest.(check bool) "tmp swept" false (Sys.file_exists tmp);
  Alcotest.(check (option string)) "fresh generation" None
    (Store.find st3 ~key:"k")

(* ---- store integrity: checksums, quarantine, scrub ---------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_store_integrity () =
  with_tmpdir @@ fun dir ->
  let st = Store.open_ dir in
  Store.add st ~key:"alpha" "payload-alpha";
  Store.add st ~key:"beta" "payload-beta";
  (* Bit rot: flip one payload bit; the checksum must catch it and the
     entry must be quarantined, never served. *)
  let pa = entry_path dir "alpha" in
  let s = read_file pa in
  let i = String.length s - 3 in
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  write_file pa (Bytes.to_string b);
  Alcotest.(check (option string)) "flipped entry is a miss" None
    (Store.find st ~key:"alpha");
  Alcotest.(check int) "quarantine counted" 1
    (Store.stats st).Store.st_quarantined;
  Alcotest.(check int) "moved to quarantine/" 1 (Store.quarantined_entries st);
  Alcotest.(check bool) "off its key's path" false (Sys.file_exists pa);
  (* Torn write: header intact, payload cut short. *)
  let pb = entry_path dir "beta" in
  let sb = read_file pb in
  write_file pb (String.sub sb 0 (String.length sb - 4));
  Alcotest.(check (option string)) "truncated entry is a miss" None
    (Store.find st ~key:"beta");
  Alcotest.(check int) "second quarantine" 2
    (Store.stats st).Store.st_quarantined;
  (* Recomputation republishes on the same path and hits again. *)
  Store.add st ~key:"alpha" "payload-alpha";
  Alcotest.(check (option string)) "recomputed entry hits"
    (Some "payload-alpha")
    (Store.find st ~key:"alpha")

let test_store_verify () =
  with_tmpdir @@ fun dir ->
  let st = Store.open_ dir in
  Store.add st ~key:"one" "1111";
  Store.add st ~key:"two" "2222";
  Store.add st ~key:"three" "3333";
  Alcotest.(check int) "clean scrub finds nothing" 0 (Store.verify st);
  let p = entry_path dir "two" in
  let s = read_file p in
  write_file p (String.sub s 0 (String.length s - 2));
  Alcotest.(check int) "scrub quarantines the bad entry" 1 (Store.verify st);
  Alcotest.(check int) "survivors stay on disk" 2 (Store.entries st);
  Alcotest.(check (option string)) "survivor still hits" (Some "1111")
    (Store.find st ~key:"one")

let test_store_swept () =
  with_tmpdir @@ fun dir ->
  let st = Store.open_ dir in
  Store.add st ~key:"k" "v";
  (* A crashed writer's temporary in a {e new} format generation must be
     swept by the open that performs the version bump. *)
  let next = Store.format_version + 1 in
  let vdir = Filename.concat dir (Printf.sprintf "v%d" next) in
  Unix.mkdir vdir 0o755;
  write_file (Filename.concat vdir ".tmp-1-1") "torn";
  let st2 = Store.open_ ~version:next dir in
  Alcotest.(check int) "bump open sweeps" 1 (Store.stats st2).Store.st_swept;
  Alcotest.(check int) "nothing left to sweep" 0 (Store.sweep st2);
  (* The sweep count is part of the stats JSON. *)
  (match J.member "swept" (Store.stats_to_json st2) with
   | Some (J.Int 1) -> ()
   | _ -> Alcotest.fail "stats JSON lacks the swept count")

(* ---- protocol limits ---------------------------------------------- *)

let test_oversized () =
  (* One byte over the limit: rejected with the dedicated code. *)
  check_bad "over the line limit"
    (String.make (P.max_line_bytes + 1) 'x')
    "serve/oversized";
  (* Exactly at the limit: admitted past the length check (this junk
     then fails as a plain parse error, not as oversized). *)
  match P.request_of_line (String.make P.max_line_bytes 'x') with
  | Error d ->
    Alcotest.(check string) "at the limit is not oversized" "serve/parse"
      d.Epic.Diag.code
  | Ok _ -> Alcotest.fail "junk line parsed"

(* End-to-end through the bounded pipe reader: an oversized frame gets a
   structured error and the daemon keeps serving the same connection. *)
let test_oversized_pipe () =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let input = Filename.concat dir "input" in
  let oc = open_out_bin input in
  output_string oc (String.make (P.max_line_bytes + 100) 'z');
  output_char oc '\n';
  output_string oc {|{"id":7,"op":"stats"}|};
  output_char oc '\n';
  close_out oc;
  let fd = Unix.openfile input [ Unix.O_RDONLY ] 0 in
  let out_path = Filename.concat dir "out" in
  let out = open_out out_path in
  let t = Server.create ~jobs:1 () in
  let stop = Server.run_pipe t ~in_fd:fd ~out in
  close_out out;
  Unix.close fd;
  Alcotest.(check bool) "served to EOF" true (stop = Server.Eof);
  let ic = open_in out_path in
  let l1 = input_line ic in
  let l2 = input_line ic in
  close_in ic;
  (match Option.bind (Result.to_option (J.parse l1)) (J.member "error") with
   | Some e ->
     Alcotest.(check bool) "oversized code" true
       (J.member "code" e = Some (J.Str "serve/oversized"))
   | None -> Alcotest.failf "expected an error response, got %s" l1);
  match Result.to_option (J.parse l2) with
  | Some j ->
    Alcotest.(check bool) "stats answered after the oversized frame" true
      (J.member "ok" j = Some (J.Bool true) && J.member "id" j = Some (J.Int 7))
  | None -> Alcotest.failf "unparseable second response: %s" l2

(* ---- deadlines ---------------------------------------------------- *)

let spin_asm = "_start:\n{ PBRR b0, @spin }\nspin:\n{ BRU #0 }\n"

let sim_line ?dl ?fuel ~id asm =
  P.to_line
    { P.rq_id = Some id; rq_deadline_ms = dl;
      rq_op =
        P.Simulate
          { P.s_config = Config.default; s_asm = asm; s_fuel = fuel;
            s_mem_bytes = 4096 } }

let response_code line =
  Option.bind
    (Option.bind (Result.to_option (J.parse line)) (J.member "error"))
    (J.member "code")

let response_ok line =
  match Option.bind (Result.to_option (J.parse line)) (J.member "ok") with
  | Some (J.Bool b) -> b
  | _ -> false

let test_deadline () =
  let t = Server.create ~jobs:1 () in
  let one line = List.hd (Server.serve_strings t [ line ]) in
  (* Already expired on arrival: shed before any work happens. *)
  Alcotest.(check bool) "deadline_ms=0 times out" true
    (response_code (one (sim_line ~dl:0 ~id:0 tiny_asm))
     = Some (J.Str "serve/deadline"));
  (* A non-halting program cannot outlive its deadline: the fuel cap
     derived from the deadline stops it and reports the timeout. *)
  Alcotest.(check bool) "spin under a 50 ms deadline times out" true
    (response_code (one (sim_line ~dl:50 ~id:1 spin_asm))
     = Some (J.Str "serve/deadline"));
  (* An explicitly requested tight fuel budget is a legitimate result,
     not a timeout — even under a deadline, because the deadline did not
     tighten the budget. *)
  Alcotest.(check bool) "explicit fuel trap is ok" true
    (response_ok (one (sim_line ~fuel:1000 ~id:2 spin_asm)));
  Alcotest.(check bool) "explicit fuel trap under a deadline is ok" true
    (response_ok (one (sim_line ~dl:50 ~fuel:1000 ~id:3 spin_asm)));
  (* A generous deadline on a terminating program changes nothing. *)
  Alcotest.(check bool) "generous deadline is ok" true
    (response_ok (one (sim_line ~dl:60000 ~id:4 tiny_asm)));
  (* The timeouts were counted. *)
  let stats =
    one (P.to_line { P.rq_id = Some 9; rq_deadline_ms = None; rq_op = P.Stats })
  in
  match
    Option.bind
      (Option.bind (Result.to_option (J.parse stats)) (J.member "result"))
      (J.member "deadline_timeouts")
  with
  | Some (J.Int n) -> Alcotest.(check int) "two timeouts counted" 2 n
  | _ -> Alcotest.fail "stats lack deadline_timeouts"

(* The server-wide default deadline applies to requests that set none. *)
let test_deadline_server_default () =
  let t = Server.create ~jobs:1 ~deadline_ms:0 () in
  let r = List.hd (Server.serve_strings t [ sim_line ~id:0 tiny_asm ]) in
  Alcotest.(check bool) "server default enforced" true
    (response_code r = Some (J.Str "serve/deadline"))

(* ---- overload shedding -------------------------------------------- *)

let test_overload_shedding () =
  let lines =
    List.map
      (fun i -> sim_line ~id:i (Printf.sprintf "_start:\n{ MOV r3, #%d }\n{ HALT }\n" i))
      [ 0; 1; 2; 3; 4; 5 ]
    @ [ P.to_line { P.rq_id = Some 9; rq_deadline_ms = None; rq_op = P.Stats } ]
  in
  let serve () =
    Server.serve_strings (Server.create ~jobs:2 ~queue_max:2 ()) lines
  in
  let rs = serve () in
  Alcotest.(check int) "every request answered" 7 (List.length rs);
  let shed =
    List.filter (fun l -> response_code l = Some (J.Str "serve/overload")) rs
  in
  let ok = List.filter response_ok rs in
  Alcotest.(check int) "four shed" 4 (List.length shed);
  Alcotest.(check int) "two served plus stats" 3 (List.length ok);
  (* Shed responses carry the request id and the queue state. *)
  (match Result.to_option (J.parse (List.hd shed)) with
   | Some j ->
     Alcotest.(check bool) "shed response has an id" true
       (J.member "id" j <> None && J.member "id" j <> Some J.Null)
   | None -> Alcotest.fail "unparseable shed response");
  (* The stats response reports the admission counters. *)
  let stats = List.find (fun l -> not (response_ok l = false)) (List.rev rs) in
  (match
     Option.bind (Result.to_option (J.parse stats)) (J.member "result")
   with
   | Some r ->
     Alcotest.(check bool) "shed counter" true (J.member "shed" r = Some (J.Int 4));
     Alcotest.(check bool) "admitted counter" true
       (J.member "admitted" r = Some (J.Int 2))
   | None -> Alcotest.fail "unparseable stats");
  (* Shedding is deterministic on the in-memory transport (the stats
     response is excluded: it embeds wall-clock measurements). *)
  let work l =
    match Option.bind (Result.to_option (J.parse l)) (J.member "id") with
    | Some (J.Int 9) -> false
    | _ -> true
  in
  Alcotest.(check (list string)) "deterministic under overload"
    (List.filter work rs)
    (List.filter work (serve ()))

(* ---- retry backoff ------------------------------------------------ *)

let test_backoff () =
  let d = Epic.Exec.Backoff.delay_ms ~seed:7 ~key:3 ~attempt:4 () in
  Alcotest.(check (float 1e-9)) "deterministic"
    d
    (Epic.Exec.Backoff.delay_ms ~seed:7 ~key:3 ~attempt:4 ());
  Alcotest.(check bool) "seed changes the jitter" true
    (d <> Epic.Exec.Backoff.delay_ms ~seed:8 ~key:3 ~attempt:4 ());
  Alcotest.(check (float 1e-9)) "attempt 0 is immediate" 0.
    (Epic.Exec.Backoff.delay_ms ~seed:7 ~key:3 ~attempt:0 ());
  for attempt = 1 to 20 do
    let v = Epic.Exec.Backoff.delay_ms ~seed:1 ~key:1 ~attempt () in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d in (0, window]" attempt)
      true
      (v > 0.
       && v <= Float.min 2000. (25. *. Float.pow 2. (float_of_int (attempt - 1))))
  done

(* ---- socket resilience -------------------------------------------- *)

let test_socket_resilience () =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "sock" in
  let t = Server.create ~jobs:1 () in
  let srv = Domain.spawn (fun () -> Server.run_socket t ~path) in
  let rec await n =
    if Sys.file_exists path then ()
    else if n = 0 then Alcotest.fail "socket never appeared"
    else (Unix.sleepf 0.02; await (n - 1))
  in
  await 250;
  let connect () =
    let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect s (Unix.ADDR_UNIX path);
    s
  in
  (* Client 1 connects and slams the door without a word. *)
  Unix.close (connect ());
  (* Client 2 leaves a partial frame and disconnects before reading the
     response: the daemon's write hits a dead peer and must not die. *)
  let c2 = connect () in
  ignore (Unix.write_substring c2 "{oops" 0 5);
  Unix.close c2;
  (* Client 3 is a well-behaved session: the daemon must still serve it
     and honour its shutdown. *)
  let c3 = connect () in
  let oc = Unix.out_channel_of_descr c3 in
  output_string oc "{\"id\":1,\"op\":\"stats\"}\n{\"op\":\"shutdown\"}\n";
  flush oc;
  Unix.shutdown c3 Unix.SHUTDOWN_SEND;
  let ic = Unix.in_channel_of_descr c3 in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let responses = read [] in
  (try Unix.close c3 with Unix.Unix_error (_, _, _) -> ());
  (match responses with
   | stats :: _ ->
     Alcotest.(check bool) "stats served after rude clients" true
       (response_ok stats)
   | [] -> Alcotest.fail "no response on the surviving connection");
  let stop = Domain.join srv in
  Alcotest.(check bool) "daemon honoured shutdown" true
    (stop = Server.Shutdown_requested)

(* ---- bounded latency reservoir ------------------------------------ *)

let test_latency_reservoir () =
  let feed r =
    for i = 1 to 1000 do
      Server.Reservoir.add r (float_of_int i)
    done
  in
  let r = Server.Reservoir.create ~cap:8 () in
  feed r;
  Alcotest.(check int) "count is the true total" 1000
    (Server.Reservoir.count r);
  Alcotest.(check int) "sample bounded by cap" 8 (Server.Reservoir.sampled r);
  let snap = Server.Reservoir.snapshot r in
  Alcotest.(check int) "snapshot is the sample" 8 (Array.length snap);
  Array.iter
    (fun v ->
      Alcotest.(check bool) "sampled value came from the stream" true
        (v >= 1. && v <= 1000.))
    snap;
  (* Replacement is seeded, not random: identical streams keep identical
     samples. *)
  let r2 = Server.Reservoir.create ~cap:8 () in
  feed r2;
  Alcotest.(check (list (float 1e-9))) "deterministic replacement"
    (Array.to_list snap)
    (Array.to_list (Server.Reservoir.snapshot r2));
  (* Below the cap the sample is exact. *)
  let small = Server.Reservoir.create ~cap:8 () in
  List.iter (Server.Reservoir.add small) [ 3.; 1.; 2. ];
  Alcotest.(check (list (float 1e-9))) "exact below the cap" [ 3.; 1.; 2. ]
    (Array.to_list (Server.Reservoir.snapshot small));
  (* The daemon's stats advertise the bound. *)
  let t = Server.create ~jobs:1 () in
  let rs =
    Server.serve_strings t
      [ sim_line ~id:0 tiny_asm;
        P.to_line { P.rq_id = Some 1; rq_deadline_ms = None; rq_op = P.Stats } ]
  in
  let stats = List.nth rs 1 in
  let field path =
    List.fold_left
      (fun j k -> Option.bind j (J.member k))
      (Result.to_option (J.parse stats))
      path
  in
  (match field [ "result"; "latency"; "reservoir_cap" ] with
   | Some (J.Int cap) -> Alcotest.(check bool) "cap advertised" true (cap > 0)
   | _ -> Alcotest.fail "stats lack latency.reservoir_cap");
  match field [ "result"; "latency"; "sampled" ] with
  | Some (J.Int 1) -> ()
  | _ -> Alcotest.fail "stats lack latency.sampled"

(* ---- LRU-ish eviction: hits refresh mtime -------------------------- *)

let test_store_hit_refreshes_mtime () =
  with_tmpdir @@ fun dir ->
  let st = Store.open_ ~max_entries:2 dir in
  Store.add st ~key:"hot" "H";
  Store.add st ~key:"cold" "C";
  (* Age both entries into the past; only the hit refreshes one. *)
  let past = Unix.gettimeofday () -. 3600. in
  Unix.utimes (entry_path dir "hot") past past;
  Unix.utimes (entry_path dir "cold") past past;
  Alcotest.(check (option string)) "hot entry hit" (Some "H")
    (Store.find st ~key:"hot");
  (* Eviction pressure: one entry must go — the cold one, not the one
     that was just served. *)
  Store.add st ~key:"newcomer" "N";
  Alcotest.(check int) "capped" 2 (Store.entries st);
  Alcotest.(check int) "one eviction" 1 (Store.stats st).Store.st_evictions;
  Alcotest.(check (option string)) "repeatedly-hit entry survived" (Some "H")
    (Store.find st ~key:"hot");
  Alcotest.(check (option string)) "stale entry evicted" None
    (Store.find st ~key:"cold")

(* ---- adaptive intra-request fan-out -------------------------------- *)

let stats_field line path =
  List.fold_left
    (fun j k -> Option.bind j (J.member k))
    (Result.to_option (J.parse line))
    ("result" :: path)

let test_adaptive_fanout () =
  let big_ops =
    [ P.Fuzz_batch
        { P.fz_seed = 5; fz_cases = 4; fz_kinds = [ Epic.Difftest.K_enc ];
          fz_shrink = false };
      P.Fault_campaign
        { P.fc_config = { Config.default with Config.issue_width = 2 };
          fc_source = P.Src_text "int main() { return 7; }"; fc_seed = 3;
          fc_runs = 2; fc_targets = [ Epic.Fault.F_gpr; Epic.Fault.F_mem ];
          fc_fuel_factor = 8 } ]
  in
  let lines =
    List.mapi
      (fun i op -> P.to_line { P.rq_id = Some i; rq_deadline_ms = None; rq_op = op })
      big_ops
  in
  let stats_line =
    P.to_line { P.rq_id = Some 9; rq_deadline_ms = None; rq_op = P.Stats }
  in
  let serve jobs =
    let t = Server.create ~jobs () in
    (* One request per serve call: each arrives on an idle daemon. *)
    let work = List.concat_map (fun l -> Server.serve_strings t [ l ]) lines in
    let stats = List.hd (Server.serve_strings t [ stats_line ]) in
    (work, stats)
  in
  let w1, s1 = serve 1 in
  let w4, s4 = serve 4 in
  (* The fix for the hardwired ~jobs:1: alone on an idle multi-job
     daemon, fault/fuzz requests must fan out over the pool... *)
  (match stats_field s4 [ "intra_fanout" ] with
   | Some (J.Int n) ->
     Alcotest.(check int) "both big requests fanned out on jobs=4" 2 n
   | _ -> Alcotest.fail "stats lack intra_fanout");
  (match stats_field s1 [ "intra_fanout" ] with
   | Some (J.Int 0) -> ()
   | _ -> Alcotest.fail "jobs=1 daemon must not report fan-out");
  (* ...while staying byte-identical to the serialised result. *)
  Alcotest.(check (list string)) "fanned-out responses byte-identical" w1 w4;
  List.iter
    (fun l -> Alcotest.(check bool) "response ok" true (response_ok l))
    w4

(* ---- concurrent socket serving ------------------------------------- *)

let test_socket_concurrent () =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "sock" in
  let t = Server.create ~jobs:2 () in
  let srv = Domain.spawn (fun () -> Server.run_socket ~max_conns:8 t ~path) in
  let rec await n =
    if Sys.file_exists path then ()
    else if n = 0 then Alcotest.fail "socket never appeared"
    else (Unix.sleepf 0.02; await (n - 1))
  in
  await 250;
  let connect () =
    let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect s (Unix.ADDR_UNIX path);
    s
  in
  let request_lines sock lines =
    let oc = Unix.out_channel_of_descr sock in
    List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
    flush oc;
    Unix.shutdown sock Unix.SHUTDOWN_SEND;
    let ic = Unix.in_channel_of_descr sock in
    let rec read acc =
      match input_line ic with
      | l -> read (l :: acc)
      | exception End_of_file -> List.rev acc
    in
    let rs = read [] in
    (try Unix.close sock with Unix.Unix_error (_, _, _) -> ());
    rs
  in
  (* Every client sends the same expensive requests (they should overlap
     and collapse in flight) plus one request of its own. *)
  let shared_ops =
    [ P.Compile
        { P.c_config = { Config.default with Config.n_alus = 3 };
          c_source = sha_wl; c_opt = Epic.Toolchain.O1; c_predication = true;
          c_unroll = Epic.Toolchain.default_unroll; c_fuel = None };
      P.Explore_slice
        { P.ex_source = sha_wl; ex_alus = [ 1; 2 ]; ex_issues = [ 4 ] } ]
  in
  let n_shared = List.length shared_ops in
  let lines_for ci =
    List.mapi
      (fun i op -> P.to_line { P.rq_id = Some i; rq_deadline_ms = None; rq_op = op })
      shared_ops
    @ [ sim_line ~id:n_shared
          (Printf.sprintf "_start:\n{ MOV r3, #%d }\n{ HALT }\n" (ci + 1)) ]
  in
  let n_clients = 3 in
  let results = Array.make n_clients [] in
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let go = ref false in
  let client ci =
    Mutex.lock mu;
    while not !go do
      Condition.wait cv mu
    done;
    Mutex.unlock mu;
    results.(ci) <- request_lines (connect ()) (lines_for ci)
  in
  let ths = List.init n_clients (fun ci -> Thread.create client ci) in
  Mutex.lock mu;
  go := true;
  Condition.broadcast cv;
  Mutex.unlock mu;
  (* A rude client drops mid-frame while the others are in flight: the
     daemon must shrug and keep serving them. *)
  let rude = connect () in
  ignore (Unix.write_substring rude {|{"id":0,"op":"comp|} 0 18);
  Unix.sleepf 0.05;
  Unix.close rude;
  List.iter Thread.join ths;
  (* Per-connection: complete, ok, and in request order. *)
  Array.iteri
    (fun ci rs ->
      Alcotest.(check int)
        (Printf.sprintf "client %d: all requests answered" ci)
        (n_shared + 1) (List.length rs);
      List.iteri
        (fun i l ->
          Alcotest.(check bool)
            (Printf.sprintf "client %d response %d ok" ci i)
            true (response_ok l);
          match Option.bind (Result.to_option (J.parse l)) (J.member "id") with
          | Some (J.Int id) ->
            Alcotest.(check int)
              (Printf.sprintf "client %d response %d in order" ci i)
              i id
          | _ -> Alcotest.failf "client %d response %d has no id" ci i)
        rs)
    results;
  (* The shared requests must come back byte-identical on every
     connection. *)
  let shared ci = List.filteri (fun i _ -> i < n_shared) results.(ci) in
  for ci = 1 to n_clients - 1 do
    Alcotest.(check (list string))
      (Printf.sprintf "client %d shared responses = client 0" ci)
      (shared 0) (shared ci)
  done;
  (* Control connection: overlapping identical requests were collapsed,
     and shutdown still works. *)
  let ctl =
    request_lines (connect ())
      [ P.to_line { P.rq_id = Some 90; rq_deadline_ms = None; rq_op = P.Stats };
        P.to_line
          { P.rq_id = Some 91; rq_deadline_ms = None; rq_op = P.Shutdown } ]
  in
  (match ctl with
   | [ stats; bye ] ->
     Alcotest.(check bool) "stats ok" true (response_ok stats);
     Alcotest.(check bool) "shutdown ok" true (response_ok bye);
     (match stats_field stats [ "dedup_hits" ] with
      | Some (J.Int n) ->
        Alcotest.(check bool)
          (Printf.sprintf "dedup hits > 0 (got %d)" n)
          true (n > 0)
      | _ -> Alcotest.fail "stats lack dedup_hits")
   | rs -> Alcotest.failf "control connection got %d responses" (List.length rs));
  let stop = Domain.join srv in
  Alcotest.(check bool) "daemon honoured shutdown" true
    (stop = Server.Shutdown_requested)

(* ---- one serving loop behind every transport ---------------------- *)

(* Write [lines] and half-close. *)
let send sock lines =
  let oc = Unix.out_channel_of_descr sock in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  flush oc;
  Unix.shutdown sock Unix.SHUTDOWN_SEND

(* Read every response to end of input. *)
let read_all sock =
  let ic = Unix.in_channel_of_descr sock in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let rs = read [] in
  (try Unix.close sock with Unix.Unix_error (_, _, _) -> ());
  rs

let session sock lines =
  send sock lines;
  read_all sock

let stats_line =
  P.to_line { P.rq_id = Some 90; rq_deadline_ms = None; rq_op = P.Stats }

(* Run a socket daemon on its own domain for the duration of [f], which
   gets a connect function; a final connection shuts the daemon down. *)
let with_socket_daemon ~max_conns t f =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "sock" in
  let srv = Domain.spawn (fun () -> Server.run_socket ~max_conns t ~path) in
  let rec await n =
    if Sys.file_exists path then ()
    else if n = 0 then Alcotest.fail "socket never appeared"
    else (Unix.sleepf 0.02; await (n - 1))
  in
  await 250;
  let connect () =
    let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect s (Unix.ADDR_UNIX path);
    s
  in
  let shutdown () =
    ignore
      (session (connect ())
         [ P.to_line
             { P.rq_id = Some 91; rq_deadline_ms = None; rq_op = P.Shutdown } ]);
    Alcotest.(check bool) "daemon honoured shutdown" true
      (Domain.join srv = Server.Shutdown_requested)
  in
  Fun.protect ~finally:shutdown (fun () -> f connect)

(* Pipe mode over a file descriptor, as epicd reads stdin. *)
let serve_pipe t lines =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let input = Filename.concat dir "input" in
  write_file input (String.concat "" (List.map (fun l -> l ^ "\n") lines));
  let fd = Unix.openfile input [ Unix.O_RDONLY ] 0 in
  let out_path = Filename.concat dir "out" in
  let out = open_out out_path in
  ignore (Server.run_pipe t ~in_fd:fd ~out : Server.stop);
  close_out out;
  Unix.close fd;
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file out_path))

let test_jobs_invariance () =
  let batch = work_batch () in
  let serve jobs = Server.serve_strings (Server.create ~jobs ()) batch in
  let r1 = serve 1 in
  let r3 = serve 3 in
  let r4 = serve 4 in
  Alcotest.(check (list string)) "jobs 1 = jobs 3" r1 r3;
  Alcotest.(check (list string)) "jobs 1 = jobs 4" r1 r4;
  List.iter
    (fun line ->
      match Option.bind (Result.to_option (J.parse line)) (J.member "ok") with
      | Some (J.Bool true) -> ()
      | _ -> Alcotest.failf "work response not ok: %s" line)
    r1;
  (* Every transport runs the same loop: the pipe and the socket at any
     connection cap give the same bytes for any jobs value. *)
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "pipe, jobs %d" jobs)
        r1
        (serve_pipe (Server.create ~jobs ()) batch);
      List.iter
        (fun max_conns ->
          Alcotest.(check (list string))
            (Printf.sprintf "socket, max_conns %d, jobs %d" max_conns jobs)
            r1
            (with_socket_daemon ~max_conns (Server.create ~jobs ())
               (fun connect -> session (connect ()) batch)))
        [ 1; 8 ])
    [ 1; 4 ]

(* A client that pipelines work and leaves without reading must not keep
   its admission slots: they are released when its connection ends. *)
let test_abandoned_connection () =
  let queue_max = 4 in
  let t = Server.create ~jobs:2 ~queue_max () in
  with_socket_daemon ~max_conns:8 t @@ fun connect ->
  let rude = connect () in
  let oc = Unix.out_channel_of_descr rude in
  for i = 0 to 7 do
    output_string oc (sim_line ~fuel:(2_000_000 + i) ~id:i spin_asm);
    output_char oc '\n'
  done;
  flush oc;
  Unix.close rude;
  let rec settle n =
    let stats = List.hd (session (connect ()) [ stats_line ]) in
    match stats_field stats [ "in_flight" ] with
    | Some (J.Int 0) -> ()
    | Some (J.Int _) when n > 0 ->
      Unix.sleepf 0.05;
      settle (n - 1)
    | _ -> Alcotest.fail "in_flight never returned to 0"
  in
  settle 200;
  let burst =
    List.init queue_max (fun i ->
        sim_line ~id:i (Printf.sprintf "_start:\n{ MOV r3, #%d }\n{ HALT }\n" i))
  in
  let rs = session (connect ()) burst in
  Alcotest.(check int) "burst answered" queue_max (List.length rs);
  List.iter
    (fun l -> Alcotest.(check bool) "burst not shed" true (response_ok l))
    rs

(* Two connections send the same spin, one under a deadline the spin
   cannot meet.  The deadline miss belongs to the bounded request only:
   whichever computes first, the unbounded one must get its result.  The
   bounded request is sent first, so it usually computes while the
   unbounded one waits on it. *)
let test_deadline_miss_not_shared () =
  let t = Server.create ~jobs:2 () in
  with_socket_daemon ~max_conns:8 t @@ fun connect ->
  let spin ?dl id = sim_line ?dl ~fuel:2_000_000 ~id spin_asm in
  let bounded = connect () in
  send bounded [ spin ~dl:150 0 ];
  Unix.sleepf 0.02;
  let free = session (connect ()) [ spin 1 ] in
  Alcotest.(check int) "bounded request answered" 1
    (List.length (read_all bounded));
  match free with
  | [ r ] ->
    Alcotest.(check bool) "unbounded request ok" true (response_ok r);
    Alcotest.(check bool) "never serve/deadline" false
      (response_code r = Some (J.Str "serve/deadline"))
  | rs -> Alcotest.failf "unbounded request got %d responses" (List.length rs)

(* ---- memo-cache observation API ----------------------------------- *)

let test_cache_snapshot_reset () =
  let c = Epic.Exec.Cache.create ~name:"t" () in
  ignore (Epic.Exec.Cache.find_or_add c "k" (fun () -> 1));
  ignore (Epic.Exec.Cache.find_or_add c "k" (fun () -> 2));
  let s = Epic.Exec.Cache.snapshot c in
  Alcotest.(check int) "one miss" 1 s.Epic.Exec.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Epic.Exec.Cache.hits;
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Epic.Exec.Cache.hit_rate s);
  Epic.Exec.Cache.reset_stats c;
  let s0 = Epic.Exec.Cache.snapshot c in
  Alcotest.(check int) "counters zeroed" 0
    (s0.Epic.Exec.Cache.hits + s0.Epic.Exec.Cache.misses);
  (* Entries survive a counter reset: the next lookup is a pure hit. *)
  Alcotest.(check int) "entry kept" 1
    (Epic.Exec.Cache.find_or_add c "k" (fun () -> 3));
  let s1 = Epic.Exec.Cache.snapshot c in
  Alcotest.(check int) "hit after reset" 1 s1.Epic.Exec.Cache.hits;
  Alcotest.(check int) "no miss after reset" 0 s1.Epic.Exec.Cache.misses

let suite =
  [ Alcotest.test_case "protocol round-trip" `Quick test_roundtrip;
    Alcotest.test_case "malformed requests" `Quick test_malformed;
    Alcotest.test_case "evaluation errors" `Quick test_eval_errors;
    Alcotest.test_case "jobs invariance" `Quick test_jobs_invariance;
    Alcotest.test_case "restart persistence" `Quick test_restart_persistence;
    Alcotest.test_case "store key guard" `Quick test_store_key_guard;
    Alcotest.test_case "store eviction" `Quick test_store_eviction;
    Alcotest.test_case "store versioning" `Quick test_store_versioning;
    Alcotest.test_case "store integrity quarantine" `Quick test_store_integrity;
    Alcotest.test_case "store verify scrub" `Quick test_store_verify;
    Alcotest.test_case "store swept counter" `Quick test_store_swept;
    Alcotest.test_case "oversized frames" `Quick test_oversized;
    Alcotest.test_case "oversized frame on a pipe" `Quick test_oversized_pipe;
    Alcotest.test_case "deadlines" `Quick test_deadline;
    Alcotest.test_case "server default deadline" `Quick test_deadline_server_default;
    Alcotest.test_case "overload shedding" `Quick test_overload_shedding;
    Alcotest.test_case "retry backoff" `Quick test_backoff;
    Alcotest.test_case "socket resilience" `Quick test_socket_resilience;
    Alcotest.test_case "latency reservoir" `Quick test_latency_reservoir;
    Alcotest.test_case "store hit refreshes mtime" `Quick
      test_store_hit_refreshes_mtime;
    Alcotest.test_case "adaptive intra-request fan-out" `Quick
      test_adaptive_fanout;
    Alcotest.test_case "concurrent socket serving" `Quick
      test_socket_concurrent;
    Alcotest.test_case "abandoned connection releases admission" `Quick
      test_abandoned_connection;
    Alcotest.test_case "deadline miss is not shared" `Quick
      test_deadline_miss_not_shared;
    Alcotest.test_case "cache snapshot/reset" `Quick test_cache_snapshot_reset ]
