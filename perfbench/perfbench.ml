(* perfbench: the repository's benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it runs the workload's seeded campaign with tracing off
   and prints the end-to-end metrics; with --trace 1 it feeds the same
   inputs through each layer inside spans and prints the per-layer
   metrics, writing perfbench/out/NAME.trace.json (Chrome trace) and
   perfbench/out/NAME.layers.txt.  Every output is checked; the last
   line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}, and the exit code is
   non-zero when any check failed.  See perfbench/README.md. *)

let workloads = [ "serve_cold"; "serve_warm"; "explore"; "table1_paper" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload (serve_cold|serve_warm|explore|table1_paper) \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  (* Exit normally on SIGTERM/SIGINT, so the at_exit handlers stop every
     daemon and remove the scratch directory. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let seed, seconds, trace =
    try (int_of_string (get "seed"), float_of_string (get "seconds"), int_of_string (get "trace"))
    with Failure _ -> usage ()
  in
  if seconds <= 0. || (trace <> 0 && trace <> 1) then usage ();
  match
    match (workload, trace) with
    | "serve_cold", 0 -> Timed.serve_cold ~seed ~seconds
    | "serve_warm", 0 -> Timed.serve_warm ~seed ~seconds
    | "explore", 0 -> Timed.explore ~seed ~seconds
    | "table1_paper", 0 -> Timed.table1_paper ()
    | "serve_cold", _ -> Traced.serve ~warm:false ~seed
    | "serve_warm", _ -> Traced.serve ~warm:true ~seed
    | "explore", _ -> Traced.explore ~seed ~seconds
    | _ -> Traced.table1_paper ()
  with
  | t, metrics ->
    Util.emit_result t metrics;
    if t.Util.failed > 0 then exit 1
  | exception e ->
    Printf.eprintf "perfbench: %s failed: %s\n%!" workload (Printexc.to_string e);
    exit 1
