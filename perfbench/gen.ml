(* Seeded inputs.  Every request stream and campaign sample is a pure
   function of the seed, so two runs with one seed replay the same
   inputs and the daemon or campaign receives only these generated
   values. *)

module S = Epic.Workloads.Sources
module P = Epic_serve.Protocol
module Config = Epic.Config

type req = {
  id : int;
  line : string;           (* the request as sent, without the newline *)
  bm : S.benchmark;        (* source and reference checksum *)
  op : P.op;
}

let benchmark name params =
  let p k = List.assoc k params in
  match name with
  | "sha" -> S.sha_benchmark ~bytes:(p "bytes") ()
  | "aes" -> S.aes_benchmark ~iters:(p "iters") ()
  | "dct" -> S.dct_benchmark ~width:(p "width") ~height:(p "height") ()
  | "dijkstra" -> S.dijkstra_benchmark ~nodes:(p "nodes") ()
  | _ -> invalid_arg ("Gen.benchmark: " ^ name)

(* Size ranges, one per request class.  Each keeps a simulation well
   below the compile of the same program, so the optimiser dominates a
   cold request (measured on a 2-core x86-64 host: aes at 48 iterations
   simulates in ~70 ms against a ~230 ms compile, dct at 48x48 in ~15 ms
   against ~165 ms, sha at 1500 bytes in ~6 ms against ~12 ms, dijkstra
   at 16 nodes in ~11 ms against ~16 ms).  Fault campaigns simulate once
   per injection, so their programs are the smallest.  The ranges are
   disjoint, so no two requests of a set share a program. *)
let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

let dct_sides =
  List.concat_map (fun w -> List.map (fun h -> (w, h)) [ 8; 16; 24; 32; 40; 48 ])
    [ 8; 16; 24; 32; 40; 48 ]
  |> List.sort (fun (a, b) (c, d) -> compare (a * b, a, b) (c * d, c, d))

type cls = Aes | Dct | Sha | Dijkstra | Fault_aes | Slice_sha

let values = function
  | Aes -> List.map (fun n -> ("aes", [ ("iters", n) ])) (range 9 48)
  | Dct -> List.map (fun (w, h) -> ("dct", [ ("height", h); ("width", w) ])) dct_sides
  | Sha -> List.map (fun n -> ("sha", [ ("bytes", n) ])) (range 513 1500)
  | Dijkstra -> List.map (fun n -> ("dijkstra", [ ("nodes", n) ])) (range 3 16)
  | Fault_aes -> List.map (fun n -> ("aes", [ ("iters", n) ])) (range 1 8)
  | Slice_sha -> List.map (fun n -> ("sha", [ ("bytes", n) ])) (range 16 512)

(* One block of 20 requests: the cost is dominated by the aes and dct
   compiles (the optimiser), with a small share of fault campaigns and
   explore slices.  Cheap requests (sha, dijkstra, slices) stay well
   under half, so the median latency sits inside the expensive mode
   rather than on the edge between the two. *)
let block =
  [ (Aes, 6); (Dct, 6); (Sha, 5); (Dijkstra, 1); (Fault_aes, 1); (Slice_sha, 1) ]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let shuffled st l =
  let a = Array.of_list l in
  shuffle st a;
  Array.to_list a

(* [blocks] x 20 requests with pairwise distinct programs, so none can
   hit the daemon's in-memory front-end cache or its disk cache: every
   one pays cfront + opt.  The set is stratified so that seeds change
   little but the order: each class takes its count of sizes evenly
   spaced over its range (from a seeded offset) and its ALU counts in
   equal shares, so the total work of a set hardly depends on the seed.
   Compiles keep if-conversion on (the default EPIC pipeline, where
   LICM is costly). *)
let serve_requests ~seed ~stream ~blocks =
  let st = Random.State.make [| seed; stream |] in
  let members =
    List.concat_map
      (fun (cls, per_block) ->
        let vs = Array.of_list (values cls) in
        let m = Array.length vs and c = per_block * blocks in
        let offset = Random.State.int st m in
        let sizes = List.init c (fun i -> vs.(((i * m / c) + offset) mod m)) in
        let alus = shuffled st (List.init c (fun i -> 1 + (i mod 4))) in
        List.map2 (fun (name, params) alus -> (cls, name, params, alus))
          (shuffled st sizes) alus)
      block
  in
  List.mapi
    (fun id (cls, name, params, alus) ->
      let source = P.Src_workload { P.wl_name = name; wl_params = params } in
      let config = Config.with_alus alus in
      let op =
        match cls with
        | Aes | Dct | Sha | Dijkstra ->
          P.Compile
            { P.c_config = config; c_source = source; c_opt = Epic.Toolchain.O1;
              c_predication = true; c_unroll = Epic.Toolchain.default_unroll; c_fuel = None }
        | Fault_aes ->
          P.Fault_campaign
            { P.fc_config = config; fc_source = source; fc_seed = Random.State.int st 1000;
              fc_runs = 2; fc_targets = Epic.Fault.all_targets; fc_fuel_factor = 4 }
        | Slice_sha ->
          P.Explore_slice { P.ex_source = source; ex_alus = [ 1; 2; 3; 4 ]; ex_issues = [ 4 ] }
      in
      let line = P.to_line { P.rq_id = Some id; rq_deadline_ms = None; rq_op = op } in
      { id; line; bm = benchmark name params; op })
    (shuffled st members)

(* The explore workloads: the CLI's [--small] variants. *)
let small_workloads () =
  [ S.sha_benchmark ~bytes:64 ();
    S.aes_benchmark ~iters:4 ();
    S.dct_benchmark ~width:16 ~height:16 ();
    S.dijkstra_benchmark ~nodes:12 () ]

(* The Table 1 workloads at the paper's sizes, in Experiments' order. *)
let paper_benchmarks () =
  let z = Epic.Experiments.paper_sizes in
  let w, h = z.Epic.Experiments.dct_size in
  [ S.sha_benchmark ~bytes:z.Epic.Experiments.sha_bytes ();
    S.aes_benchmark ~iters:z.Epic.Experiments.aes_iters ();
    S.dct_benchmark ~width:w ~height:h ();
    S.dijkstra_benchmark ~nodes:z.Epic.Experiments.dijkstra_nodes () ]
