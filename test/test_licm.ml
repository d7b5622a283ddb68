(* Loop-invariant code motion and its analyses against the reference
   oracle in [Ref_licm]: byte-identical optimised MIR on a corpus of
   workloads, examples and generated programs, identical dominance facts,
   the documented treatment of unreachable blocks, the register-set order
   register allocation depends on, and a bound on LICM's allocation. *)

module Ir = Epic.Ir
module Opt = Epic.Opt
module Dom = Epic.Dominators
module Liveness = Epic.Liveness
module Interp = Epic.Interp
module S = Epic.Workloads.Sources

let pipelines =
  [ ("EPIC", Opt.default_passes ~epic:true ~predication:true);
    ("SA-110", Opt.default_passes ~epic:false ~predication:false) ]

let with_ref_licm passes =
  List.map
    (fun (p : Opt.pass) ->
      if p.Opt.pass_name = "licm" then { p with Opt.pass_run = Ref_licm.run } else p)
    passes

(* The passes a pipeline runs before its first LICM. *)
let rec before_licm = function
  | (p : Opt.pass) :: rest when p.Opt.pass_name <> "licm" -> p :: before_licm rest
  | _ -> []

let pp p = Format.asprintf "%a" Ir.pp_program p

(* The four workloads at both ends of each size range the serve_cold
   benchmark draws from, and at the paper's sizes. *)
let workloads =
  let z = Epic.Experiments.paper_sizes in
  let pw, ph = z.Epic.Experiments.dct_size in
  [ S.aes_benchmark ~iters:1 (); S.aes_benchmark ~iters:9 (); S.aes_benchmark ~iters:48 ();
    S.dct_benchmark ~width:8 ~height:8 (); S.dct_benchmark ~width:48 ~height:48 ();
    S.sha_benchmark ~bytes:16 (); S.sha_benchmark ~bytes:513 ();
    S.sha_benchmark ~bytes:1500 ();
    S.dijkstra_benchmark ~nodes:3 (); S.dijkstra_benchmark ~nodes:16 ();
    S.sha_benchmark ~bytes:z.Epic.Experiments.sha_bytes ();
    S.aes_benchmark ~iters:z.Epic.Experiments.aes_iters ();
    S.dct_benchmark ~width:pw ~height:ph ();
    S.dijkstra_benchmark ~nodes:z.Epic.Experiments.dijkstra_nodes () ]
  |> List.map (fun (bm : S.benchmark) -> (bm.S.bm_description, bm.S.bm_source))

(* dune runtest runs in _build/default/test, next to dune's copy of the
   examples; a by-hand run starts at the repository root. *)
let examples =
  let dir = List.find Sys.file_exists [ "examples"; "../examples" ] in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         (path, In_channel.with_open_bin path In_channel.input_all))

let generated =
  QCheck.Gen.generate ~rand:(Random.State.make [| 12 |]) ~n:200 Test_opt.gen_program
  |> List.mapi (fun i src -> (Printf.sprintf "generated #%d" i, src))

let check_identical corpus () =
  Alcotest.(check bool) "corpus not empty" true (corpus <> []);
  List.iter
    (fun (name, src) ->
      let mir = Epic.Cfront.compile src in
      List.iter
        (fun (target, passes) ->
          let expected = pp (Opt.apply (with_ref_licm passes) mir) in
          let actual = pp (Opt.apply passes mir) in
          if expected <> actual then
            Alcotest.failf "%s, %s pipeline: optimised MIR differs from the oracle's"
              name target)
        pipelines)
    corpus

(* Labels reachable from the entry, in layout order. *)
let reachable (f : Ir.func) =
  let seen = Hashtbl.create 16 in
  let rec visit l =
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.replace seen l ();
      List.iter visit (Ir.successors (Ir.find_block f l).Ir.b_term)
    end
  in
  visit (Ir.entry_block f).Ir.b_id;
  List.filter_map
    (fun (b : Ir.block) -> if Hashtbl.mem seen b.Ir.b_id then Some b.Ir.b_id else None)
    f.Ir.f_blocks

let loops_of (f : Ir.func) =
  List.map
    (fun l -> (l.Dom.header, Dom.LSet.elements l.Dom.body))
    (Dom.natural_loops (Dom.analyse f) f)

let ref_loops_of (f : Ir.func) =
  let module R = Ref_licm.Dom in
  List.map
    (fun l -> (l.R.header, R.LSet.elements l.R.body))
    (R.natural_loops (R.analyse f) f)

(* Dominance agrees on every pair of reachable blocks, and natural loops
   (including their order, which fixes LICM's order) are identical, on
   every function LICM sees in the default pipelines and on its output. *)
let test_dominators_agree () =
  List.iter
    (fun (name, src) ->
      let mir = Epic.Cfront.compile src in
      List.iter
        (fun (target, passes) ->
          let input = Opt.apply (before_licm passes) mir in
          let output = Opt.apply passes mir in
          List.iter
            (fun (f : Ir.func) ->
              let d = Dom.analyse f and r = Ref_licm.Dom.analyse f in
              let labels = reachable f in
              List.iter
                (fun a ->
                  List.iter
                    (fun b ->
                      if Dom.dominates d a b <> Ref_licm.Dom.dominates r a b then
                        Alcotest.failf "%s, %s, %s: dominates L%d L%d disagrees" name
                          target f.Ir.f_name a b)
                    labels)
                labels;
              if loops_of f <> ref_loops_of f then
                Alcotest.failf "%s, %s, %s: natural loops differ" name target f.Ir.f_name)
            (input.Ir.p_funcs @ output.Ir.p_funcs))
        pipelines)
    (workloads @ examples)

(* A CFG with two unreachable parts: a loop (L4/L5) and a block (L6)
   that jumps into the reachable loop's body.

     L0: s = 0; i = 0              L4: if i < 10 then L5 else L3
     L1: if i < n then L2 else L3  L5: t = n * 7; i = i + t; -> L4
     L2: m = n * 3; s = s + m;     L6: s = 1; -> L2
         i = i + 1; -> L1
     L3: return s *)
let unreachable_loop_program () =
  let i k = Ir.no_guard k in
  let n = 0 and s = 1 and iv = 2 and m = 3 and t = 4 in
  let block b_id b_insts b_term = { Ir.b_id; b_insts; b_term } in
  let main =
    { Ir.f_name = "main"; f_params = [ n ]; f_nvregs = 5; f_npregs = 1;
      f_frame_bytes = 0;
      f_blocks =
        [ block 0 [ i (Ir.Mov (s, Ir.Imm 0)); i (Ir.Mov (iv, Ir.Imm 0)) ] (Ir.Jmp 1);
          block 1 [] (Ir.Br (Ir.Rlt, Ir.Reg iv, Ir.Reg n, 2, 3));
          block 2
            [ i (Ir.Bin (Ir.Mul, m, Ir.Reg n, Ir.Imm 3));
              i (Ir.Bin (Ir.Add, s, Ir.Reg s, Ir.Reg m));
              i (Ir.Bin (Ir.Add, iv, Ir.Reg iv, Ir.Imm 1)) ]
            (Ir.Jmp 1);
          block 3 [] (Ir.Ret (Some (Ir.Reg s)));
          block 4 [] (Ir.Br (Ir.Rlt, Ir.Reg iv, Ir.Imm 10, 5, 3));
          block 5
            [ i (Ir.Bin (Ir.Mul, t, Ir.Reg n, Ir.Imm 7));
              i (Ir.Bin (Ir.Add, iv, Ir.Reg iv, Ir.Reg t)) ]
            (Ir.Jmp 4);
          block 6 [ i (Ir.Mov (s, Ir.Imm 1)) ] (Ir.Jmp 2) ] }
  in
  { Ir.p_globals = []; p_funcs = [ main ] }

let test_unreachable_blocks () =
  let p = unreachable_loop_program () in
  let main = List.hd p.Ir.p_funcs in
  let d = Dom.analyse main in
  List.iter
    (fun (a, b, expected) ->
      Alcotest.(check bool) (Printf.sprintf "dominates L%d L%d" a b) expected
        (Dom.dominates d a b))
    [ (5, 5, true); (4, 5, false); (5, 4, false); (0, 5, false); (5, 0, false);
      (6, 2, false); (1, 2, true); (0, 3, true) ];
  Alcotest.(check (list (pair int (list int)))) "only the reachable loop" [ (1, [ 1; 2 ]) ]
    (loops_of main);
  let options = { Opt.Pipeline.default_options with verify = true; diff_check = true } in
  let q, report = Opt.Pipeline.run ~options [ Opt.licm ] p in
  Alcotest.(check int) "diff-checked" 1 report.Opt.Pipeline.rp_diff_checks;
  (match Epic.Verify.check_program q with
   | Ok () -> ()
   | Error msgs -> Alcotest.failf "verifier: %s" (String.concat "; " msgs));
  List.iter
    (fun n ->
      let ret prog = (Interp.run ~args:[ n ] prog ~entry:"main").Interp.ret in
      Alcotest.(check int) (Printf.sprintf "n = %d" n) (ret p) (ret q))
    [ 0; 1; 5 ];
  let q_main = List.hd q.Ir.p_funcs in
  let has_mul (b : Ir.block) =
    List.exists
      (fun (ins : Ir.inst) ->
        match ins.Ir.kind with Ir.Bin (Ir.Mul, _, _, _) -> true | _ -> false)
      b.Ir.b_insts
  in
  Alcotest.(check bool) "invariant multiply hoisted" false
    (has_mul (Ir.find_block q_main 2));
  Alcotest.(check bool) "unreachable loop untouched" true (has_mul (Ir.find_block q_main 5))

let gen_reg =
  QCheck.Gen.(
    pair (oneofl [ Ir.Cgpr; Ir.Cpred ]) (oneof [ int_range (-3) 70; int ]))

let prop_rset_order =
  QCheck.Test.make ~name:"RSet order is polymorphic compare's" ~count:500
    (QCheck.make
       ~print:
         QCheck.Print.(
           list (pair (function Ir.Cgpr -> "gpr" | Ir.Cpred -> "pred") int))
       QCheck.Gen.(list_size (int_range 0 40) gen_reg))
    (fun l ->
      Liveness.RSet.elements (Liveness.RSet.of_list l) = List.sort_uniq Stdlib.compare l)

(* LICM alone on the MIR the default EPIC pipeline feeds it.  The count
   is exact and host-independent; the original pass allocated 28.43 Mw
   (aes) and 13.64 Mw (dct). *)
let licm_bound_mw = 5.0

let minor_words () =
  Gc.minor ();
  let minor, _, _ = Gc.counters () in
  minor

let test_licm_allocation () =
  let passes = before_licm (Opt.default_passes ~epic:true ~predication:true) in
  List.iter
    (fun (bm : S.benchmark) ->
      let input = Opt.apply passes (Epic.Cfront.compile bm.S.bm_source) in
      let w0 = minor_words () in
      ignore (Opt.Licm.run input);
      let mw = (minor_words () -. w0) /. 1e6 in
      if mw > licm_bound_mw then
        Alcotest.failf "%s: LICM allocated %.2f Mw, bound %.1f Mw" bm.S.bm_description mw
          licm_bound_mw)
    [ S.aes_benchmark ~iters:9 (); S.dct_benchmark ~width:48 ~height:48 () ]

let suite =
  [
    Alcotest.test_case "oracle: workloads" `Quick (check_identical workloads);
    Alcotest.test_case "oracle: examples" `Quick (check_identical examples);
    Alcotest.test_case "oracle: 200 generated programs" `Quick (check_identical generated);
    Alcotest.test_case "dominators agree with the oracle" `Quick test_dominators_agree;
    Alcotest.test_case "unreachable blocks" `Quick test_unreachable_blocks;
    QCheck_alcotest.to_alcotest prop_rset_order;
    Alcotest.test_case "allocation bound" `Quick test_licm_allocation;
  ]
