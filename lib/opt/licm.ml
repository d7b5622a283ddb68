(* Loop-invariant code motion.  Pure instructions whose operands are not
   defined inside the loop move to a fresh preheader.  The big practical
   winners here are global-address materialisations (AddrOf) and address
   arithmetic recomputed on every iteration, which local CSE cannot reach
   across the back edge.

   Safety conditions for hoisting instruction [i] with destination [d]:
   - pure, unguarded, and total (no Div/Rem: the preheader executes even
     when the loop body would not);
   - every register operand has no definition inside the loop;
   - [d] has exactly one definition in the loop (this one);
   - [d] is not live into the header (no use of a previous-iteration or
     pre-loop value);
   - [d] is not live into any loop exit (the loop may exit before the
     original definition executed).

   Hoisting iterates, so chains of invariant computations migrate one
   layer per round. *)

module Ir = Epic_mir.Ir
module Dom = Epic_mir.Dominators
module Liveness = Epic_mir.Liveness

let pure_total (k : Ir.inst_kind) =
  match k with
  | Ir.Bin ((Ir.Div | Ir.Rem), _, _, _) -> false
  | Ir.Bin _ | Ir.Mov _ | Ir.Cmp _ | Ir.Custom _ | Ir.AddrOf _ | Ir.FrameAddr _ ->
    true
  | Ir.Load _ | Ir.LoadFrame _  (* memory may change inside the loop *)
  | Ir.Store _ | Ir.StoreFrame _ | Ir.Call _ | Ir.Setp _ ->
    false

let fresh_label (f : Ir.func) =
  1 + List.fold_left (fun acc (b : Ir.block) -> max acc b.Ir.b_id) 0 f.Ir.f_blocks

(* Retarget every edge into [header] from outside [body] to [pre]. *)
let redirect_entries (f : Ir.func) body header pre =
  List.iter
    (fun (b : Ir.block) ->
      if (not (Dom.LSet.mem b.Ir.b_id body)) && b.Ir.b_id <> pre then begin
        let r l = if l = header then pre else l in
        b.Ir.b_term <-
          (match b.Ir.b_term with
           | Ir.Jmp l -> Ir.Jmp (r l)
           | Ir.Br (c, x, y, lt, lf) -> Ir.Br (c, x, y, r lt, r lf)
           | Ir.Ret _ as t -> t)
      end)
    f.Ir.f_blocks

(* Harvest the invariant instructions of loop [l] into a fresh preheader.
   [live] is whole-function liveness of [f] as it is now, shared by the
   round's candidate loops.  Returns false, leaving [f] untouched, when
   nothing is hoistable. *)
let hoist_loop (f : Ir.func) (live : Liveness.t Lazy.t) (l : Dom.loop) =
  let body_blocks =
    List.filter (fun (b : Ir.block) -> Dom.LSet.mem b.Ir.b_id l.Dom.body) f.Ir.f_blocks
  in
  (* Definition counts inside the loop, per GPR-class register. *)
  let def_count = Hashtbl.create 32 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i ->
          List.iter
            (fun (c, r) ->
              if c = Ir.Cgpr then
                Hashtbl.replace def_count r
                  (1 + Option.value ~default:0 (Hashtbl.find_opt def_count r)))
            (Ir.defs_of_inst i))
        b.Ir.b_insts)
    body_blocks;
  let live = Lazy.force live in
  let header_live_in = Liveness.live_in live l.Dom.header in
  (* Labels outside the loop reachable from inside (exit targets). *)
  let exit_live =
    List.fold_left
      (fun acc (b : Ir.block) ->
        List.fold_left
          (fun acc s ->
            if Dom.LSet.mem s l.Dom.body then acc
            else Liveness.RSet.union acc (Liveness.live_in live s))
          acc
          (Ir.successors b.Ir.b_term))
      Liveness.RSet.empty body_blocks
  in
  (* Every register operand of a pure instruction is a GPR-class use, so
     the uses check covers operand invariance. *)
  let hoistable (i : Ir.inst) =
    i.Ir.guard = None
    && pure_total i.Ir.kind
    && List.for_all
         (fun (c, r) -> c <> Ir.Cgpr || not (Hashtbl.mem def_count r))
         (Ir.uses_of_inst i)
    && (match Ir.defs_of_inst i with
        | [ (Ir.Cgpr, d) ] ->
          Hashtbl.find_opt def_count d = Some 1
          && (not (Liveness.RSet.mem (Ir.Cgpr, d) header_live_in))
          && not (Liveness.RSet.mem (Ir.Cgpr, d) exit_live)
        | _ -> false)
  in
  (* Blocks are harvested in layout order.  A harvested definition stops
     counting as an in-loop def, so its users in later blocks may follow
     it in this same harvest; users in its own block wait a round. *)
  let hoisted_rev =
    List.fold_left
      (fun acc (b : Ir.block) ->
        let keep, out = List.partition (fun i -> not (hoistable i)) b.Ir.b_insts in
        if out = [] then acc
        else begin
          b.Ir.b_insts <- keep;
          List.iter
            (fun i ->
              List.iter
                (fun (c, r) -> if c = Ir.Cgpr then Hashtbl.remove def_count r)
                (Ir.defs_of_inst i))
            out;
          out :: acc
        end)
      [] body_blocks
  in
  match hoisted_rev with
  | [] -> false
  | _ ->
    let pre = fresh_label f in
    let pre_block =
      { Ir.b_id = pre; b_insts = List.concat (List.rev hoisted_rev);
        b_term = Ir.Jmp l.Dom.header }
    in
    redirect_entries f l.Dom.body l.Dom.header pre;
    (* Keep layout order: the preheader sits right before its header. *)
    let rec insert = function
      | [] -> [ pre_block ]
      | (b : Ir.block) :: rest when b.Ir.b_id = l.Dom.header -> pre_block :: b :: rest
      | b :: rest -> b :: insert rest
    in
    f.Ir.f_blocks <- insert f.Ir.f_blocks;
    true

let run_func (f : Ir.func) =
  (* Hoisting rewires the CFG, so every analysis goes stale after a
     successful hoist: harvest one loop per round and re-analyse.  Each
     round solves dominators and natural loops once, and whole-function
     liveness at most once, shared by the round's candidate loops.  The
     sharing is exact: a loop that hoists nothing leaves [f] untouched,
     and the first loop that hoists ends the round.  Innermost (smallest)
     loops first, so values migrate outward one level per round. *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 16 do
    incr rounds;
    let doms = Dom.analyse f in
    let loops =
      List.sort
        (fun a b -> compare (Dom.LSet.cardinal a.Dom.body) (Dom.LSet.cardinal b.Dom.body))
        (Dom.natural_loops doms f)
    in
    let live = lazy (Liveness.analyse f) in
    changed := List.exists (fun l -> hoist_loop f live l) loops
  done

let run (p : Ir.program) =
  List.iter run_func p.Ir.p_funcs;
  p
