(* Reference oracle for loop-invariant code motion: the original pass,
   kept verbatim as a test-only module.  It re-solves liveness for every
   candidate loop and computes dominator sets by iterative set
   intersection.  [Test_licm] checks that the production pass produces
   the same MIR and the same dominance facts.  Do not optimise this
   file: its value is that it is the old, obviously-correct code. *)

module Ir = Epic.Ir
module Liveness = Epic.Liveness

(* Dominator sets by iterative set intersection. *)
module Dom = struct
  module LSet = Set.Make (Int)

  type t = {
    dom : (Ir.label, LSet.t) Hashtbl.t;          (* label -> its dominators *)
    preds : (Ir.label, Ir.label list) Hashtbl.t;
  }

  let predecessors (f : Ir.func) =
    let preds = Hashtbl.create 16 in
    List.iter (fun (b : Ir.block) -> Hashtbl.replace preds b.Ir.b_id []) f.Ir.f_blocks;
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun s -> Hashtbl.replace preds s (b.Ir.b_id :: Hashtbl.find preds s))
          (Ir.successors b.Ir.b_term))
      f.Ir.f_blocks;
    preds

  let analyse (f : Ir.func) =
    let entry = (Ir.entry_block f).Ir.b_id in
    let labels = List.map (fun (b : Ir.block) -> b.Ir.b_id) f.Ir.f_blocks in
    let all = LSet.of_list labels in
    let preds = predecessors f in
    let dom = Hashtbl.create 16 in
    List.iter
      (fun l ->
        Hashtbl.replace dom l (if l = entry then LSet.singleton entry else all))
      labels;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun l ->
          if l <> entry then begin
            let ps = Hashtbl.find preds l in
            let inter =
              List.fold_left
                (fun acc p ->
                  match acc with
                  | None -> Some (Hashtbl.find dom p)
                  | Some s -> Some (LSet.inter s (Hashtbl.find dom p)))
                None ps
            in
            let next =
              LSet.add l (match inter with Some s -> s | None -> LSet.empty)
            in
            if not (LSet.equal next (Hashtbl.find dom l)) then begin
              Hashtbl.replace dom l next;
              changed := true
            end
          end)
        labels
    done;
    { dom; preds }

  let dominates t a b =
    match Hashtbl.find_opt t.dom b with
    | Some s -> LSet.mem a s
    | None -> false

  (* Back edges: u -> h where h dominates u. *)
  let back_edges t (f : Ir.func) =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter_map
          (fun s -> if dominates t s b.Ir.b_id then Some (b.Ir.b_id, s) else None)
          (Ir.successors b.Ir.b_term))
      f.Ir.f_blocks

  (* The natural loop of back edge (u, h): h plus every node that reaches u
     without passing through h.  Loops sharing a header are merged. *)
  type loop = { header : Ir.label; body : LSet.t }

  let natural_loops t (f : Ir.func) =
    let by_header = Hashtbl.create 8 in
    List.iter
      (fun (u, h) ->
        let body = ref (LSet.of_list [ h; u ]) in
        let rec pull n =
          if not (LSet.mem n !body) then begin
            body := LSet.add n !body;
            List.iter pull (Hashtbl.find t.preds n)
          end
        in
        if u <> h then List.iter pull (Hashtbl.find t.preds u);
        let prev =
          Option.value ~default:LSet.empty (Hashtbl.find_opt by_header h)
        in
        Hashtbl.replace by_header h (LSet.union prev !body))
      (back_edges t f);
    Hashtbl.fold (fun header body acc -> { header; body } :: acc) by_header []
end

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

let hoist_loop (f : Ir.func) (l : Dom.loop) =
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
  let live = Liveness.analyse f in
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
  let operand_invariant (o : Ir.operand) =
    match o with
    | Ir.Imm _ -> true
    | Ir.Reg r -> not (Hashtbl.mem def_count r)
  in
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
    &&
    (* operand_invariant is already covered by the uses check; keep the
       helper for readability of intent. *)
    List.for_all
      (fun o -> operand_invariant o)
      (match i.Ir.kind with
       | Ir.Bin (_, _, a, b) | Ir.Cmp (_, _, a, b) | Ir.Custom (_, _, a, b) ->
         [ a; b ]
       | Ir.Mov (_, a) -> [ a ]
       | _ -> [])
  in
  let hoisted = ref [] in
  List.iter
    (fun (b : Ir.block) ->
      let keep, out = List.partition (fun i -> not (hoistable i)) b.Ir.b_insts in
      if out <> [] then begin
        b.Ir.b_insts <- keep;
        hoisted := !hoisted @ out;
        (* The moved definitions no longer count as in-loop defs, but we
           only perform one harvest per loop per round; chains migrate on
           the next round. *)
        List.iter
          (fun i ->
            List.iter
              (fun (c, r) -> if c = Ir.Cgpr then Hashtbl.remove def_count r)
              (Ir.defs_of_inst i))
          out
      end)
    body_blocks;
  match !hoisted with
  | [] -> false
  | insts ->
    let pre = fresh_label f in
    let pre_block = { Ir.b_id = pre; b_insts = insts; b_term = Ir.Jmp l.Dom.header } in
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
  (* Hoisting rewires the CFG, so loop/dominator/liveness facts go stale
     after every successful hoist: harvest one loop per round and
     re-analyse.  Innermost (smallest) loops first, so values migrate
     outward one level per round. *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 16 do
    incr rounds;
    changed := false;
    let doms = Dom.analyse f in
    let loops =
      List.sort
        (fun a b -> compare (Dom.LSet.cardinal a.Dom.body) (Dom.LSet.cardinal b.Dom.body))
        (Dom.natural_loops doms f)
    in
    changed := List.exists (fun l -> hoist_loop f l) loops
  done

let run (p : Ir.program) =
  List.iter run_func p.Ir.p_funcs;
  p
