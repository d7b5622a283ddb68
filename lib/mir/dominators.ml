(* Dominator analysis and natural-loop discovery on MIR CFGs.  Used by
   loop-invariant code motion.

   Immediate dominators come from the Cooper-Harvey-Kennedy algorithm
   ("A Simple, Fast Dominance Algorithm"): number the blocks reachable
   from the entry in reverse postorder, then iterate
   idom(b) <- intersect over b's processed predecessors, walking two
   fingers up the partial dominator tree by postorder number, until
   nothing changes.  [dominates] walks the idom chain.

   Blocks unreachable from the entry have no immediate dominator.  Such
   a block dominates only itself and is dominated only by itself, no
   back edge leaves it, and no natural loop passes through it (the loop
   body walk skips unreachable predecessors).  Pipelines that run
   simplify-cfg first never show LICM such a block. *)

module LSet = Set.Make (Int)

type t = {
  entry : Ir.label;
  idom : (Ir.label, Ir.label) Hashtbl.t;  (* reachable labels; entry -> entry *)
  po : (Ir.label, int) Hashtbl.t;         (* postorder number, reachable only *)
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

(* Depth-first postorder numbering from [entry]; returns the reachable
   labels in reverse postorder. *)
let postorder (f : Ir.func) entry po =
  let succs = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) -> Hashtbl.replace succs b.Ir.b_id (Ir.successors b.Ir.b_term))
    f.Ir.f_blocks;
  let visited = Hashtbl.create 16 in
  let rpo = ref [] and n = ref 0 in
  let rec visit l =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.replace visited l ();
      List.iter visit (Hashtbl.find succs l);
      Hashtbl.replace po l !n;
      incr n;
      rpo := l :: !rpo
    end
  in
  visit entry;
  !rpo

let analyse (f : Ir.func) =
  let entry = (Ir.entry_block f).Ir.b_id in
  let preds = predecessors f in
  let po = Hashtbl.create 16 in
  let rpo = postorder f entry po in
  let idom = Hashtbl.create 16 in
  Hashtbl.replace idom entry entry;
  let rec intersect a b =
    if a = b then a
    else if Hashtbl.find po a < Hashtbl.find po b then intersect (Hashtbl.find idom a) b
    else intersect a (Hashtbl.find idom b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        if l <> entry then begin
          (* Unreachable and not-yet-processed predecessors have no idom. *)
          let next =
            List.fold_left
              (fun acc p ->
                if not (Hashtbl.mem idom p) then acc
                else match acc with None -> Some p | Some a -> Some (intersect p a))
              None (Hashtbl.find preds l)
          in
          match next with
          | Some d when Hashtbl.find_opt idom l <> Some d ->
            Hashtbl.replace idom l d;
            changed := true
          | Some _ | None -> ()
        end)
      rpo
  done;
  { entry; idom; po; preds }

let dominates t a b =
  if not (Hashtbl.mem t.po b) then a = b && Hashtbl.mem t.preds b
  else if not (Hashtbl.mem t.po a) then false
  else
    (* Every dominator of [b] has a postorder number at least [b]'s, so
       the walk stops once it passes [a]'s. *)
    let pa = Hashtbl.find t.po a in
    let rec up x =
      x = a || (x <> t.entry && Hashtbl.find t.po x < pa && up (Hashtbl.find t.idom x))
    in
    up b

(* Back edges: u -> h where h dominates u, u reachable. *)
let back_edges t (f : Ir.func) =
  List.concat_map
    (fun (b : Ir.block) ->
      if not (Hashtbl.mem t.po b.Ir.b_id) then []
      else
        List.filter_map
          (fun s -> if dominates t s b.Ir.b_id then Some (b.Ir.b_id, s) else None)
          (Ir.successors b.Ir.b_term))
    f.Ir.f_blocks

(* The natural loop of back edge (u, h): h plus every reachable node that
   reaches u without passing through h.  Loops sharing a header are
   merged. *)
type loop = { header : Ir.label; body : LSet.t }

let natural_loops t (f : Ir.func) =
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (u, h) ->
      let body = ref (LSet.of_list [ h; u ]) in
      let rec pull n =
        if Hashtbl.mem t.po n && not (LSet.mem n !body) then begin
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
