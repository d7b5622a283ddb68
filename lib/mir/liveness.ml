(* Backward iterative liveness analysis over MIR, covering both register
   classes (GPR-class virtuals and predicate virtuals). *)

(* Ordered by class (GPR before predicate), then by number: the order
   polymorphic [compare] gives, without its cost.  Register allocation
   iterates these sets, so the order is part of the interface. *)
module RSet = Set.Make (struct
  type t = Ir.rclass * int

  let compare ((c1, n1) : t) ((c2, n2) : t) =
    match (c1, c2) with
    | Ir.Cgpr, Ir.Cpred -> -1
    | Ir.Cpred, Ir.Cgpr -> 1
    | Ir.Cgpr, Ir.Cgpr | Ir.Cpred, Ir.Cpred -> Int.compare n1 n2
end)

type t = {
  live_in : (Ir.label, RSet.t) Hashtbl.t;
  live_out : (Ir.label, RSet.t) Hashtbl.t;
}

let block_use_def (b : Ir.block) =
  (* use = registers read before any (full) definition; def = registers
     fully defined.  A guarded definition does not kill. *)
  let rec go insts use def =
    match insts with
    | [] ->
      let term_uses = Ir.uses_of_term b.b_term in
      let use =
        List.fold_left
          (fun use r -> if RSet.mem r def then use else RSet.add r use)
          use term_uses
      in
      (use, def)
    | i :: rest ->
      let use =
        List.fold_left
          (fun use r -> if RSet.mem r def then use else RSet.add r use)
          use
          (Ir.uses_of_inst i @ Ir.partial_defs i)
      in
      let def =
        if i.Ir.guard = None then
          List.fold_left (fun def r -> RSet.add r def) def (Ir.defs_of_inst i)
        else def
      in
      go rest use def
  in
  go b.b_insts RSet.empty RSet.empty

let analyse (f : Ir.func) =
  let live_in = Hashtbl.create 16 and live_out = Hashtbl.create 16 in
  let use_def = Hashtbl.create 16 in
  List.iter
    (fun b ->
      Hashtbl.replace use_def b.Ir.b_id (block_use_def b);
      Hashtbl.replace live_in b.Ir.b_id RSet.empty;
      Hashtbl.replace live_out b.Ir.b_id RSet.empty)
    f.f_blocks;
  let changed = ref true in
  while !changed do
    changed := false;
    (* Reverse order converges faster for mostly-forward CFGs. *)
    List.iter
      (fun b ->
        let id = b.Ir.b_id in
        let out =
          List.fold_left
            (fun acc s -> RSet.union acc (Hashtbl.find live_in s))
            RSet.empty
            (Ir.successors b.Ir.b_term)
        in
        let use, def = Hashtbl.find use_def id in
        let inn = RSet.union use (RSet.diff out def) in
        if not (RSet.equal out (Hashtbl.find live_out id)) then begin
          Hashtbl.replace live_out id out;
          changed := true
        end;
        if not (RSet.equal inn (Hashtbl.find live_in id)) then begin
          Hashtbl.replace live_in id inn;
          changed := true
        end)
      (List.rev f.f_blocks)
  done;
  { live_in; live_out }

let live_in t l = Hashtbl.find t.live_in l
let live_out t l = Hashtbl.find t.live_out l

(* Walk a block backwards producing the live set before each instruction;
   [f] receives the instruction index and the set live *after* it.  Used by
   dead-code elimination and interval construction. *)
let fold_block_backward t (b : Ir.block) ~init ~f =
  let after_term = live_out t b.Ir.b_id in
  let live = ref (RSet.union after_term (RSet.of_list (Ir.uses_of_term b.Ir.b_term))) in
  let n = List.length b.Ir.b_insts in
  let arr = Array.of_list b.Ir.b_insts in
  let acc = ref init in
  for k = n - 1 downto 0 do
    let i = arr.(k) in
    acc := f !acc k i !live;
    let without_defs =
      if i.Ir.guard = None then
        List.fold_left (fun s r -> RSet.remove r s) !live (Ir.defs_of_inst i)
      else !live
    in
    live :=
      List.fold_left
        (fun s r -> RSet.add r s)
        without_defs
        (Ir.uses_of_inst i @ Ir.partial_defs i)
  done;
  !acc
