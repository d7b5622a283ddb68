(* The toolchain composed one public layer call at a time, each inside a
   span: cfront -> every optimiser pass (one [Pipeline.run] per pass, in
   the default order) -> sched (layout, codegen, regalloc, list
   scheduling) -> asm -> predecode -> sim.  The traced run checks that
   this composition computes what [Toolchain.compile_epic]/[run_epic]
   compute. *)

module T = Epic.Toolchain
module Opt = Epic.Opt
module Sim = Epic.Sim
module Memmap = Epic.Memmap

let span = Span.span

(* The registered passes, in the order the default EPIC pipeline first
   runs them; the metric names follow this list. *)
let pass_names =
  [ "simplify-cfg"; "inline"; "inline-small"; "constfold"; "cse"; "licm";
    "dce"; "if-convert" ]

let front ~target ~predication source =
  let mir =
    span "cfront" (fun () -> Epic.Cfront.compile ~unroll:T.default_unroll source)
  in
  let passes =
    match target with
    | `Epic -> Opt.default_passes ~epic:true ~predication
    | `Arm -> Opt.default_passes ~epic:false ~predication:false
  in
  List.fold_left
    (fun mir (p : Opt.pass) ->
      span ("opt." ^ p.Opt.pass_name) (fun () -> fst (Opt.Pipeline.run [ p ] mir)))
    mir passes

let insts (p : Epic.Ir.program) = (Opt.Pipeline.shape p).Opt.Pipeline.sh_insts

(* Backend of one design point; the MIR is copied first because the
   backend mutates what it compiles (the toolchain's discipline). *)
let backend cfg mir =
  let cfg = Epic.Config.validate_exn cfg in
  let mir = Opt.Common.copy_program mir in
  let layout, unit_, sched =
    span "sched" (fun () ->
        let layout = Memmap.layout mir in
        let unit_, sched = Epic.Sched.compile_program cfg layout mir in
        (layout, unit_, sched))
  in
  let image, words = span "asm" (fun () -> Epic.Asm.assemble cfg unit_) in
  let pre = span "predecode" (fun () -> Sim.Predecode.of_image cfg image) in
  { T.ea_config = cfg; ea_mir = mir; ea_layout = layout; ea_unit = unit_;
    ea_image = image; ea_words = words; ea_sched = sched;
    ea_report = Opt.Pipeline.empty_report; ea_pre = pre }

let entry (a : T.epic_artifacts) =
  match List.assoc_opt "_start" a.T.ea_image.Epic.Asm.Aunit.im_symbols with
  | Some e -> e
  | None -> 0

(* Words allocated by the last [Sim.run] alone (memory set-up excluded). *)
let last_run_words = ref 0.

let simulate (a : T.epic_artifacts) =
  span "sim" (fun () ->
      let mem = Memmap.init_memory a.T.ea_layout a.T.ea_mir in
      let w0 = Span.words () in
      let r =
        Sim.run ~pre:a.T.ea_pre a.T.ea_config ~image:a.T.ea_image ~mem
          ~entry:(entry a) ()
      in
      last_run_words := Span.words () -. w0;
      r)

let arm source =
  let mir = front ~target:`Arm ~predication:false source in
  let prog, layout, linked =
    span "arm.compile" (fun () -> Epic.Arm.compile_program mir)
  in
  span "arm.sim" (fun () ->
      let mem = Memmap.init_memory layout linked in
      Epic.Arm.Sim.run prog ~mem ())
