(** PEERT_PIL: the processor-in-the-loop variant of the target (§6).

    "The code generated for the peripheral blocks does not handle the
    peripherals hardware, but read/write the data from/to the
    communication buffer … some interrupt service routines are not
    invoked by the peripherals but the communication interrupt service
    routine when a corresponding event is indicated by the received
    packet." This wraps {!Target.generate} in [Pil] mode and adds the
    target-side communication runtime (framer, packet parser, reply
    composer) bound to the project's AsynchroSerial bean. *)

val generate :
  ?opt:bool ->
  name:string -> project:Bean_project.t -> Compile.t -> Target.artifacts
(** [opt] forwards to {!Target.generate} (MIR optimization passes on the
    model unit, default off).
    @raise Target.Codegen_error additionally when the bean project has no
    AsynchroSerial bean to carry the PIL link. *)
