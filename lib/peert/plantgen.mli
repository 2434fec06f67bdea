(** C emitters for plant-side (continuous) blocks.

    The embedded target refuses these blocks — code is generated "for the
    controller subsystem only" (§5) — but the {e simulator} target needs
    them: the paper generates the plant model "for the xPC target and
    started on the simulator PC" (§6), and its conclusions call for a
    Linux replacement. Continuous dynamics are realised per block with the
    input held over the step (zero-order-hold coupling): linear
    first-order blocks use their exact discretisation, higher-order and
    nonlinear blocks a baked fixed-step RK4. *)

val emit : dt:float -> Blockgen.gctx -> Block.spec -> Blockgen.gen
(** Emit the simulator realisation of a plant block at the simulator step
    [dt]. Kinds covered: Integrator, FirstOrder, TransferFcn, StateSpace,
    DcMotor, PowerStage, ThermalPlant; anything else
    falls through to {!Blockgen.emit}. *)

val supported_sim : Block.spec -> bool
(** Whether the block has a simulator-side realisation (embedded-
    supported kinds included). *)
