(** The software-in-the-loop virtual machine, under one roof:
    {!Silvm.Compiled} (closure compiler), {!Silvm.App}
    (generated-application driver) and {!Silvm.Diff} (MIL<->SIL
    differential harness). The reference C semantics both SIL engines
    answer to is {!Mir_eval}. *)

module Compiled = Silvm_compile
module App = Silvm_app
module Diff = Silvm_diff
