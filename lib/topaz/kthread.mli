(** Thin helpers over machine threads: blocking join and sleep.

    These are the Topaz thread facilities Amber builds on; Amber's own
    [Start]/[Join] (with result passing and the 1.33 ms cost) live in the
    [amber] library. *)

(** Block the calling fiber until [tcb] terminates.  Returns its outcome.
    Must be called from inside a fiber. *)
val join : Hw.Machine.tcb -> Sim.Fiber.outcome

(** Block the calling fiber for [dt] virtual seconds without occupying a
    CPU. *)
val sleep : engine:Sim.Engine.t -> float -> unit
