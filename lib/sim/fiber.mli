(** Effect-based coroutines ("fibers") — the execution substrate for every
    simulated thread (Amber threads, Topaz kernel threads, RPC servers).

    A fiber is ordinary OCaml code that periodically performs one of three
    scheduling effects:

    - {!consume}[ dt] — occupy the executing (virtual) CPU for [dt] virtual
      seconds.  The executor decides how to account for it, including
      slicing it across timeslice quanta.
    - {!block}[ register] — suspend until some other party calls the wake
      function handed to [register].
    - {!yield} — relinquish the CPU but remain runnable.

    Fibers are trampolined: {!start} (and each resumption) runs the fiber
    until its next effect and returns a {!paused} value describing it.  The
    executor (see [Hw.Cpu]) owns all policy: when to resume, which CPU to
    charge, how to preempt. *)

type outcome = Completed | Failed of exn

(** How a fiber can be continued after a pause.

    A fiber hands out one resumption, built by {!start}: every pause of
    that fiber carries the same record, and it continues the fiber's
    latest pause.  Each pause is continued at most once: calling [resume]
    or [abort] when the fiber has not paused since it was last continued
    (or has finished) raises [Invalid_argument]. *)
type resumption = {
  resume : unit -> paused;  (** continue normally *)
  abort : exn -> paused;    (** continue by raising [exn] inside the fiber *)
}

and paused =
  | Done of outcome
  | Consumed of float * resumption
      (** fiber asked to burn CPU for the given virtual duration *)
  | Blocked of ((unit -> unit) -> unit) * resumption
      (** fiber suspended; the function registers a one-shot waker *)
  | Yielded of resumption

(** Run [body] until its first pause (or completion). *)
val start : (unit -> unit) -> paused

(** {2 Effects performed from inside a fiber}

    Calling these outside a fiber raises [Effect.Unhandled]. *)

(** Charge [dt] virtual seconds of CPU time.  [dt] must be >= 0.  A
    positive [dt] is first offered to the executor's in-place hook (see
    {!set_in_place}); only when the hook declines does the fiber pause
    with [Consumed]. *)
val consume : float -> unit

(** Suspend; [register] receives the waker that makes this fiber runnable
    again.  The waker must be called at most once. *)
val block : ((unit -> unit) -> unit) -> unit

val yield : unit -> unit

(** {2 Completing a consume in place}

    An executor that resumes a fiber may install a hook for as long as
    that fiber runs.  {!consume}[ dt] calls it with [dt] before pausing;
    a hook that returns [true] has charged [dt] itself, and the fiber
    carries on without a pause.  The hook must decline a consume that
    is not the resumed fiber's own.  With none installed, every consume
    pauses. *)

val set_in_place : (float -> bool) -> unit

(** Remove the hook: every consume pauses again. *)
val clear_in_place : unit -> unit
