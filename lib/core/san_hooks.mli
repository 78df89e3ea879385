(** Sanitizer instrumentation points.

    The runtime layers ({!Invoke}, {!Sync}, {!Athread}, {!Mobility},
    {!Runtime}) call these hooks at every event a dynamic analysis needs
    to observe: thread lifecycle, synchronization edges, object accesses
    and protocol-level moves.  When no sanitizer is attached the cost is
    a single [None] branch per site, like a {!Sim.Span.mark} while marks
    are off; hooks never charge virtual time, so an instrumented run is
    bit-identical to an uninstrumented one.

    The implementation lives outside this library (in [lib/analysis]) and
    installs itself with {!Runtime.set_sanitizer}. *)

(** How an invocation accesses the object's state.

    [Atomic] (the default everywhere) declares a self-contained action:
    the read-modify-write happens entirely inside one invocation, which
    the runtime serializes at the object.  [Read]/[Write] declare one
    step of a multi-invocation protocol whose steps must be ordered by
    explicit synchronization — this is what the race detector checks. *)
type mode = Read | Write | Atomic

type t = {
  on_thread_start : parent:Hw.Machine.tcb option -> child:Hw.Machine.tcb -> unit;
  on_thread_join : child:Hw.Machine.tcb -> unit;
  on_migrate : tcb:Hw.Machine.tcb -> src:int -> dst:int -> unit;
  on_object_created : Aobject.any -> unit;
  on_object_destroyed : addr:int -> unit;
  on_sync_created : addr:int -> kind:string -> unit;
      (** marks an object as a synchronization object: its own state is
          protocol-internal and excluded from race checking *)
  on_access : Aobject.any -> mode -> unit;  (** before the operation runs *)
  on_access_end : Aobject.any -> unit;  (** after the operation returns *)
  on_lock_acquired : addr:int -> name:string -> unit;
  on_lock_released : addr:int -> unit;
  on_barrier_arrive : addr:int -> gen:int -> unit;
  on_barrier_release : addr:int -> gen:int -> unit;
  on_barrier_resume : addr:int -> gen:int -> unit;
  on_cond_signal : token:int -> unit;
  on_cond_wake : token:int -> unit;
  on_move_begin : addr:int -> unit;
  on_move_end : Aobject.any -> unit;
  on_replica_read : Aobject.any -> node:int -> epoch:int -> unit;
      (** a Read invocation was served from the replica snapshot on
          [node], taken at [epoch]; the sanitizer compares against the
          object's current epoch and replica set to catch stale serves *)
  on_steal : tcb:Hw.Machine.tcb -> victim:int -> thief:int -> unit;
      (** the balancer's stealer dequeued runnable [tcb] from [victim]'s
          ready queue and is shipping it to [thief].  The dequeue happens
          before the thread runs at the thief, so this is a happens-before
          edge (victim-side state → stolen thread), which the race
          detector must honor to avoid false positives under [--steal].
          Fires in event context — there is no current fiber. *)
  on_future_resolve : id:int -> unit;
      (** the helper thread carrying async invocation [id] finished and
          resolved the future (fires in the helper's fiber, after the
          invocation's effects are visible at the future's home node) *)
  on_future_await : id:int -> unit;
      (** a thread observed future [id] resolved in [Future.await]; the
          resolver's clock joins into the awaiter's — the happens-before
          edge resolve → await *)
}

val mode_to_string : mode -> string
val mode_of_string : string -> mode option
val pp_mode : Format.formatter -> mode -> unit
