(** Sanitizer instrumentation: the one event stream.

    The runtime layers ({!Invoke}, {!Sync}, {!Athread}, {!Future},
    {!Mobility}, {!Runtime}) and the balancer's stealer emit an {!Event.t}
    at every point a dynamic analysis needs to observe — the points where
    Amber's §3.5 protocol runs: thread lifecycle, synchronization edges,
    object accesses and protocol-level moves.  Each site builds its event
    inside {!Runtime.with_san}, so while no sanitizer is attached the cost
    is a single [None] branch and no event is built, like a
    {!Sim.Span.mark} while marks are off.  Hooks never charge virtual
    time, so an instrumented run is bit-identical to an uninstrumented
    one.

    The consumers live outside this library (in [lib/analysis]) and
    install themselves with {!Runtime.set_sanitizer}: AmberSan analyzes
    the stream and records it as ["san"] marks in the {!Event.to_string}
    codec, so a recorded run can be linted offline; AmberCheck maps each
    event to a dynamic conflict key.  A new instrumentation point is one
    constructor, its codec lines, its emit site and one arm in each
    consumer's match. *)

(** How an invocation accesses the object's state.

    [Atomic] (the default everywhere) declares a self-contained action:
    the read-modify-write happens entirely inside one invocation, which
    the runtime serializes at the object.  [Read]/[Write] declare one
    step of a multi-invocation protocol whose steps must be ordered by
    explicit synchronization — this is what the race detector checks. *)
type mode = Read | Write | Atomic

val pp_mode : Format.formatter -> mode -> unit

(** {1 Events}

    Thread ids are tcb ids ({!Hw.Machine.tcb_id}); [tid] is the emitting
    thread unless stated otherwise.  The text codec is one line per event
    and stable: it is the ["san"] mark format. *)

module Event : sig
  type barrier_phase = Arrive | Release | Resume

  type t =
    | Thread_start of { parent : int; child : int }
        (** [parent = -1] when the spawner is not an Amber thread *)
    | Thread_join of { parent : int; child : int }
    | Migrate of { tid : int; src : int; dst : int }
        (** thread [tid]'s state left node [src] for node [dst] *)
    | Object_created of { addr : int; name : string }
    | Object_destroyed of { addr : int }
        (** emitted while the object is still in {!Runtime.objects} *)
    | Sync_created of { addr : int; kind : string }
        (** marks an object as a synchronization object: its own state is
            protocol-internal and excluded from race checking *)
    | Access of { tid : int; addr : int; mode : mode }
        (** before the invocation's operation runs *)
    | Access_end of { tid : int; addr : int }
        (** after the operation returns or raises *)
    | Lock_acquired of { tid : int; addr : int }
    | Lock_released of { tid : int; addr : int }
    | Barrier of { tid : int; addr : int; gen : int; phase : barrier_phase }
    | Cond_signal of { tid : int; token : int }
    | Cond_wake of { tid : int; token : int }
    | Move_begin of { addr : int }
    | Move_end of { addr : int }
        (** an object move or immutable copy starts / finishes.  Mid-move
            an object legally has no resident node, so a coherence audit
            is only sound when every begun move has ended *)
    | Replica_read of { tid : int; addr : int; node : int; epoch : int }
        (** a Read invocation was served from the replica snapshot on
            [node], taken at [epoch]; the sanitizer compares against the
            object's current epoch and replica set to catch stale serves *)
    | Steal of { by : int; tid : int; victim : int; thief : int }
        (** the balancer's stealer (agent thread [by], [-1] outside a
            fiber) dequeued runnable thread [tid] from node [victim]'s
            ready queue and is shipping it to node [thief].  The dequeue
            happens before the thread runs at the thief, so this is a
            happens-before edge ([by]'s clock joins into [tid]'s), which
            the race detector must honor to avoid false positives under
            [--steal] *)
    | Future_resolve of { tid : int; id : int }
        (** the helper thread [tid] carrying async invocation [id]
            finished and resolved its future, after the invocation's
            effects are visible at the future's home node; like a
            condition signal, the resolver's clock is published under
            the future id *)
    | Future_await of { tid : int; id : int }
        (** thread [tid] observed future [id] resolved in [Future.await]
            and joins the stored resolve clock — the happens-before edge
            resolve → await *)

  val to_string : t -> string

  (** Inverse of {!to_string}; [None] on anything unrecognized. *)
  val of_string : string -> t option
end

(** A sanitizer: called synchronously at each emit site, in the emitting
    fiber (in event context for a directed {!Event.Steal}). *)
type t = Event.t -> unit

(** The tcb id of the calling thread, [-1] outside a fiber. *)
val self_tid : unit -> int
