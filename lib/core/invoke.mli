(** Location-independent object invocation (paper §2, §3.2–§3.5).

    [invoke rt obj op] runs [op] on [obj]'s representation {e at the node
    where the object resides}.  The calling thread's invocation frame is
    pushed {e before} the residency check (the §3.5 race-avoidance
    protocol); if the object is not resident, the invocation traps and the
    thread migrates to the object's node, chasing forwarding addresses as
    needed.  On return, the enclosing frame's object is re-checked and the
    thread migrates back if that object moved meanwhile.

    A local invocation costs only the entry/exit checks (the paper's
    12 µs); a remote invocation costs two thread-state flights (the
    paper's 8.32 ms under Table-1 conditions). *)

(** [invoke rt ?payload ?return_payload obj op] applies [op] to the
    object's state wherever it lives.

    [payload] models argument bytes that must travel with the thread on a
    remote invocation (e.g. an edge row passed by value in SOR);
    [return_payload] models result bytes carried back.  Both default to 0
    — reference parameters are addresses and effectively free.

    [mode] is the access declaration the sanitizer checks (see
    {!San_hooks.mode}).  The default [Atomic] declares a self-contained
    action serialized at the object; [`Read]/[`Write] declare one step of
    a multi-invocation protocol that must be ordered by explicit
    synchronization.  When the object has read replicas ({!Coherence}),
    the mode also selects the coherence path: a [Read] invocation settles
    on — and runs against the snapshot of — a local replica if one
    exists, while [Write]/[Atomic] invocations reach the master and recall
    every replica (an acknowledged invalidation round) before running.
    For objects with no replicas, execution is unchanged.

    Must be called from an Amber thread.  Exceptions raised by [op]
    propagate after the return-path accounting. *)
val invoke :
  Runtime.t ->
  ?payload:int ->
  ?return_payload:int ->
  ?mode:San_hooks.mode ->
  'a Aobject.t ->
  ('a -> 'b) ->
  'b

(** True while the calling thread holds an invocation frame on [obj] —
    i.e. co-residency with [obj] is currently guaranteed (§3.6). *)
val executing_within : Runtime.t -> 'a Aobject.t -> bool

(** The §3.6 optimization: invoke a {e member} object with an inline call,
    skipping the residency checks and the invocation frame entirely
    ("if the lock is a member object of the protected object then it can
    be safely acquired and released using fast inline function calls").

    Legal only when co-residency is guaranteed: [obj] must belong to the
    attachment closure of the object the calling thread is currently
    executing within.  The closure moves as one and the thread is bound to
    its root, so [obj] can never escape mid-call.  Raises
    [Invalid_argument] when the guarantee does not hold — the safe
    surfacing of what in C++ would be "incorrect program behavior". *)
val invoke_member :
  Runtime.t -> ?mode:San_hooks.mode -> 'a Aobject.t -> ('a -> 'b) -> 'b

(** [chase_step rt ts ~node] is one visit of [ts]'s invocation chases,
    settling or returning: trap and fly the thread to [node], carrying
    its [carry_bytes], and read [node]'s descriptor of the object of its
    top frame.  {!Athread} builds each thread's [chase_step] from it
    once.  Fiber context. *)
val chase_step :
  Runtime.t -> Runtime.tstate -> node:int -> Descriptor.state option
