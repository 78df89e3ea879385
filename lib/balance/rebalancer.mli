(** Adaptive object placement: a daemon thread that watches per-object
    invocation windows and machine load, and moves objects to fix what it
    sees.

    Every 25 ms of virtual time the daemon runs one observation cycle of
    two passes:

    - {e affinity}: an object whose window shows one remote node making
      at least 8 of its invocations, and twice as many as everyone else
      combined, migrates to that node;
    - {e spread} (policy [Hybrid] only): objects are ranked by how many
      threads are {e rooted} in them (outermost invocation frame), and
      the hot node hands its largest movable root to the coldest node
      until the rooted-load gap is under 2 threads or the budget runs
      out.

    Every move is rate-limited: at most 8 moves per cycle, and never the
    same object twice within one {!hysteresis} window. *)

type policy = Off | Affinity | Hybrid

val hysteresis : float
(** Minimum virtual time between two balancer moves of one object:
    100 ms. *)

type move = { at : float; addr : int; src : int; dst : int }

type t

val create : Amber.Runtime.t -> policy:policy -> t

(** Spawn the daemon thread (no-op under [Off]).  Fiber
    context; charges the ordinary thread-start cost to the caller. *)
val start : t -> unit

(** Stop the daemon and join it, so the simulation can drain.  Fiber
    context. *)
val stop : t -> unit

(** Every move performed so far, oldest first.  Tests use this to check
    the hysteresis rule. *)
val move_log : t -> move list
