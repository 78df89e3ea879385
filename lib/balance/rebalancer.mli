(** Adaptive object placement: a daemon thread that watches per-object
    invocation windows and machine load, and moves (or replicates)
    objects to fix what it sees.

    Two passes per observation cycle:

    - {e affinity}: an object whose window shows one remote node
      dominating its invocations migrates to that node — or, when the
      traffic is read-dominated, from several nodes, and the program
      registered a copier ({!allow_replication}), gains a read replica
      there instead;
    - {e spread} (policy [Hybrid] only): objects are ranked by how many
      threads are {e rooted} in them (outermost invocation frame), and
      the hot node hands its largest movable root to the coldest node
      until the rooted-load gap closes or the budget runs out.

    Every action is rate-limited: at most [move_budget] actions per
    cycle, and never the same object twice within one [hysteresis]
    window. *)

type policy = Off | Affinity | Hybrid

type cfg = {
  interval : float;  (** observation-cycle period (virtual seconds) *)
  hysteresis : float;
      (** minimum time between two balancer actions on one object *)
  move_budget : int;  (** max actions (moves + replicas) per cycle *)
  min_invocations : int;
      (** dominant-caller count below which the affinity pass ignores an
          object (too little signal) *)
  dominance : float;
      (** the dominant caller must beat everyone else combined by this
          factor before the object follows it *)
  spread_threshold : int;
      (** rooted-load gap (in threads) the spread pass tolerates *)
  read_ratio : float;
      (** window read fraction above which a replica is preferred over a
          move *)
}

val default_cfg : cfg

type move = { at : float; addr : int; src : int; dst : int }

type t

val create : Amber.Runtime.t -> policy:policy -> cfg:cfg -> t

(** Spawn the daemon thread (no-op under [Off]).  Fiber
    context; charges the ordinary thread-start cost to the caller. *)
val start : t -> unit

(** Stop the daemon and join it, so the simulation can drain.  Fiber
    context. *)
val stop : t -> unit

(** Register a deep-copy function for [obj], permitting the affinity pass
    to install read replicas of it ({!Amber.Coherence.install}); without
    a registration the pass always moves. *)
val allow_replication : t -> 'a Amber.Aobject.t -> copy:('a -> 'a) -> unit

(** Every move performed so far, oldest first.  Tests use this to check
    the hysteresis rule. *)
val move_log : t -> move list
