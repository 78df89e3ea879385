(** Load telemetry: a per-node load board fed by EWMA samples and spread
    by seeded gossip.

    Every tick (scheduled by {!Driver}) each node samples its own
    machine — ready-queue depth and occupied CPUs — folds the sample into
    its own board entry with an exponentially-weighted moving average
    (weight 0.5 on the fresh sample), and sends its whole board to one
    seeded-random peer as a small reliable datagram
    ([kind = "gossip"]).  The receiver merges entries
    by stamp recency, so views of remote nodes converge within a few
    ticks without any broadcast.  Local sampling is free; only the
    gossip datagrams cost wire time and receiver CPU.

    Nothing here runs unless {!Driver.start} activated the balancer, so
    balance-off runs schedule no events and draw no random numbers. *)

type entry = {
  mutable ready : float;  (** EWMA of ready-queue length *)
  mutable running : float;  (** EWMA of occupied CPUs *)
  mutable stamp : float;  (** virtual time the entry was sampled at *)
}

type t

val create : Amber.Runtime.t -> rng:Sim.Rng.t -> t

(** [viewer]'s current board: one entry per node.  The viewer's own entry
    is at most one tick old; peer entries lag by gossip latency. *)
val board : t -> viewer:int -> entry array

(** Scalar load of an entry: ready + running. *)
val load : entry -> float

(** One telemetry round: sample every node's own entry, gossip each board
    to one random peer.  Called from the driver's tick event (event
    context). *)
val tick : t -> unit
