(** Amber-LB front door: wires telemetry, stealing and adaptive placement
    into one handle a program brackets its run with.

    {[
      let lb = Balance.Driver.start rt { Balance.Driver.default_cfg with
                                         policy = Balance.Rebalancer.Hybrid;
                                         steal = true } in
      ... workload ...
      Balance.Driver.stop lb
    ]}

    With [policy = Off] and [steal = false] the handle is inert: zero
    events scheduled, zero RNG draws, zero report lines — the run is
    byte-identical to one that never created the handle.  Otherwise all
    randomness comes from a stream split off the engine's root RNG, so
    the balanced run is itself deterministic per seed.

    The policy, the stealer and the tick period are the only settings.
    Every other tuning value is a constant of the module that reads it:
    {!Loadinfo}'s EWMA weight, {!Stealer}'s victim threshold and
    {!Rebalancer}'s cycle period, hysteresis, budget and thresholds. *)

type cfg = {
  policy : Rebalancer.policy;
  steal : bool;  (** enable the stealer alongside any policy *)
  gossip_interval : float;  (** telemetry/steal tick period (seconds) *)
}

val default_cfg : cfg

type t

(** Start the subsystem: schedules the gossip/steal tick and spawns the
    rebalancer daemon (policy permitting).  Raises [Invalid_argument] on
    a non-positive [gossip_interval].  Fiber context. *)
val start : Amber.Runtime.t -> cfg -> t

(** Cancel the tick and stop/join the daemon so [Cluster.run] can drain.
    Must be called before the main thread returns.  Fiber context.
    Idempotent on an inert handle. *)
val stop : t -> unit

(** Moves performed by the rebalancer, oldest first. *)
val move_log : t -> Rebalancer.move list

(** The telemetry instance, when the subsystem is live. *)
val loadinfo : t -> Loadinfo.t option
