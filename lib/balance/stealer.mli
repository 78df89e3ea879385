(** Thread stealing: idle nodes pull runnable unbound threads from loaded
    peers.

    Each tick, every node with a free CPU and an empty ready queue picks
    the most-loaded peer on its gossip board (seeded tie-break), provided
    that peer's load is over 1.5, and sends it a small steal request.
    The victim — in its RPC server fiber, so after a real wire delay —
    dequeues one runnable thread that holds no invocation frames (a bound
    thread would be bounced straight back by the §3.5 residency check)
    and ships it to the thief over the standard thread-migration flight.
    Stolen threads therefore pay the ordinary thread-packet cost, and the
    race where the thief finds its own work first is re-checked at the
    victim. *)

type t

val create : Amber.Runtime.t -> li:Loadinfo.t -> rng:Sim.Rng.t -> t

(** One steal round over all nodes; called from the driver's tick event
    (event context). *)
val tick : t -> unit

(** Directed steal: make [victim] hand one stealable thread to [thief]
    right now, skipping the load-board victim selection.  Returns whether
    a thread was taken.  Exposed for tests; [tick] goes through the
    request RPC instead.  Event or fiber context. *)
val grab : t -> victim:int -> thief:int -> bool
