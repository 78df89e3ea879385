(** Shared-medium Ethernet model (the paper's 10 Mbit/s segment).

    All nodes share one transmission medium.  A packet's wire time is

    {v  tx = wire_overhead + 8 * (size + header_bytes) / bandwidth_bps  v}

    and delivery happens [propagation] seconds after its transmission
    completes, at which point the packet's [deliver] callback runs.

    Two media-access models are available:

    - {!Fifo} (default): transmissions serialize in submission order —
      an idealized collision-free bus.  All calibration against the
      paper's Table 1 uses this model.
    - {!Csma_cd}: the real 1989 Ethernet.  A station that finds the
      medium busy defers; stations that attempt simultaneously collide,
      jam, and retry under binary exponential backoff (slot time 51.2 µs).
      Under light load it behaves like FIFO; near saturation it loses
      goodput to collisions — measurable with `bench ablate-mac`.

    Both models capture the two effects the paper's evaluation depends
    on: per-message latency and serialization of concurrent senders. *)

type mac = Fifo | Csma_cd

(** {1 Fault injection}

    A seeded fault model applied between the wire and the receiver: a
    packet always pays its transmission time, then may be {e dropped},
    {e duplicated}, or hit by a {e latency spike} before delivery, and a
    packet arriving at a node inside one of its {e stall windows} is held
    until the window ends.  Decisions are drawn from a dedicated RNG
    stream split off the engine seed, so the fault pattern of a run is a
    pure function of the configuration — two runs with the same seed see
    identical losses.  With [no_faults] (the default) the layer is
    bypassed entirely and behavior is bit-identical to a fault-free
    build. *)

type stall = {
  node : int;  (** receiving node the window applies to *)
  from_t : float;  (** window start, virtual seconds *)
  until_t : float;  (** window end (exclusive) *)
}

type faults = {
  drop_prob : float;  (** per-packet loss probability, [0, 1) *)
  dup_prob : float;  (** per-packet duplicate-delivery probability *)
  delay_prob : float;  (** per-packet latency-spike probability *)
  delay_spike : float;  (** seconds added to delivery on a spike *)
  stalls : stall list;
}

val no_faults : faults

(** True if any fault mechanism is active (the condition under which the
    runtime must run its RPC layer in reliable mode). *)
val faults_enabled : faults -> bool

(** Raises [Invalid_argument] on out-of-range probabilities or
    malformed stall windows. *)
val validate_faults : faults -> unit

type t

val create :
  engine:Sim.Engine.t ->
  ?bandwidth_bps:float ->
  (* default 10e6, the paper's Ethernet *)
  ?propagation:float ->
  (* default 20 us *)
  ?wire_overhead:float ->
  (* per-packet fixed wire time (preamble, inter-frame gap); default 50 us *)
  ?header_bytes:int ->
  (* default 64: frame header + trailer + minimal protocol headers *)
  ?mac:mac ->
  ?faults:faults ->
  (* default no_faults *)
  ?spans:Sim.Span.t ->
  (* collector for the ["net"], ["fault"] and ["crash"] marks *)
  unit ->
  t

(** The engine this medium schedules on (used by transport-layer
    retransmission timers). *)
val engine : t -> Sim.Engine.t

(** Submit a packet for transmission.  Returns the predicted delivery time
    under {!Fifo}; under {!Csma_cd} the return value is the earliest
    possible delivery (collisions may delay it further). *)
val send : t -> Packet.t -> float

(** Wire time for a packet of [size] payload bytes on an idle medium,
    excluding propagation. *)
val tx_time : t -> size:int -> float

(** One-way propagation delay (also the extra lag of a fault-injected
    duplicate delivery). *)
val propagation : t -> float

(** Instant at which the medium next becomes free. *)
val busy_until : t -> float

(** {1 Crash injection}

    A crashed node's interface is powered off: any packet whose delivery
    instant finds the destination down is silently discarded — including
    packets already in flight when the node died.  The down flags are a
    per-node array, grown to the highest node marked down: with no
    crashes configured it stays empty and the check is one length
    compare per delivery. *)

(** Raises [Invalid_argument] on a negative node. *)
val set_node_down : t -> int -> unit
val set_node_up : t -> int -> unit

(** {1 Statistics} *)

val packets_sent : t -> int
val bytes_sent : t -> int

(** Total time packets spent queued or backing off before transmitting. *)
val total_queueing : t -> float

(** Seconds the medium has spent transmitting (including jam time). *)
val busy_seconds : t -> float

(** Collision events (always 0 under {!Fifo}). *)
val collisions : t -> int

(** Traffic broken down by packet kind: [(kind, packets, bytes)], sorted
    by kind. *)
val traffic_by_kind : t -> (string * int * int) list

(** {2 Fault-injection statistics} *)

val faults_in_effect : t -> faults
val packets_dropped : t -> int
val packets_duplicated : t -> int
val packets_delayed : t -> int

(** Packets held by a stall window. *)
val packets_stalled : t -> int

(** Packets discarded because their destination node was down at the
    delivery instant. *)
val packets_dropped_dead : t -> int

val reset_stats : t -> unit
