(** Topaz-style fast RPC between tasks (Birrell–Nelson / Firefly RPC).

    Amber's kernel uses RPC for object moves, thread migration, locate
    requests and address-space-server traffic.  The model charges:

    - sender CPU: [send_cpu_fixed + send_cpu_per_byte * size] (marshalling
      and the kernel send path), on the caller's node;
    - one packet on the shared Ethernet per direction;
    - receiver CPU: [recv_cpu_fixed + recv_cpu_per_byte * size] plus
      [dispatch_cpu], charged to a server thread on the destination node.

    Server threads are real simulated threads: they contend with
    application threads for the destination node's CPUs, so a busy node
    serves RPCs slowly — the effect behind the paper's "operations are
    more expensive on a heavily loaded system" caveat (§5).

    {2 Reliability}

    When created with [~reliable:true] (the runtime does this whenever
    fault injection or crash injection is on), every remote exchange runs
    as one {e transaction}: a fresh sequence number, a retransmit timer
    with exponential backoff ([rto], [2*rto], [4*rto], … capped at
    [2^6 * rto]) and a budget of [max_retransmits] re-sends, and a
    give-up that fails the sender with {!Node_dead}.  The transaction is
    opened and settled in one place, and both services run on it:

    - {!call}: the reply is the implicit acknowledgement.  The server
      deduplicates requests by sequence number (suppressing duplicates
      while the work runs, re-sending the recorded reply packet
      afterwards) and the client drops duplicate replies, so [work] runs
      exactly once per call;
    - {!send_reliable} (and {!post} and {!post_acked}, built on it): an
      explicit small ack packet plus receiver-side dedup give the same
      exactly-once guarantee.  The ack is sent at delivery, before a
      posted handler runs.

    With [reliable = false] (the default) every call runs as the one
    shared {e unsequenced} transaction: seq [-1], each leg sent once, no
    timer, no dedup entry — behavior is byte-identical to the original
    at-most-once transport.

    {!mark_node_dead} gives up every open transaction touching a crashed
    node at once, and records the node: a transaction opened toward it
    later gives up at its first timer (a zero-delay one) instead of
    retransmitting into the corpse for its whole budget.  {!post_acked}
    covers the one window this leaves open (see there).

    The receiver-side dedup table is kept bounded by ack-acknowledged
    retirement: once the sender has seen a datagram's ack it never
    retransmits that seq again, so its dedup entry becomes retirable.
    An entry is actually removed only when it is {e both} older than a
    fixed window of younger acked seqs {e and} the virtual clock has
    passed the latest predicted arrival of any copy the sender ever put
    on the wire (stall clamps, delay spikes, and the duplicate lag
    included) — a count window alone can evict an entry while a
    retransmitted copy is still queued on a saturated medium, letting
    the duplicate deliver twice.

    {2 Coalescing}

    When created with [~coalesce], small one-way datagrams (at most 128
    bytes) headed for the same (src, dst) pair are parked for up to
    [flush_window] seconds of virtual time and shipped as one framed
    packet of at most 1472 bytes ([frame_header_bytes] plus a small
    per-message header), amortizing per-packet wire overhead and
    medium-acquisition under bursts of small messages (acks, notifies).
    Flushing is driven by the deterministic event clock, so coalesced
    runs reproduce per seed; with [coalesce] absent (the default) the
    transport is byte-identical to the uncoalesced one.  Request/reply
    {!call} traffic is never coalesced — only one-way datagrams.
    Per-pair FIFO order is preserved (an oversized message flushes the
    batch queued ahead of it), but a parked datagram may be overtaken by
    {!call} traffic to the same destination issued inside its flush
    window. *)

type t

(** Raised (or passed to an [on_dead] callback) when a reliable
    transaction gives up on its peer: either the retransmit budget
    ([max_retransmits]) was exhausted against a silent node, or the
    crash injector reported the peer fail-stop dead via
    {!mark_node_dead}. *)
exception Node_dead of { node : int }

(** End-to-end reliability counters (all zero when [reliable = false]).
    [timeouts] counts retransmission-timer expiries, [retransmits] the
    packets re-sent as a result; [dup_requests]/[dup_replies]/
    [dup_datagrams] count suppressed duplicates at the receiving ends;
    [reply_resends] counts recorded replies retransmitted in response to
    a duplicate request; [acks_sent] counts explicit datagram acks. *)
type reliability_counters = {
  timeouts : Sim.Stats.Counter.t;
  retransmits : Sim.Stats.Counter.t;
  dup_requests : Sim.Stats.Counter.t;
  dup_replies : Sim.Stats.Counter.t;
  dup_datagrams : Sim.Stats.Counter.t;
  reply_resends : Sim.Stats.Counter.t;
  acks_sent : Sim.Stats.Counter.t;
}

(** Wire-level batching of small same-destination datagrams (see
    {e Coalescing} above). *)
type coalesce = {
  flush_window : float;
      (** how long a parked datagram may wait, virtual seconds *)
}

(** 200 µs window. *)
val default_coalesce : coalesce

(** [coal_eligible] one-way datagrams were small enough to park;
    [coal_batched] of them actually traveled inside one of the
    [coal_frames] multi-message frames (a batch of one goes out as the
    original packet and counts as uncoalesced). *)
type coalescing_counters = {
  coal_eligible : int;
  coal_batched : int;
  coal_frames : int;
}

val create :
  ether:Hw.Ethernet.t ->
  machines:Hw.Machine.t array ->
  ?servers_per_node:int ->
  ?reliable:bool ->
  (* default false *)
  ?rto:float ->
  (* initial retransmission timeout, default 25 ms *)
  ?retire_window:int ->
  (* count window of younger acked seqs a dedup entry must fall out of
     before it may retire, default 1024 *)
  ?max_retransmits:int ->
  (* retransmission attempts after which a silent peer is declared dead
     and the transaction fails with Node_dead instead of backing off
     forever; default 30 (unreachable under the stock fault rates — only
     a genuinely dead or partitioned node exhausts it) *)
  ?unsafe_count_window_dedup:bool ->
  (* re-introduce the pre-fix eviction policy that retires dedup entries
     on the count window alone, ignoring the arrival horizon.  Unsound;
     exists only so the model checker can demonstrate it finds the bug.
     Default false *)
  ?coalesce:coalesce ->
  (* park small one-way datagrams and ship them in framed batches;
     absent by default (wire behavior byte-identical without it) *)
  ?spans:Sim.Span.t ->
  (* span collector for causal tracing of calls, server work and wire
     flights; defaults to a disabled collector (zero cost) *)
  unit ->
  t

val reliable_mode : t -> bool
val reliability : t -> reliability_counters

(** [call t ~dst ~kind ~req_size ~work] performs a synchronous RPC from the
    calling fiber's node to node [dst].  [work] executes in a server fiber
    on [dst] and returns [(reply_size, result)].  The caller blocks until
    the reply arrives.  A call whose destination is the caller's own node
    short-circuits the wire but still pays dispatch CPU.  The reply
    travels as [Hw.Packet.Kind.reply kind] (and a reliable datagram's
    ack as [Hw.Packet.Kind.ack kind]), derived once per kind.

    In reliable mode the call survives lost requests and lost replies,
    and [work] still executes exactly once (see {e Reliability} above).
    A reliable call that exhausts its retransmit budget — or whose
    destination is reported dead via {!mark_node_dead} — raises
    {!Node_dead} at the caller in bounded virtual time.

    Must be called from inside a fiber. *)
val call :
  t -> dst:int -> kind:Hw.Packet.Kind.t -> req_size:int ->
  work:(unit -> int * 'a) -> 'a

(** [send_reliable t ~src ~dst ~size ~kind deliver] sends a one-way
    datagram whose [deliver] callback runs in event context at [dst]
    (exactly like a bare [Hw.Ethernet.send] callback — not in a server
    fiber).  In reliable mode the datagram is acknowledged, retransmitted
    until acked, and deduplicated at the receiver, so [deliver] runs
    exactly once even under packet loss; otherwise it is a plain
    Ethernet send.  [on_dead] (reliable mode only) is called — at most
    once, in event context — with {!Node_dead} if the datagram gives up
    before being acknowledged: the retransmit budget ran out, or
    {!mark_node_dead} reported either endpoint crashed (the exception
    carries the dead node's identity).  Without it the message just dies
    silently.  Usable from outside a fiber. *)
val send_reliable :
  t ->
  ?on_dead:(exn -> unit) ->
  src:int -> dst:int -> size:int -> kind:Hw.Packet.Kind.t -> (unit -> unit) ->
  unit

(** Tell the transport [node] has crashed fail-stop: every open
    transaction whose destination is [node] aborts now with
    {!Node_dead} (delivered to the caller / [on_dead]), and every
    retransmit timer owned by [node] goes silent — a blocked caller on
    the corpse is left for the crash injector's thread kill, but a
    datagram's [on_dead], which may observe from the live side, still
    fires.  A transaction opened toward [node] afterwards fails the same
    way at its first timer.  Transactions between live nodes are
    untouched.  Idempotent. *)
val mark_node_dead : t -> node:int -> unit

(** [watch_peer t ~node f] registers [f] to be invoked (with
    [Node_dead]) when {!mark_node_dead} later reports [node] crashed.
    Watchers fire after the transaction aborts, in registration order;
    each firing clears the node's registrations.  Returns an id for
    {!unwatch}.  {!post_acked} holds one for the window its legs cannot
    see. *)
val watch_peer : t -> node:int -> (exn -> unit) -> int

(** Remove a watcher registered by {!watch_peer}.  Idempotent. *)
val unwatch : t -> node:int -> int -> unit

(** Thread ids of [node]'s server-pool fibers, sorted.  A fail-stopped
    node freezes them mid-handler; the crash injector uses the ids to
    retire whatever spans they hold open, since a frozen fiber never
    unwinds its own. *)
val server_tids : t -> node:int -> int list

(** One-way message: [handler] runs in a server fiber on [dst].  Usable
    from outside a fiber (e.g. an [on_resume] hook), so no send-side CPU is
    charged here — callers in fiber context account for it themselves.
    Built on {!send_reliable}, so exactly-once under faults.  The wire
    leg's flight span and the handler's span parent to the poster's
    current span; pass [?parent] when posting from event context (no
    fiber current), with the span captured back when one was. *)
val post :
  ?parent:int ->
  ?on_dead:(exn -> unit) ->
  ?on_reject:(unit -> unit) ->
  t -> src:int -> dst:int -> kind:Hw.Packet.Kind.t -> size:int ->
  (unit -> unit) -> unit

(** [post_acked t ~src ~dst ~kind ~size ~ack_kind ~ack_size ~on_dead
    handler] is the two-leg handshake "post, then wait for the ack": it
    posts [kind] to [dst], where [handler] runs in a server fiber and
    returns whether to post the [ack_kind] acknowledgement back to
    [src]; the calling fiber blocks until that ack lands.

    A handshake whose [dst] (or a leg's endpoint) is reported dead
    raises {!Node_dead} at the caller instead of blocking forever.  The
    legs' own give-ups cannot see one window: a datagram is acked at
    delivery, before its handler runs, so a [dst] that dies with
    [handler] still queued leaves no open transaction.  A peer watcher
    ({!watch_peer}) held for the handshake covers it.  The caller is
    woken once, by the ack or the first death report; [on_dead] runs
    then, in event context, before the caller resumes — e.g. to roll
    back state the handler must no longer install.  Both legs parent
    their spans to the caller's current span.  Must be called from
    inside a fiber. *)
val post_acked :
  t ->
  src:int ->
  dst:int ->
  kind:Hw.Packet.Kind.t ->
  size:int ->
  ack_kind:Hw.Packet.Kind.t ->
  ack_size:int ->
  on_dead:(exn -> unit) ->
  (unit -> bool) ->
  unit

(** {1 Server-pool admission control}

    An installed hook is consulted when a {!post} that supplied
    [?on_reject] lands at its destination (at delivery for a remote post,
    at enqueue for a local one): hook says no → the handler is dropped and
    [on_reject] runs instead, in event context at the destination, so it
    must not block or consume CPU (posting a rejection notice back is the
    intended shape).  Posts without [on_reject] — all kernel protocol
    traffic — are never subject to admission.  The hook itself must not
    consume virtual time or draw RNG; serving layers install token-bucket
    plus queue-depth policies here ({!module:Serve} in [lib/serve]). *)

(** Install (or with [None] remove) the admission hook. *)
val set_admission :
  t -> (dst:int -> kind:Hw.Packet.Kind.t -> bool) option -> unit

(** One-way posts shed by the admission hook. *)
val posts_rejected : t -> int

(** {1 Statistics} *)

val calls_made : t -> int
val posts_made : t -> int

(** Reliable transactions that gave up on their peer ({!Node_dead}). *)
val peer_deaths : t -> int

(** Currently queued work items on a node (servers all busy). *)
val backlog : t -> int -> int

(** Open reliable transactions (requests sent, completion not yet
    retired) across the whole fabric; always [0] in unreliable mode.
    A cheap instantaneous gauge for telemetry. *)
val in_flight : t -> int

(** Current size of the receiver-side dedup table — bounded by the
    retirement window plus datagrams whose acks are still outstanding.
    Exposed for the boundedness regression test. *)
val delivered_size : t -> int

val coalescing : t -> coalescing_counters
