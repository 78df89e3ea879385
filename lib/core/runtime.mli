(** The Amber runtime: cluster state plus the per-node kernel machinery
    (descriptor tables, heaps, thread bookkeeping, migration transport).

    One [Runtime.t] models one program execution over a network of
    multiprocessors: [nodes] Topaz tasks (one per machine) on a shared
    Ethernet, exactly the structure of paper §3.  Higher layers ({!Invoke},
    {!Mobility}, {!Athread}, {!Sync}) implement the programming model on
    top of the primitives here.

    Functions documented as requiring {e fiber context} must be called from
    inside a simulated thread. *)

type t

(** One invocation-stack frame: the object being invoked plus the declared
    access mode.  The mode decides whether a read replica satisfies the
    residency check (a [Read] frame may run on a replica node; [Write] and
    [Atomic] frames must reach the master). *)
type frame = { fobj : Aobject.any; fmode : San_hooks.mode }

(** Amber-level kernel state of one thread. *)
type tstate = {
  tcb : Hw.Machine.tcb;
  taddr : int;  (** address of the thread object + stack segment *)
  mutable frames : frame list;
      (** invocation stack, innermost first (§3.5) *)
  mutable carry_bytes : int;
      (** invocation payload riding along with in-flight migrations *)
  mutable migrations : int;
  chase_path : int list ref;
      (** nodes left behind while chasing the current frame's object, in
          fiber or at switch-in; they learn where the object is when the
          chase ends (§3.3 caching) *)
  chase_step : node:int -> Descriptor.state option;
      (** the [step] of this thread's invocation chases ({!Invoke}),
          built once with the thread *)
  mutable chase_moves : int;
      (** how many of [chase_step]'s visits moved the thread; flights
          made meanwhile by the switch-in check count only in
          [migrations] *)
  mutable result_box : exn option;
      (** internal: thread body outcome for Join *)
}

val create : Config.t -> t

(** {1 Accessors} *)

val config : t -> Config.t
val cost : t -> Cost_model.t
val engine : t -> Sim.Engine.t
val ether : t -> Hw.Ethernet.t
val rpc : t -> Topaz.Rpc.t

(** The causal span collector (see {!Sim.Span}); disabled by default.
    Created before the machines, the wire and the RPC fabric so wire
    flights span-attribute too and every layer's protocol marks land in
    this one collector. *)
val spans : t -> Sim.Span.t

val nodes : t -> int
val machine : t -> int -> Hw.Machine.t

(** A node's Topaz virtual memory: page-sized zero-filled storage that
    only the Ivy DSM baseline reads and writes. *)
val vm : t -> int -> Topaz.Vm.t

val descriptors : t -> int -> Descriptor.table
val heap : t -> int -> Vaspace.Heap.t

(** Virtual time now. *)
val now : t -> float

(** The engine's clock record ({!Sim.Engine.clock}).  Code on the
    invocation path reads [(clock t).now] in place: a call to {!now}
    from another module boxes its result unless it is inlined. *)
val clock : t -> Sim.Engine.clock

(** {1 Thread bookkeeping} *)

val register_thread : t -> tstate -> unit
val unregister_thread : t -> tstate -> unit

(** Kernel state of the calling thread.  Raises [Failure] when the caller
    is not a registered Amber thread.  Fiber context. *)
val current : t -> tstate

val current_opt : t -> tstate option

(** Kernel state of an arbitrary thread by its TCB, or [None] when the
    thread is not (or no longer) a registered Amber thread. *)
val tstate_of_tcb : t -> Hw.Machine.tcb -> tstate option

(** Apply [f] to every live registered thread, in tid order.  Threads
    are kept in an array indexed by tid, so {!current} and
    {!tstate_of_tcb} are an array read. *)
val iter_threads : t -> (tstate -> unit) -> unit

(** Node the calling thread is on.  Fiber context. *)
val current_node : t -> int

(** Install the context-switch-in residency check (§3.5) for a thread:
    every time the thread is about to run, its innermost frame's object is
    checked and the thread is forwarded toward the object's new location
    if it moved. *)
val install_resume_check : t -> tstate -> unit

(** {1 Address space} *)

(** Home node of a heap address — the owner of its region (§3.3). *)
val home_node : t -> addr:int -> int

(** {1 Location protocol} *)

(** One descriptor probe on [node] (no cost charged):
    - [`Resident] — object usable on [node];
    - [`Replica m] — [node] holds a read-only copy of a mutable object
      whose master was last known at [m];
    - [`Hop n] — forwarding address, or home-node fallback for an
      uninitialized descriptor. *)
val probe :
  t -> node:int -> addr:int -> [ `Resident | `Hop of int | `Replica of int ]

(** Move the calling thread to [dest], simulating the thread-state packet
    flight (§3.4).  Charges marshal CPU at the source, wire time, and
    unmarshal CPU at the destination.  [payload] bytes ride along.  Fiber
    context. *)
val migrate_self : t -> ?payload:int -> dest:int -> unit -> unit

(** Ship a thread that the caller has taken over (dequeued and
    {!Hw.Machine.park}ed, or otherwise [Blocked]) to [dest] as a
    thread-state packet: charges marshal/unmarshal CPU to the thread's
    own pending-work account, leaves a forwarding address for its thread
    object, and wakes it at [dest] on delivery.  This is the same flight
    the §3.5 residency check uses; the balancer's stealer rides it too.
    Safe outside fiber context. *)
val migrate_thread : t -> tstate -> dest:int -> unit

(** The chase's hop budget, 64: a thread's switch-in checks and its
    invocation's chase spend it together.  {!Audit} calls a longer chain
    non-terminating. *)
val max_forward_hops : int

(** [chase t ~what ~addr ~start ~step] is the single forwarding-chain
    walker shared by Locate, MoveTo, invocation settling and the
    invocation return path.  [step ~node] visits one node — a local
    probe, a control RPC or a thread flight — and returns the descriptor
    it read there; [chase] decides what it means:

    - [Resident] stops the chase; so does a read replica when [read]
      — otherwise the chase follows the replica's master hint;
    - a forwarding address is followed;
    - an uninitialized descriptor away from the home node bounces the
      chase to the home node (that node never heard of the object, or a
      move is in flight); one {e at} the home node — the only node where
      the object's heap block can be freed — or a self-loop raises
      [Failure "<what>: dangling reference to 0x<addr>"], or
      [Aobject.Object_lost] for an address a fail-stop crash lost;
    - each hop is counted, and once [path] holds more than
      {!max_forward_hops} nodes the chase raises
      [Aobject.Chain_exhausted] with them, oldest first.

    Every node the chase left behind goes on [path] (a thread's chase
    passes its [chase_path], which the §3.5 switch-in check extends too;
    other chases a fresh list).  When the chase stops, those nodes learn
    where the object is (§3.3 chain caching) — the stop node, the master
    of a replica that stopped a [read], or [moving_to] when the step
    moved the object there — except nodes that hold a replica or the
    object itself — and [path] is emptied.  Returns that location, or
    [lnot] of it (a negative number) when a replica stopped the chase.

    [what] prefixes error messages.  Fiber context if [step] is. *)
val chase :
  ?moving_to:int ->
  t ->
  read:bool ->
  path:int list ref ->
  what:string ->
  addr:int ->
  start:int ->
  step:(node:int -> Descriptor.state option) ->
  int

(** [retarget t ~addr ~from ~onto] rewrites every other node's hint for
    [addr] that names [from] to name [onto], and returns how many it
    rewrote: a replica grant retires hints naming the replica's node, and
    fail-stop recovery retires hints naming the corpse.  No cost is
    charged. *)
val retarget : t -> addr:int -> from:int -> onto:int -> int

(** {!chase} with [locate] control RPCs (no thread motion) to the node
    where [addr] is resident; used by Locate, Join, immutable copies and
    replica installs.  Fiber context. *)
val resolve_location : t -> addr:int -> int

(** {1 Object lifecycle} *)

(** Create an object on the calling thread's node (§3.2).  Charges
    creation CPU; allocates its address; initializes the local descriptor.
    Fiber context. *)
val create_object : t -> ?size:int -> name:string -> 'a -> 'a Aobject.t

(** Delete an object resident on the calling thread's node: frees its heap
    block (never to be re-split, §3.2) and clears the local descriptor.
    Raises [Invalid_argument] if the object is not resident here or has
    attachments.  Fiber context. *)
val destroy_object : t -> 'a Aobject.t -> unit

(** Every live object, sorted by address (deterministic).  Used by policy
    layers — the adaptive rebalancer scans this to find hot objects. *)
val objects : t -> Aobject.any list

(** The live object at [addr], if any. *)
val find_object : t -> int -> Aobject.any option

(** {1 Counters} *)

type counters = {
  mutable local_invocations : int;
  mutable remote_invocations : int;
  mutable thread_migrations : int;
  mutable migration_bytes : int;
  mutable object_moves : int;
  mutable object_copies : int;
  mutable move_bytes : int;
  mutable locates : int;
  mutable forward_hops : int;
  mutable home_fallbacks : int;
      (** never written, always 0.  Kept only because the benchmark
          ledger reads it; it goes together with that ledger metric. *)
  mutable objects_created : int;
  mutable threads_started : int;
  mutable replica_installs : int;
      (** read-only copies of mutable objects installed *)
  mutable replica_reads : int;
      (** Read invocations served from a local replica snapshot *)
  mutable replica_invalidations : int;
      (** replica descriptors recalled by write-invalidate rounds *)
  mutable gossip_rounds : int;
      (** load-board gossip ticks executed by the balancer's telemetry *)
  mutable steal_requests : int;
      (** steal probes sent by idle nodes to loaded victims *)
  mutable threads_stolen : int;
      (** runnable threads actually migrated by the stealer *)
  mutable balance_moves : int;
      (** object migrations initiated by the rebalancer daemon *)
  mutable async_invocations : int;
      (** futures created by [Future.invoke_async] *)
  mutable future_notifies : int;
      (** cross-node resolution notices shipped back to futures' home
          nodes (an async invocation that completes on its home node
          resolves in place and sends nothing) *)
  mutable node_crashes : int;
      (** injected node crashes, transient and fail-stop alike *)
  mutable node_restarts : int;  (** transient crashes that restarted *)
  mutable recovery_promotions : int;
      (** replicas promoted to master during fail-stop recovery *)
  mutable objects_lost : int;
      (** objects whose only copy died with a fail-stop node *)
  mutable crash_chain_repairs : int;
      (** live descriptor entries rewritten because they routed through a
          fail-stop corpse *)
}

val counters : t -> counters

(** Latency samples recorded by {!Invoke} for remote invocations and by
    {!Mobility} for completed moves (virtual seconds). *)
val remote_invoke_latency : t -> Sim.Stats.Summary.t

val move_latency : t -> Sim.Stats.Summary.t

(** The runtime's telemetry registry ({!Sim.Series}).  Created disabled;
    instrumented layers (serve, balance) publish into it only once a
    watcher — [Watch.attach] — enables it and arms the sampling tick, so
    an unwatched run records nothing and stays byte-identical. *)
val metrics : t -> Sim.Series.t

(** {2 Typed-failure notifications}

    [on_failure] registers a hook invoked whenever a typed failure fires
    inside the runtime: [kind] is ["node_dead"] (fail-stop),
    ["node_down"] (transient crash) or ["object_lost"] (sole copy died);
    the flight recorder subscribes here to dump postmortems.  External
    layers (serve overload, the sanitizer) report their own kinds
    through {!notify_failure}.  With no hooks registered the notify
    sites are inert. *)
val on_failure : t -> (kind:string -> node:int -> detail:string -> unit) -> unit

val notify_failure : t -> kind:string -> node:int -> detail:string -> unit

(** Raise the first recorded thread failure, if any. *)
val check_failures : t -> unit

(** {1 Crash injection}

    Armed by {!create} from {!Config.crashes} / {!Config.crash_rate}; with
    neither configured the injector contributes nothing to a run — no RNG
    split, no events, byte-identical reports. *)

(** False while a node is down (transiently or for good). *)
val node_is_up : t -> int -> bool

(** Fail-stop [node] right now: drop its wire, abort transactions and
    fire peer-death watchers, kill its threads, discard its descriptor
    table, then re-master or lose every object it held (and repair
    forwarding chains unless {!Config.crash_skip_repair}).  This is the
    injector's own fail-stop entry, exported so tests and model-checking
    fixtures can order a crash {e causally} after the protocol state
    they mean to kill — under the checker's chooser a time-scheduled
    crash may fire at any point, which makes "crash after the move
    completed" unreachable by timestamp alone.  Must not be called from
    a thread living on [node].  Raises [Invalid_argument] on the plain
    transport ({!Topaz.Rpc.reliable_mode} false), which has no
    peer-death detection: set {!Config.rpc_reliable}, or configure
    crashes or faults. *)
val fail_stop : t -> node:int -> unit

(** Addresses registered as permanently lost by fail-stop recovery
    (objects without a live replica, plus thread objects of killed
    threads). *)
val lost_object_count : t -> int

(** {1 Sanitizer} *)

(** Install a sanitizer, the consumer of the {!San_hooks} event stream;
    at most one is attached at a time, the last install wins. *)
val set_sanitizer : t -> San_hooks.t -> unit

val sanitizer : t -> San_hooks.t option

(** [with_san t f] applies [f] to the installed sanitizer, or does
    nothing — the single-branch fast path the instrumentation sites use;
    [f] builds and emits the event, so no event is built while no
    sanitizer is attached. *)
val with_san : t -> (San_hooks.t -> unit) -> unit

(** {1 Report plug-ins} *)

(** Register a named section that {!Stats_report.capture} evaluates and
    {!Stats_report.pp} prints after the built-in counters; used by
    optional layers (the sanitizer) to surface findings in the standard
    report without a reverse dependency. *)
val add_report_section : t -> name:string -> (unit -> string list) -> unit

val report_sections : t -> (string * (unit -> string list)) list
