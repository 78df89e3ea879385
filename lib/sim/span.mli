(** Causal span collector.

    A span is a timed interval of virtual time attributed to one simulated
    thread and one kind of runtime activity (an invocation, a forwarding
    hop, a network flight, a lock wait, ...).  Spans nest: each span records
    the id of the span that was open on the starting thread at the time it
    began, so a whole run forms a forest of causally-linked intervals that
    exporters can render as Perfetto tracks and the critical-path analyzer
    can walk.

    The same collector records {e instant marks}: protocol steps (a
    migration, a chase, a packet, a fault, a crash, a sanitizer event)
    stamped with the callbacks' thread context and the innermost open
    span.  Marks have their own switch and buffer and take no span id, so
    spans and their exports are the same whether marks are on or off.

    Collection is off by default and costs one branch per call site when
    disabled.  The collector never consumes virtual time and never draws
    from any random stream; span ids are a monotone counter over the
    (deterministic) event sequence, so traces are reproducible per seed. *)

type kind =
  | Invoke_local  (** invocation served on the caller's node *)
  | Invoke_remote  (** invocation that moved the thread to the object *)
  | Replica_read  (** [~mode:Read] invocation served from a local replica *)
  | Chase_hop  (** one hop of a forwarding-address chase *)
  | Thread_flight  (** a thread's wire transfer between nodes *)
  | Net_flight  (** an RPC request/reply or datagram wire leg *)
  | Rpc_call  (** client side of a Topaz RPC, send to reply *)
  | Rpc_server  (** server-side execution of an RPC work function *)
  | Object_move  (** [Mobility.move_to], capture to installed *)
  | Replica_install  (** coherence grant: snapshot capture + shipping *)
  | Invalidate  (** write-invalidate recall of all replicas *)
  | Lock_wait  (** blocked in [Sync.Lock.acquire] *)
  | Cond_wait  (** blocked in [Sync.Condition.wait] *)
  | Barrier_wait  (** blocked in [Sync.Barrier.pass] *)
  | Join_wait  (** [Athread.join], entry to result *)
  | Future_wait  (** blocked in [Future.await] on an unresolved future *)
  | Async_invoke
      (** the detached execution of an [invoke_async]: carried by a helper
          thread, causally parented to the issuer's span but overlapping
          the issuer's continued compute ([arg] = the future id) *)
  | Steal  (** a successful cross-node thread steal *)
  | Rebalance  (** one object move/replicate decided by the rebalancer *)
  | Serve_request
      (** one admitted serving request, admission to completion; [tag]
          carries the request class so the profiler can break the SLO
          percentiles down per class *)

val kind_name : kind -> string
(** Stable dotted name, e.g. ["invoke.remote"] — used by exporters, the
    profiler report and the trace digests. *)

(** An instant mark.  [node]/[cpu]/[tid] (of the emitting thread) and
    [obj] are [-1] when unknown; [span] (innermost span open on the
    emitting thread) and its [parent] are 0 for none. *)
type mark = {
  time : float;
  category : string;
      (** ["create"], ["crash"], ["fault"], ["migrate"], ["net"], ["san"]
          or ["sched"] *)
  detail : string;
  node : int;
  cpu : int;
  tid : int;
  obj : int;
  span : int;
  parent : int;
}

type span = {
  id : int;  (** 1-based, dense, in start order; 0 is "no span" *)
  parent : int;  (** enclosing span id, 0 at the root *)
  async : bool;
      (** causally linked to [parent] but not temporally contained in it: a
          wire flight, or the server span of a one-way [post] whose handler
          runs after the poster moved on.  Synchronous spans (async =
          false) always nest inside their parent's interval. *)
  mutable kind : kind;
  label : string;
  tag : string;
      (** free-form attribute dimension (e.g. a serving request class);
          [""] — the default everywhere — keeps tag-free traces and
          profiles byte-identical to builds predating the field *)
  node : int;  (** node where the span started, -1 if unknown *)
  tid : int;  (** TCB id of the owning thread, -1 if unknown *)
  obj : int;  (** object address, -1 if not object-related *)
  mutable arg : int;  (** kind-specific: hop/destination node, joined tid *)
  t0 : float;
  mutable t1 : float;  (** -1 while the span is open *)
}

type t

val create :
  clock:(unit -> float) ->
  current_tid:(unit -> int) ->
  current_node:(unit -> int) ->
  current_cpu:(unit -> int) ->
  unit ->
  t
(** The callbacks supply virtual time and the identity of the simulated
    thread executing the caller ([-1] outside any thread, e.g. in a timer
    event); the CPU only feeds marks. *)

val disabled : unit -> t
(** A shared collector that records nothing; the default wired into
    subsystems whose owner did not pass one. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

val set_marks : t -> bool -> unit
(** Switch marks, independently of spans: span users (profiler, model
    checker) leave them off. *)

val marking : t -> bool
(** Hot sites (per packet, per dispatch) check it to skip building the
    [detail] closure. *)

val mark :
  t -> category:string -> ?obj:int -> ?at:float -> string Lazy.t -> unit
(** Record a mark (no-op while marks are off; [detail] is forced only
    then).  [at] (default: the clock) stamps a step at another instant,
    e.g. a queued packet's transmit start. *)

val marks : t -> mark list
(** In emission order, which [at] can make differ from time order. *)

val pp_mark : Format.formatter -> mark -> unit
(** [[time] category detail  (n.. c.. t.. o.. s.. p..)], known fields
    only. *)

val start :
  t ->
  kind ->
  ?label:string ->
  ?tag:string ->
  ?obj:int ->
  ?arg:int ->
  ?async:bool ->
  ?parent:int ->
  unit ->
  int
(** Open a synchronous span on the current thread: its parent is the
    thread's innermost open span (or [parent] when given — an RPC server
    fiber parents its span to the remote caller's) and it becomes the new
    innermost one.  Pass [~async:true] when the parent is only a causal
    origin (a one-way post handler).  Returns the span id, or 0 when
    collection is disabled. *)

val start_flow :
  t ->
  kind ->
  ?label:string ->
  ?tag:string ->
  ?obj:int ->
  ?arg:int ->
  ?tid:int ->
  ?parent:int ->
  unit ->
  int
(** Open a detached span (a wire flight, typically): it is parented like
    {!start} (or to [parent] / [tid]'s innermost span when given) but is
    {e not} pushed on any stack, so it may outlive the code region that
    started it and be finished from a delivery callback. *)

val finish : t -> int -> unit
(** Close a span at the current clock.  Idempotent; a no-op for id 0, so
    call sites need no disabled-check of their own.  Retransmit-style
    callbacks may finish the same flight several times — only the first
    delivery timestamps it. *)

val set_kind : t -> int -> kind -> unit
(** Reclassify an open span (e.g. an invocation discovered to be remote
    only after the chase settles). *)

val set_arg : t -> int -> int -> unit

val with_span :
  t ->
  kind ->
  ?label:string ->
  ?tag:string ->
  ?obj:int ->
  ?arg:int ->
  (unit -> 'a) ->
  'a
(** [start]/[finish] around a thunk, exception-safe. *)

(** Close every span still open on [tid]'s stack at the current virtual
    time.  A crash-killed thread never unwinds its own spans; the recovery
    path retires them at the kill instant to keep traces balanced. *)
val finish_all_for : t -> tid:int -> unit

val current : t -> int
(** Innermost open span of the current thread, 0 if none. *)

val find : t -> int -> span option
val spans : t -> span list
(** All spans (finished and still open) in start order. *)

val count : t -> int
val clear : t -> unit
