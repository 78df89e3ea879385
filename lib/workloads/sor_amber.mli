(** The Amber Red/Black SOR program — the paper's §6 application, with the
    Figure-1 structure:

    - the grid is split column-wise into section objects distributed over
      the nodes;
    - each section has a coordinator thread, a set of interior-compute
      worker threads, and one edge push per neighbor per phase;
    - edge values travel as the payload of an invocation on the neighbor
      section ("the values for an entire edge of a section transferred in
      a single invocation");
    - with [overlap] on, edge exchange runs concurrently with the interior
      computation of the same color phase (the paper's key optimization);
    - after each iteration, all sections synchronize through a master
      object to combine convergence information.

    All intra-section coordination is direct shared-memory signalling —
    the threads are bound to the section object and therefore co-resident
    (§3.6's co-residency guarantee), so only cheap hardware-level
    synchronization is charged.

    Two coordinators drive the same sections, workers and master: {!run}
    pushes edges from one thread per neighbor and meets the master
    synchronously; {!run_pipelined} issues both as futures.  Every
    variant's [result.checksum] is bit-identical to the sequential
    solver's. *)

type cfg = {
  sections : int;
  overlap : bool;
  workers_per_section : int;  (** interior-compute threads per section *)
  placement : (int -> int) option;
      (** section index → node; [None] = blocked placement *)
}

(** The paper's section count for [nodes] nodes: 8, or 6 when the node
    count is 3 or 6, and never fewer than [nodes]. *)
val default_sections : nodes:int -> int

(** Paper-style defaults for a given runtime: {!default_sections},
    blocked placement, overlap on, and enough workers to fill every
    CPU. *)
val default_cfg : Amber.Runtime.t -> cfg

type result = {
  iterations : int;
  checksum : float;
  compute_elapsed : float;
      (** from the post-setup ready barrier to the final barrier *)
  total_elapsed : float;  (** including object creation and distribution *)
  remote_invocations : int;
  thread_migrations : int;
  async_invocations : int;  (** futures issued (edge pushes + reports) *)
}

(** Run exactly [iters] iterations.  Must be called from the program's
    main Amber thread.

    @raise Invalid_argument before creating any object if [iters],
    [cfg.sections] (at most the grid's columns),
    [cfg.workers_per_section] or a section's placement is out of
    range. *)
val run :
  Amber.Runtime.t -> Sor_core.params -> ?cfg:cfg -> iters:int -> unit -> result

(** Run until the global per-iteration maximum change drops below [eps]
    (combined at the master barrier, as in the paper) or [max_iters] is
    reached.  [result.iterations] reports how many iterations ran. *)
val run_to_convergence :
  Amber.Runtime.t ->
  Sor_core.params ->
  ?cfg:cfg ->
  eps:float ->
  max_iters:int ->
  unit ->
  result

(** The same program restructured around asynchronous invocation
    (Amber-Async, §11 of the reproduction's INTERNALS): same grid
    partitioning, same per-phase gating, same numerics, but there are no
    edge-push threads.

    - The coordinator captures the finished edge {e co-residently} into
      the closure the moment the border columns complete, then ships it
      with [Future.invoke_async] while the interior computes.
    - Each side runs a depth-1 pipeline (await the previous phase's push
      before issuing the next), so same-destination ghost installs stay
      ordered.
    - The end-of-iteration convergence barrier is issued asynchronously
      too, and only awaited one iteration later, hiding the master
      round-trip behind compute.
    - The sections move to their nodes in parallel, and each coordinator
      is itself a future on its section.

    Only fixed-iteration mode is offered: the convergence decision needs
    the combined delta synchronously, which is exactly the round-trip
    this variant exists to hide.  With [cfg.overlap = false] the pushes
    are drained before the interior runs (a diagnostic mode: it demotes
    the futures to synchronous RPC and should perform like {!run} without
    overlap).  Objects and threads are named [sorp…] where {!run}'s are
    [sor…]. *)
val run_pipelined :
  Amber.Runtime.t -> Sor_core.params -> ?cfg:cfg -> iters:int -> unit -> result
