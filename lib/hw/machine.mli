(** Model of one shared-memory multiprocessor node (a "Firefly").

    A machine has [cpus] identical processors sharing a single ready queue
    managed by a replaceable {!Sched_policy.t}.  Simulated threads (TCBs)
    run on the CPUs with preemptive timeslicing: a thread's
    [Sim.Fiber.consume] requests are sliced into quantum-bounded chunks,
    and a thread whose quantum expires while other threads are waiting is
    requeued.

    The model exposes exactly the mechanisms the Amber runtime needs:

    - an [on_resume] hook per thread, called each time the thread is about
      to be placed on a CPU — this is where Amber performs its
      context-switch-in residency check (paper §3.5);
    - {!preempt_all}, used by object moves to force every running thread
      through that check;
    - {!transfer}, which re-homes a blocked thread onto another machine
      (the mechanical half of thread migration). *)

type t
type tcb

type thread_state =
  | Ready
  | Running of int  (** CPU index *)
  | Blocked
  | Finished of Sim.Fiber.outcome

(** {1 Construction} *)

(** The most CPUs one machine may have: [Sys.int_size], because dispatch
    keeps the set of idle CPUs in the bits of one int. *)
val max_cpus : int

(** Raises [Invalid_argument] unless [1 <= cpus <= max_cpus] and
    [ctx_switch < quantum].  A dispatch pays the context switch out of
    the thread's fresh quantum, so with a quantum no longer than the
    switch, threads sharing a CPU would only ever switch: each switch
    would use up the quantum and preempt the thread before it ran. *)
val create :
  engine:Sim.Engine.t ->
  id:int ->
  cpus:int ->
  ?ctx_switch:float ->
  (* seconds charged each time a thread is placed on a CPU *)
  ?quantum:float ->
  ?preempt_cost:float ->
  (* seconds charged to a thread forcibly descheduled by {!preempt_all} *)
  ?policy:tcb Sched_policy.t ->
  ?spans:Sim.Span.t ->
  (* collector for the ["sched"] and ["crash"] marks *)
  unit ->
  t

val id : t -> int
val engine : t -> Sim.Engine.t
val cpu_count : t -> int

(** Replace the scheduling discipline at runtime (Amber §2.1).  Threads
    already queued are drained into the new policy in dequeue order. *)
val set_policy : t -> tcb Sched_policy.t -> unit

val policy_name : t -> string

(** {1 Threads} *)

(** Create a thread running [body] and make it runnable on this machine.
    [priority] is in effect from the first enqueue (priority policies
    sample it then). *)
val spawn : t -> name:string -> ?priority:int -> (unit -> unit) -> tcb

val tcb_id : tcb -> int

val reset_tids : unit -> unit
(** Restart thread-id assignment at 1.  Call when bringing up a fresh
    cluster so tids — which appear in span traces and exports — are a
    deterministic function of the run, not of how many clusters the
    hosting process created before it. *)

val tcb_name : tcb -> string
val state : tcb -> thread_state
val home : tcb -> t

(** Machine the thread is currently assigned to. *)

val set_priority : tcb -> int -> unit
val priority : tcb -> int

(** Hook run just before the thread is placed on a CPU.  Return [true] to
    proceed; return [false] if the hook has taken the thread over (it must
    then have left the thread [Blocked] or re-enqueued elsewhere). *)
val set_on_resume : tcb -> (tcb -> bool) option -> unit

(** Register a callback for thread termination (fires for both normal
    completion and failure; immediately if already finished). *)
val on_finish : tcb -> (Sim.Fiber.outcome -> unit) -> unit

(** Total CPU seconds charged to this thread so far. *)
val cpu_time : tcb -> float

(** Add CPU work the thread must burn before it next resumes (e.g. kernel
    work performed on its behalf while it was descheduled, such as
    unmarshalling its migrated state). *)
val add_pending_work : tcb -> float -> unit

(** {1 Scheduler operations (called from outside fibers)} *)

(** Make a [Blocked] thread runnable on its current machine.  Raises
    [Invalid_argument] if the thread is not blocked. *)
val wake : tcb -> unit

(** Forcibly deschedule every thread currently running on a CPU of this
    machine, except [except] if given.  Each victim is charged
    [preempt_cost] and re-enqueued; its remaining CPU demand is preserved.
    Returns the number of threads preempted. *)
val preempt_all : ?except:tcb -> t -> int

(** Take over a thread that was just handed to an [on_resume] hook (state
    [Ready], already dequeued): mark it [Blocked] so it can be
    {!transfer}red and later woken.  Only valid from inside such a hook.
    Raises [Invalid_argument] otherwise. *)
val park : tcb -> unit

(** Re-home a thread that is currently [Blocked] onto [dest].  The caller
    is responsible for the timing of the subsequent {!wake}.  Raises
    [Invalid_argument] if the thread is running or ready. *)
val transfer : tcb -> dest:t -> unit

(** Remove and return the first queued [Ready] thread matching the
    predicate, or [None].  The thread is left [Ready] and dequeued — the
    caller must either re-enqueue it or {!park} it (a work stealer parks
    it, then {!transfer}s and {!wake}s it at the thief). *)
val take_ready : t -> (tcb -> bool) -> tcb option

(** The thread (if any) whose fiber is executing right now.  Valid only
    while the simulation is inside a fiber step. *)
val self : unit -> tcb option

(** Machine of the currently executing thread.  Raises [Failure] outside a
    fiber. *)
val self_machine : unit -> t

(** [self_exn ()] = current tcb or [Failure]. *)
val self_exn : unit -> tcb

(** {1 Introspection} *)

val ready_length : t -> int
val running_tcbs : t -> tcb list
val busy_cpus : t -> int

(** Instantaneous load: ready-queue length plus occupied CPUs.  This is
    the metric load-balancing policies rank nodes by (cumulative busy
    time says where work {e was}, not where it is). *)
val current_load : t -> int

(** {1 Crash injection}

    A crashed ("down") machine freezes: no dispatches happen, running
    fibers are descheduled, and queued threads stay queued until the
    machine is brought back {!set_up} — a transient outage loses no
    thread state.  Fail-stop crashes additionally {!kill} each thread. *)

(** Take the machine down: deschedule every running thread and stop all
    dispatching.  Idempotent. *)
val set_down : t -> unit

(** Bring a downed machine back: dispatching resumes with the thread
    population exactly as it was at {!set_down}.  Idempotent. *)
val set_up : t -> unit

val is_up : t -> bool

(** Forcibly terminate a thread with [Failed e], from any state: a running
    thread's CPU chunk is cancelled, a ready thread is dequeued, a blocked
    thread is simply marked finished (its waker becomes a no-op).  The
    thread's [on_finish] callbacks run.  Unlike an organic failure the
    kill is {e not} recorded in {!failures} — an injected crash must not
    trip the cluster-wide failure check.  No-op on finished threads. *)
val kill : tcb -> exn -> unit

(** True if the thread was terminated by {!kill}.  For such threads
    {!wake} is a harmless no-op — the rest of the cluster cannot know the
    thread died before poking it. *)
val was_killed : tcb -> bool

(** Sum of busy seconds over all CPUs. *)
val total_busy_time : t -> float

val dispatch_count : t -> int
val preemption_count : t -> int

(** Threads that terminated with [Failed]. *)
val failures : t -> (tcb * exn) list

(** Remove a thread's entries from the failure list — used when a joiner
    has consumed (re-raised) the failure. *)
val forget_failures : tcb -> unit

val pp_tcb : Format.formatter -> tcb -> unit
