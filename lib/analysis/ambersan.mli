(** AmberSan: happens-before race detector and coherence sanitizer for
    the Amber object space.

    The sanitizer observes the runtime through the {!San_hooks}
    instrumentation points and maintains vector clocks per thread and per
    object.  Happens-before edges come from thread [Start]/[Join], lock
    and spinlock release→acquire, barrier generations, condition-variable
    signal→wakeup, and (trivially, via program order) thread migration.
    It reports:

    - {b data races}: two accesses to the same object, from different
      threads, not ordered by the happens-before relation, at least one
      of which writes.  Invocations declare their access with
      {!San_hooks.mode}: the default [Atomic] means a self-contained
      action serialized at the object (never racy against other atomic
      actions); [Read]/[Write] declare steps of multi-invocation
      protocols, which must be ordered by explicit synchronization;
    - {b deadlock potential}: cycles in the lock-order graph (an edge
      [a → b] each time a thread acquires [b] while holding [a]);
    - {b coherence drift}: {!Audit} invariant violations, checked
      continuously at move quiescence and exhaustively at {!finalize}.

    Every hook also records its event as a ["san"] mark in the runtime's
    span collector ({!Sim.Span.mark}, kept only while marks are on), and
    attaching with [analyze:false] only records, for offline
    {!lint_trace}.
    Hooks never charge virtual time, so a sanitized run is bit-identical
    to a bare one. *)

open Amber

(** {1 Events}

    The observed event stream, with a stable one-line text codec used for
    marks so a recorded run can be linted offline. *)

module Event : sig
  type barrier_phase = Arrive | Release | Resume

  type t =
    | Thread_start of { parent : int; child : int }
        (** [parent = -1] when the spawner is not an Amber thread *)
    | Thread_join of { parent : int; child : int }
    | Migrate of { tid : int; src : int; dst : int }
    | Object_created of { addr : int; name : string }
    | Object_destroyed of { addr : int }
    | Sync_created of { addr : int; kind : string }
    | Access of { tid : int; addr : int; mode : San_hooks.mode }
    | Access_end of { tid : int; addr : int }
    | Lock_acquired of { tid : int; addr : int }
    | Lock_released of { tid : int; addr : int }
    | Barrier of { tid : int; addr : int; gen : int; phase : barrier_phase }
    | Cond_signal of { tid : int; token : int }
    | Cond_wake of { tid : int; token : int }
    | Replica_read of { tid : int; addr : int; node : int; epoch : int }
        (** a Read invocation served from the replica snapshot on [node];
            checked online against the object's replica set and epoch *)
    | Steal of { by : int; tid : int; victim : int; thief : int }
        (** the balancer's stealer (agent thread [by], [-1] outside a
            fiber) dequeued runnable thread [tid] from node [victim]'s
            ready queue and shipped it to node [thief].  Happens-before
            edge: the dequeue at the victim precedes the stolen thread's
            next run, so [by]'s clock joins into [tid]'s. *)
    | Future_resolve of { tid : int; id : int }
        (** the helper thread [tid] carrying async invocation [id]
            resolved its future; like a condition signal, the resolver's
            clock is published under the future id *)
    | Future_await of { tid : int; id : int }
        (** thread [tid] observed future [id] resolved in [Future.await]
            and joins the stored resolve clock — the happens-before edge
            resolve → await *)

  val to_string : t -> string

  (** Inverse of {!to_string}; [None] on anything unrecognized. *)
  val of_string : string -> t option
end

(** {1 Findings} *)

type race = {
  addr : int;
  name : string;
  tid : int;
  mode : San_hooks.mode;
  prior_tid : int;
  prior_mode : San_hooks.mode;
}

type cycle = { addrs : int list; names : string list }

type report = {
  races : race list;
  cycles : cycle list;
  violations : Audit.violation list;
  events : int;
  threads : int;
  objects_tracked : int;
}

val findings : report -> int

(** No races, no lock-order cycles, no coherence violations. *)
val clean : report -> bool

val failed : report -> bool
val pp_race : Format.formatter -> race -> unit
val pp_cycle : Format.formatter -> cycle -> unit
val pp_report : Format.formatter -> report -> unit

(** {1 Online sanitizer} *)

type t

(** Install the sanitizer on a runtime (via {!Runtime.set_sanitizer}) and
    register a ["sanitizer"] section in the {!Stats_report}.  Call before
    the program under test starts threads.  [analyze:false] records the
    event stream without analyzing it. *)
val attach : ?analyze:bool -> Runtime.t -> t

(** Findings so far (no final audit). *)
val report : t -> report

(** Run the exhaustive coherence audit over every live object and return
    the final report. *)
val finalize : t -> report

(** {1 Offline lint} *)

(** Replay a recorded event stream through the same engine; coherence
    auditing needs the live runtime, so an offline report carries races
    and lock-order cycles only. *)
val lint_events : Event.t list -> report

(** [lint_trace marks] lints the ["san"] marks of a recorded run
    ({!Sim.Span.marks}). *)
val lint_trace : Sim.Span.mark list -> report
