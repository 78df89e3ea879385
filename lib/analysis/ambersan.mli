(** AmberSan: happens-before race detector and coherence sanitizer for
    the Amber object space.

    The sanitizer consumes the runtime's {!San_hooks} event stream and
    maintains vector clocks per thread and per object.  Happens-before
    edges come from thread start/join, lock and spinlock
    release→acquire, barrier generations, condition-variable
    signal→wakeup, future resolve→await, steals, and (trivially, via
    program order) thread migration.  It reports:

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
      continuously at move quiescence and exhaustively at {!finalize},
      over the runtime's own table of live objects ({!Runtime.objects}).

    Every event it analyzes is also recorded as a ["san"] mark in the
    runtime's span collector ({!Sim.Span.mark} of
    {!San_hooks.Event.to_string}, kept only while marks are on), and
    attaching with [analyze:false] only records, for offline
    {!lint_trace}.  Two kinds are never recorded: the move events, which
    only drive the move-quiescence audit, and accesses to
    synchronization objects.  The sanitizer never charges virtual time,
    so a sanitized run is bit-identical to a bare one. *)

open Amber

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

(** One line per finding, in report order: each race, each lock-order
    cycle, then each coherence violation (prefixed [coherence:]).  The
    report section prints them under its header, and AmberCheck makes
    each one a violation. *)
val finding_lines : report -> string list

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
val lint_events : San_hooks.Event.t list -> report

(** [lint_trace marks] lints the ["san"] marks of a recorded run
    ({!Sim.Span.marks}). *)
val lint_trace : Sim.Span.mark list -> report
