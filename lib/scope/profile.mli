(** The virtual-time profiler: a thin session object tying the runtime's
    span collector to the report, the exporters and the critical-path
    analyzer.

    [attach] must be called from the main Amber thread (it records that
    thread as the root of the critical-path walk); it enables span
    collection and registers a ["profile"] section in [Stats_report] with
    per-kind counts, totals and p50/p95/p99 latencies plus a per-node
    busy/blocked attribution.  Nothing here consumes virtual time or
    draws RNG: a profiled run's base report is byte-identical to an
    unprofiled one. *)

type t

val attach : Amber.Runtime.t -> t

val seal : t -> unit
(** Record the end of the measured region (call at the end of the main
    body, before teardown quiesces).  Without it, analysis runs to the
    current clock. *)

val total : t -> float
val main_tid : t -> int
val spans : t -> Sim.Span.span list

val marks : t -> Sim.Span.mark list
(** The collector's marks: empty unless a layer (the flight recorder)
    turned marks on. *)

val critical_path : t -> Critical_path.report

val report_lines : t -> string list
(** The lines of the ["profile"] report section (also available without
    capturing a full report). *)
