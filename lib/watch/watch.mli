(** Amber-Watch: continuous virtual-time telemetry.

    {!attach} enables the runtime's {!Sim.Series} registry, registers
    every entry of {!Amber.Stats_report.entries} as a series under the
    entry's name (per-node entries once per node, as [name\@n]), and
    arms a recurring seeded virtual-time tick (the {!Balance.Driver}
    pattern) that samples every instrument into bounded windowed time
    series, each a ring of the newest 4096 points.
    Layers that publish their own series (serve's per-class latency
    windows and admitted-depth gauges, the balance driver's EWMA load
    view) find the registry enabled and join in; {!stop} cancels the
    tick (call it before the workload returns, or the run never
    quiesces) and takes one closing sample.

    A gated ["watch"] report section summarizes every series and the
    {!Slo} verdicts; exporters live in {!Scope.Export} ([series_jsonl],
    [series_csv], and [chrome_json ~counters] for Perfetto counter
    tracks).

    Determinism: sampling draws no RNG and reads only the virtual
    clock, so series are byte-reproducible per seed; an unwatched run
    (no [attach]) schedules nothing, registers nothing, and stays
    byte-identical. *)

module Slo = Slo
module Flight = Flight

type t

val attach :
  Amber.Runtime.t ->
  ?interval:float ->
  ?slo:Slo.rule list ->
  ?flight:Flight.t ->
  unit ->
  t
(** Must run before the workload so layer-owned instruments register.
    [interval] is the sampling tick period in virtual seconds (default
    5 ms); a non-positive one raises [Invalid_argument].  [slo] rules
    are evaluated on demand ({!outcomes}, the report section); [flight]
    merely adds the recorder's summary to the watch report — attach it
    separately. *)

val stop : t -> unit

val registry : t -> Sim.Series.t
val series : t -> Sim.Series.series list

val outcomes : t -> Slo.outcome list
(** Evaluate the attached SLO rules against the sampled series. *)

val slo_fired : t -> bool
val report_lines : t -> string list
