(** Windowed time-series registry for continuous virtual-time telemetry.

    A registry holds {e instruments} — polled gauges/counters and
    push-style latency windows — and turns them into bounded per-series
    point rings each time {!sample} runs (the watch layer schedules that
    on a recurring virtual-time tick).  Everything here is deterministic
    and RNG-free: points are a pure function of the instrument values at
    each tick, percentiles come from exact {!Stats.Log_histogram}s, and
    a disabled registry ({!enabled} [= false], the default) does no work
    at all — {!sample} and {!observe} return after one branch, so an
    attached-but-never-enabled registry keeps runs byte-identical.

    Ring overflow drops the {e oldest} points and counts the loss
    ({!dropped} / {!total_dropped}), which the stats report surfaces so
    silent truncation is visible. *)

type t
(** A registry.  Created disabled. *)

type point = { at : float; v : float }
(** One sample: virtual time [at] (seconds), value [v]. *)

(** [Gauge] — instantaneous polled value.  [Cumulative] — monotonic
    polled counter (consumers diff it for rates).  [Derived] — computed
    from a latency window at sample time (percentiles, rate). *)
type kind = Gauge | Cumulative | Derived

type series
(** One named time series; points live in a bounded ring. *)

type window
(** Push-style latency window: {!observe}d values accumulate in a
    log-bucketed histogram that each {!sample} converts into [.p50],
    [.p95], [.p99] (only when the window saw data) and [.rate] (always)
    points, then resets — so the derived series describe the interval
    since the previous tick, not the whole run. *)

val create : ?capacity:int -> clock:(unit -> float) -> unit -> t
(** [capacity] bounds every series ring (default 4096 points).  [clock]
    supplies virtual time for point stamps. *)

val enabled : t -> bool
val enable : t -> unit

val probe : t -> name:string -> ?node:int -> (unit -> float) -> unit
(** Register a polled gauge; [f] runs once per {!sample}.  [node] tags
    the series with its home node ([-1], the default, = cluster-wide). *)

val counter : t -> name:string -> ?node:int -> (unit -> float) -> unit
(** Polled monotonic counter ({!Cumulative}). *)

val window : t -> name:string -> ?node:int -> ?scale:float -> unit -> window
(** Register a latency window.  Derived points are multiplied by
    [scale] (e.g. [1e3] to report seconds as milliseconds). *)

val observe : window -> float -> unit
(** Record one value into the window.  No-op while the registry is
    disabled. *)

val sample : t -> unit
(** Take one sample of every instrument, in registration order.
    Idempotent per virtual instant (a second call at the same clock
    reading is a no-op, so tick + closing samples never collide).  No-op
    while disabled. *)

val all : t -> series list
(** Every series, in registration order (a window contributes its four
    derived series in p50/p95/p99/rate order). *)

val find : t -> string -> series option
(** Look up by qualified name: ["name"] for cluster-wide series,
    ["name\@N"] for node-tagged ones. *)

val name : series -> string
val qualified : series -> string
val node : series -> int
val kind : series -> kind
val kind_label : kind -> string
val length : series -> int
val points : series -> point list
val iter_points : series -> (point -> unit) -> unit
val last : series -> point option
val dropped : series -> int

val total_dropped : t -> int
(** Points lost to ring overflow, summed over all series. *)

val samples_taken : t -> int
