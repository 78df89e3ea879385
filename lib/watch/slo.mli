(** SLO burn-rate monitors over watch time series.

    A rule declares an objective on one series — e.g.
    ["serve.latency_ms.p99<=60@0.1"]: the p99 latency series must stay
    at or below 60ms, with an error budget of 10% of samples.  After a
    run, {!evaluate} replays the sampled points through a classic
    multi-window burn-rate gate: at each tick the {e burn} is the bad
    fraction over a trailing window divided by the budget, and the rule
    {e fires} at the first tick where both the short (12-tick) and long
    (48-tick) windows burn at >= 1x — sustained breaches trip quickly,
    a lone bad tick never does.  Evaluation is a pure function of the
    series, so verdicts are deterministic per seed. *)

type op = Le | Ge

type rule = {
  text : string;  (** original rule string, for reports *)
  series : string;  (** qualified series name, see {!Sim.Series.find} *)
  op : op;
  threshold : float;
  budget : float;  (** allowed bad-sample fraction, in (0, 1] *)
}

val default_budget : float

val parse : string -> (rule, string) result
(** Syntax: [SERIES<=THRESHOLD] or [SERIES>=THRESHOLD], optionally
    [@BUDGET] (default 0.1).  Examples:
    ["serve.latency_ms.p99<=60"], ["serve.latency_ms.rate>=800@0.2"]. *)

type outcome = {
  rule : rule;
  points : int;  (** samples evaluated; 0 = series missing/empty *)
  bad : int;  (** samples violating the objective *)
  fired : bool;
  fire_at : float option;  (** virtual time of the first firing tick *)
  peak_fast : float;  (** max short-window burn observed *)
  peak_slow : float;  (** max long-window burn observed *)
}

val evaluate : Sim.Series.t -> rule -> outcome
val any_fired : outcome list -> bool
val outcome_line : outcome -> string
val report_lines : outcome list -> string list
