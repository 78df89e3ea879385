(** Exporters for span traces and instant marks.

    [chrome_json] emits Chrome trace-event format (the JSON object form
    with a ["traceEvents"] array), loadable in Perfetto / chrome://tracing:
    one complete ("X") event per span with [pid] = node and [tid] = TCB id,
    microsecond timestamps, and a flow arrow ("s"/"f" pair) for every
    cross-node flight so remote operations draw as arcs between node
    tracks.  [args] carries the span id, parent id, object address and the
    kind-specific argument, which is what the CI nesting validator checks.

    [spans_jsonl] / [mark_json] are the line-oriented dumps for ad hoc
    tooling: one self-contained JSON object per line. *)

val chrome_json :
  ?counters:Sim.Series.series list ->
  ?marks:Sim.Span.mark list ->
  ?clip:float ->
  Sim.Span.span list ->
  string
(** [clip] closes still-open spans at that time (defaults to the latest
    timestamp seen in the list).  [counters] adds watch time series as
    counter ("C") events — one Perfetto counter track per (node, series)
    — so load curves render under the span lanes.  [marks] adds one
    thread-scoped instant ("i") event per mark on its node/tid track,
    named by category, with [args.span] the enclosing span (0 for none)
    and [args.detail] the mark's text; an empty list adds nothing. *)

val spans_jsonl : ?clip:float -> Sim.Span.span list -> string list

val span_json : clip:float -> Sim.Span.span -> string
(** One span as a single JSON object (the [spans_jsonl] line format). *)

val jstr : string -> string
(** JSON string literal with escaping, for callers assembling documents
    around the primitives above. *)

val series_jsonl : Sim.Series.series list -> string list
(** One self-contained JSON object per series: name, node, kind, drop
    count and the full [[t, v]] point list. *)

val series_csv : Sim.Series.series list -> string
(** Long-format CSV ([series,node,kind,time_s,value]), one row per
    point. *)

val mark_json : Sim.Span.mark -> string
(** One mark as a single JSON object with keys [time], [category],
    [detail], [node], [cpu], [tid], [obj], [span] and [parent]. *)
