(** Per-node failure flight recorder.

    Attaching turns on both spans and marks in the runtime's collector
    ({!Sim.Span}), then subscribes to {!Amber.Runtime.on_failure}:
    whenever a typed failure fires (["node_dead"], ["node_down"],
    ["object_lost"], serve's ["overloaded"], the sanitizer's ["san"]),
    the recorder dumps a postmortem artifact — a JSON document holding
    the failure header, under ["trace"] every mark stamped inside the
    trailing {!window} (never later than the failure), and the victim
    node's spans that were open or recently closed at failure time (all
    nodes for cluster-scoped failures).  At most one dump per
    (kind, node) and 4 in all; anything beyond that is counted
    suppressed.

    Dump files are named
    [postmortem-<seq>-<kind>-<n<node>|all>.json] under [dir] (created
    on demand).  Contents are a deterministic function of the seed. *)

type t

val window : float
(** How far back a postmortem reaches: 50 virtual milliseconds. *)

val attach : Amber.Runtime.t -> dir:string -> t

val dumps : t -> string list
(** Paths written so far, oldest first. *)

val dump_count : t -> int
val suppressed : t -> int

val record : t -> kind:string -> node:int -> detail:string -> unit
(** Manually trigger a dump (the attach hook calls this for runtime
    failures). *)

val report_lines : t -> string list
