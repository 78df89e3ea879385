(** Every layer's counters and gauges, named once, and the post-run
    report read from them.

    {!entries} is the one list of the engine, Ethernet, machine, RPC,
    heap and runtime numbers.  {!capture} evaluates it into a snapshot
    that {!pp} prints as the [--report] text, and [Watch.attach]
    registers each entry as a time series under the same name.  A new
    counter costs a field and its increment in its layer, plus one entry
    here. *)

type kind =
  | Counter  (** monotonic total *)
  | Gauge  (** instantaneous level *)

type entry = {
  name : string;
      (** the benchmark ledger's name where it has one, else
          [layer.group.name] *)
  kind : kind;
  per_node : bool;  (** one value per node rather than one per cluster *)
  read : Runtime.t -> int -> float;
      (** [read rt node]; a cluster-wide entry ignores [node] *)
}

val entries : entry list

type t = {
  elapsed : float;  (** virtual time of the capture *)
  values : (string * float array) list;
      (** every entry's value by name, in {!entries} order: one per node
          for a per-node entry, else one *)
  faults_enabled : bool;  (** the wire was configured to inject faults *)
  traffic_by_kind : (string * int * int) list;
      (** [(packet kind, packets, bytes)] *)
  remote_invoke_latency : Sim.Stats.Summary.t;
  move_latency : Sim.Stats.Summary.t;
  extra : (string * string list) list;
      (** plug-in sections (see {!Runtime.add_report_section}), evaluated
          at capture time *)
}

(** Snapshot the runtime now (typically after the program finished);
    later activity leaves the snapshot unchanged. *)
val capture : Runtime.t -> t

(** [get t name]: the captured value of entry [name], summed over the
    nodes for a per-node entry.  Raises [Not_found] for an unknown
    name. *)
val get : t -> string -> float

(** The [--report] text.  Lines about replicas, balancing, futures,
    coalescing, faults, chain repair, crashes, latencies and series
    drops print only when their numbers are nonzero (faults: when
    enabled), so a run that never used a feature reports as if it did
    not exist. *)
val pp : Format.formatter -> t -> unit
