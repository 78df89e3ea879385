(** Post-run cluster statistics: per-node utilization, protocol counters,
    network summary — the observability layer for the CLI and benches. *)

type node_stats = {
  node : int;
  cpu_busy : float;  (** total CPU-seconds consumed on this node *)
  utilization : float;  (** busy / (cpus × elapsed) *)
  dispatches : int;
  preemptions : int;
  descriptor_entries : int;
  heap_live_blocks : int;
  heap_regions : int;
}

(** Fault-injection and recovery summary.  All zero on a fault-free run
    ([faults_enabled = false]); [home_fallbacks] can be nonzero even
    without faults (sabotaged descriptor chains). *)
type fault_stats = {
  faults_enabled : bool;
  packets_dropped : int;
  packets_duplicated : int;
  packets_delayed : int;
  packets_stalled : int;
  rpc_timeouts : int;
  rpc_retransmits : int;
  dup_requests : int;
  dup_replies : int;
  dup_datagrams : int;
  reply_resends : int;
  acks_sent : int;
  home_fallbacks : int;
}

(** Crash-injection summary.  All zero on a crash-free run; the crash
    report lines print only when a node actually crashed. *)
type crash_stats = {
  packets_dropped_dead : int;
      (** packets the wire dropped because their destination was down *)
  rpc_peer_deaths : int;
      (** reliable transactions that gave up on a dead peer *)
}

type t = {
  elapsed : float;
  nodes : node_stats array;
  counters : Runtime.counters;
  packets : int;
  net_bytes : int;
  net_busy : float;  (** seconds the medium carried traffic *)
  net_utilization : float;
  net_queueing : float;
  traffic_by_kind : (string * int * int) list;
      (** [(packet kind, packets, bytes)] *)
  faults : fault_stats;
  crash : crash_stats;
  remote_invoke_latency : Sim.Stats.Summary.t;
  move_latency : Sim.Stats.Summary.t;
  coalescing : Topaz.Rpc.coalescing_counters;
      (** wire-level datagram batching activity (all zero with
          coalescing off; the report line prints only when a frame was
          actually batched) *)
  series_dropped : int;
      (** watch series points lost to ring overflow, summed over all
          series (line gated on an actual drop) *)
  extra : (string * string list) list;
      (** plug-in sections (see {!Runtime.add_report_section}), evaluated
          at capture time *)
}

(** Snapshot the runtime now (typically after the program finished). *)
val capture : Runtime.t -> t

val pp : Format.formatter -> t -> unit

(** One line per node: "node 3: 42.0% busy, ...". *)
val pp_nodes : Format.formatter -> t -> unit
