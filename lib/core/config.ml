(* One scheduled node crash.  [restart = Some t'] is a transient outage:
   the machine freezes and its packets are dropped until [t'], but no
   state is lost.  [restart = None] is fail-stop: the node's threads die,
   its un-acked RPC state is discarded, and the object space recovers by
   replica promotion / home reconstruction. *)
type crash = { cnode : int; at : float; restart : float option }

type t = {
  nodes : int;
  cpus_per_node : int;
  ether_bandwidth_bps : float;
  ether_mac : Hw.Ethernet.mac;
  rpc_servers_per_node : int;
  cost : Cost_model.t;
  initial_regions_per_node : int;
  vm_page_size : int;
  faults : Hw.Ethernet.faults;
  rpc_rto : float;
  rpc_coalesce : Topaz.Rpc.coalesce option;
  rpc_reliable : bool;
      (* force the reliable (sequence-numbered, retransmitting,
         deduplicating) transport even with fault injection off.  The
         runtime always turns it on when faults are enabled; the model
         checker turns it on explicitly because its fault decisions come
         from the schedule explorer, not the fault dice. *)
  rpc_retire_window : int;
  rpc_unsafe_dedup : bool;
      (* the pre-fix count-window-only dedup eviction, behind a flag so
         the checker's mutation smoke can demonstrate it finds the bug *)
  crashes : crash list;
  crash_rate : float;
      (* per-node probability of drawing one scheduled transient crash
         (crash at a uniform time in (0, 1s], restart one RTO bundle
         later); 0.0 (the default) draws nothing and splits no RNG *)
  rpc_max_retransmits : int;
  crash_skip_repair : bool;
      (* mutation: skip the home-node forwarding-entry reconstruction
         step of fail-stop recovery, so a chain routed through the corpse
         dangles.  Exists only so the model checker can demonstrate the
         repair step is load-bearing *)
  seed : int64;
}

let default =
  {
    nodes = 2;
    cpus_per_node = 4;
    ether_bandwidth_bps = 10e6;
    ether_mac = Hw.Ethernet.Fifo;
    rpc_servers_per_node = 8;
    cost = Cost_model.default;
    initial_regions_per_node = 4;
    vm_page_size = 1024;
    faults = Hw.Ethernet.no_faults;
    rpc_rto = 25e-3;
    rpc_coalesce = None;
    rpc_reliable = false;
    rpc_retire_window = 1024;
    rpc_unsafe_dedup = false;
    crashes = [];
    crash_rate = 0.0;
    rpc_max_retransmits = 30;
    crash_skip_repair = false;
    seed = 0xA3BE5L;
  }

let make ~nodes ~cpus ?(cost = Cost_model.default) ?(seed = default.seed)
    ?(faults = Hw.Ethernet.no_faults) ?coalesce ?(crashes = [])
    ?(crash_rate = 0.0) () =
  {
    default with
    nodes;
    cpus_per_node = cpus;
    cost;
    seed;
    faults;
    rpc_coalesce = coalesce;
    crashes;
    crash_rate;
  }

let crashes_enabled t = t.crashes <> [] || t.crash_rate > 0.0

let validate t =
  if t.nodes <= 0 then invalid_arg "Config: nodes must be positive";
  if t.cpus_per_node <= 0 || t.cpus_per_node > Hw.Machine.max_cpus then
    invalid_arg "Config: cpus_per_node";
  if t.ether_bandwidth_bps <= 0.0 then invalid_arg "Config: bandwidth";
  if t.rpc_servers_per_node <= 0 then invalid_arg "Config: rpc servers";
  if t.initial_regions_per_node <= 0 then invalid_arg "Config: regions";
  if t.vm_page_size <= 0 || t.vm_page_size land 7 <> 0 then
    invalid_arg "Config: vm_page_size";
  Hw.Ethernet.validate_faults t.faults;
  if t.rpc_rto <= 0.0 then invalid_arg "Config: rpc_rto must be positive";
  if t.rpc_retire_window < 0 then
    invalid_arg "Config: rpc_retire_window must be non-negative";
  List.iter
    (fun c ->
      if c.cnode <= 0 || c.cnode >= t.nodes then
        invalid_arg
          "Config: crash node must be in [1, nodes) (node 0 hosts the root \
           environment and cannot crash)";
      if c.at < 0.0 || Float.is_nan c.at then
        invalid_arg "Config: crash time must be non-negative";
      match c.restart with
      | Some r when not (r > c.at) ->
        invalid_arg "Config: crash restart must come after the crash"
      | _ -> ())
    t.crashes;
  (match
     List.sort_uniq compare (List.map (fun c -> c.cnode) t.crashes)
   with
  | uniq when List.length uniq <> List.length t.crashes ->
    invalid_arg "Config: at most one scheduled crash per node"
  | _ -> ());
  if t.crash_rate < 0.0 || t.crash_rate >= 1.0 || Float.is_nan t.crash_rate
  then invalid_arg "Config: crash_rate must be in [0, 1)";
  if t.rpc_max_retransmits <= 0 then
    invalid_arg "Config: rpc_max_retransmits must be positive"
