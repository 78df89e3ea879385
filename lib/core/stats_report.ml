type node_stats = {
  node : int;
  cpu_busy : float;
  utilization : float;
  dispatches : int;
  preemptions : int;
  descriptor_entries : int;
  heap_live_blocks : int;
  heap_regions : int;
}

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

type crash_stats = {
  packets_dropped_dead : int;
  rpc_peer_deaths : int;
}

type t = {
  elapsed : float;
  nodes : node_stats array;
  counters : Runtime.counters;
  packets : int;
  net_bytes : int;
  net_busy : float;
  net_utilization : float;
  net_queueing : float;
  traffic_by_kind : (string * int * int) list;
  faults : fault_stats;
  crash : crash_stats;
  remote_invoke_latency : Sim.Stats.Summary.t;
  move_latency : Sim.Stats.Summary.t;
  coalescing : Topaz.Rpc.coalescing_counters;
  series_dropped : int;
  extra : (string * string list) list;
}

let capture rt =
  let elapsed = Runtime.now rt in
  let cpus = (Runtime.config rt).Config.cpus_per_node in
  let nodes =
    Array.init (Runtime.nodes rt) (fun node ->
        let m = Runtime.machine rt node in
        let busy = Hw.Machine.total_busy_time m in
        {
          node;
          cpu_busy = busy;
          utilization =
            (if elapsed > 0.0 then busy /. (float_of_int cpus *. elapsed)
             else 0.0);
          dispatches = Hw.Machine.dispatch_count m;
          preemptions = Hw.Machine.preemption_count m;
          descriptor_entries = Descriptor.entries (Runtime.descriptors rt node);
          heap_live_blocks = Vaspace.Heap.live_blocks (Runtime.heap rt node);
          heap_regions = List.length (Vaspace.Heap.regions (Runtime.heap rt node));
        })
  in
  let ether = Runtime.ether rt in
  let net_busy = Hw.Ethernet.busy_seconds ether in
  {
    elapsed;
    nodes;
    counters = Runtime.counters rt;
    packets = Hw.Ethernet.packets_sent ether;
    net_bytes = Hw.Ethernet.bytes_sent ether;
    net_busy;
    net_utilization = (if elapsed > 0.0 then net_busy /. elapsed else 0.0);
    net_queueing = Hw.Ethernet.total_queueing ether;
    traffic_by_kind = Hw.Ethernet.traffic_by_kind ether;
    faults =
      (let rel = Topaz.Rpc.reliability (Runtime.rpc rt) in
       let v = Sim.Stats.Counter.value in
       {
         faults_enabled =
           Hw.Ethernet.faults_enabled (Hw.Ethernet.faults_in_effect ether);
         packets_dropped = Hw.Ethernet.packets_dropped ether;
         packets_duplicated = Hw.Ethernet.packets_duplicated ether;
         packets_delayed = Hw.Ethernet.packets_delayed ether;
         packets_stalled = Hw.Ethernet.packets_stalled ether;
         rpc_timeouts = v rel.Topaz.Rpc.timeouts;
         rpc_retransmits = v rel.Topaz.Rpc.retransmits;
         dup_requests = v rel.Topaz.Rpc.dup_requests;
         dup_replies = v rel.Topaz.Rpc.dup_replies;
         dup_datagrams = v rel.Topaz.Rpc.dup_datagrams;
         reply_resends = v rel.Topaz.Rpc.reply_resends;
         acks_sent = v rel.Topaz.Rpc.acks_sent;
         home_fallbacks = (Runtime.counters rt).Runtime.home_fallbacks;
       });
    crash =
      {
        packets_dropped_dead = Hw.Ethernet.packets_dropped_dead ether;
        rpc_peer_deaths = Topaz.Rpc.peer_deaths (Runtime.rpc rt);
      };
    remote_invoke_latency = Runtime.remote_invoke_latency rt;
    move_latency = Runtime.move_latency rt;
    coalescing = Topaz.Rpc.coalescing (Runtime.rpc rt);
    series_dropped = Sim.Series.total_dropped (Runtime.metrics rt);
    extra =
      List.map
        (fun (name, f) -> (name, f ()))
        (Runtime.report_sections rt);
  }

let pp_nodes ppf t =
  Array.iter
    (fun n ->
      Format.fprintf ppf
        "node %d: %5.1f%% busy (%.3fs), %d dispatches, %d preemptions, %d \
         descriptors, %d live objects in %d regions@."
        n.node (n.utilization *. 100.0) n.cpu_busy n.dispatches n.preemptions
        n.descriptor_entries n.heap_live_blocks n.heap_regions)
    t.nodes

let pp ppf t =
  let c = t.counters in
  Format.fprintf ppf "virtual elapsed: %.6f s@." t.elapsed;
  pp_nodes ppf t;
  Format.fprintf ppf
    "invocations: %d local, %d remote; %d thread flights (%d B)@."
    c.Runtime.local_invocations c.Runtime.remote_invocations
    c.Runtime.thread_migrations c.Runtime.migration_bytes;
  Format.fprintf ppf
    "objects: %d created, %d moves, %d copies (%d B); %d locates, %d \
     forwarding hops@."
    c.Runtime.objects_created c.Runtime.object_moves c.Runtime.object_copies
    c.Runtime.move_bytes c.Runtime.locates c.Runtime.forward_hops;
  (* Only printed when the replica protocol was actually used, keeping
     replication-off reports byte-identical to builds predating it. *)
  if
    c.Runtime.replica_installs + c.Runtime.replica_reads
    + c.Runtime.replica_invalidations
    > 0
  then
    Format.fprintf ppf
      "replicas: %d installed, %d reads served, %d invalidations@."
      c.Runtime.replica_installs c.Runtime.replica_reads
      c.Runtime.replica_invalidations;
  (* Same gating for the balancer: with --balance off these counters stay
     zero and the line never prints. *)
  if
    c.Runtime.gossip_rounds + c.Runtime.steal_requests
    + c.Runtime.threads_stolen + c.Runtime.balance_moves
    + c.Runtime.balance_replicas
    > 0
  then
    Format.fprintf ppf
      "balance: %d gossip rounds, %d steal requests, %d threads stolen, %d \
       object moves, %d replicas@."
      c.Runtime.gossip_rounds c.Runtime.steal_requests c.Runtime.threads_stolen
      c.Runtime.balance_moves c.Runtime.balance_replicas;
  (* Gated like replicas/balance: an async-free run prints nothing new. *)
  if c.Runtime.async_invocations > 0 then
    Format.fprintf ppf "async: %d invocations issued, %d result notifies@."
      c.Runtime.async_invocations c.Runtime.future_notifies;
  Format.fprintf ppf
    "network: %d packets, %d bytes, %4.1f%% utilized, %.3f s queueing@."
    t.packets t.net_bytes
    (t.net_utilization *. 100.0)
    t.net_queueing;
  (* Coalescing is opt-in; the line appears only when a frame was
     actually batched, so coalesce-off reports stay byte-identical. *)
  (let z = t.coalescing in
   if z.Topaz.Rpc.coal_frames > 0 then
     Format.fprintf ppf
       "coalescing: %d small datagrams batched into %d frames (%d eligible)@."
       z.Topaz.Rpc.coal_batched z.Topaz.Rpc.coal_frames
       z.Topaz.Rpc.coal_eligible);
  List.iter
    (fun (kind, n, b) ->
      Format.fprintf ppf "  %-14s %6d packets %10d bytes@." kind n b)
    t.traffic_by_kind;
  (let f = t.faults in
   if f.faults_enabled then begin
     Format.fprintf ppf
       "faults: %d dropped, %d duplicated, %d delayed, %d stalled@."
       f.packets_dropped f.packets_duplicated f.packets_delayed
       f.packets_stalled;
     Format.fprintf ppf
       "recovery: %d timeouts, %d retransmits; suppressed %d dup requests, \
        %d dup replies, %d dup datagrams; %d reply resends, %d acks@."
       f.rpc_timeouts f.rpc_retransmits f.dup_requests f.dup_replies
       f.dup_datagrams f.reply_resends f.acks_sent
   end;
   if f.home_fallbacks > 0 then
     Format.fprintf ppf "chain repair: %d home-node fallbacks@."
       f.home_fallbacks;
   if c.Runtime.broadcast_locates > 0 then
     Format.fprintf ppf "chain repair: %d broadcast locates@."
       c.Runtime.broadcast_locates);
  (* Crash injection: gated on a crash having actually happened, so
     crash-free runs keep byte-identical reports. *)
  if c.Runtime.node_crashes > 0 then begin
    Format.fprintf ppf
      "crashes: %d injected (%d restarted); %d packets dead-dropped, %d \
       transactions gave up on a peer@."
      c.Runtime.node_crashes c.Runtime.node_restarts
      t.crash.packets_dropped_dead t.crash.rpc_peer_deaths;
    Format.fprintf ppf
      "recovery: %d replicas promoted to master, %d objects lost, %d chain \
       entries repaired@."
      c.Runtime.recovery_promotions c.Runtime.objects_lost
      c.Runtime.crash_chain_repairs
  end;
  if Sim.Stats.Summary.count t.remote_invoke_latency > 0 then
    Format.fprintf ppf "remote invoke latency: %a@." Sim.Stats.Summary.pp
      t.remote_invoke_latency;
  if Sim.Stats.Summary.count t.move_latency > 0 then
    Format.fprintf ppf "object move latency:   %a@." Sim.Stats.Summary.pp
      t.move_latency;
  (* Ring-buffer truncation is silent at the point of loss; say so here.
     Gated on an actual drop, so bounded runs stay byte-identical. *)
  if t.series_dropped > 0 then
    Format.fprintf ppf "watch: %d series points dropped (ring overflow)@."
      t.series_dropped;
  List.iter
    (fun (name, lines) ->
      Format.fprintf ppf "%s:@." name;
      List.iter (fun l -> Format.fprintf ppf "  %s@." l) lines)
    t.extra
