type kind = Counter | Gauge

type entry = {
  name : string;
  kind : kind;
  per_node : bool;
  read : Runtime.t -> int -> float;
}

let fi = float_of_int

(* Each definition below appends its entry, so [entries] holds every
   entry once, in definition order, from module initialisation on.
   Entries the report does not print are bound to [_]. *)
let defined = ref []

let define kind per_node name read =
  let e = { name; kind; per_node; read } in
  defined := e :: !defined;
  e

let cluster kind name f = define kind false name (fun rt _ -> f rt)
let node kind name f = define kind true name f

(* The engine and the series registry. *)
let _ =
  cluster Counter "sim.engine.events" (fun rt ->
      fi (Sim.Engine.events_executed (Runtime.engine rt)))

let _ =
  cluster Gauge "sim.engine.queue" (fun rt ->
      fi (Sim.Engine.pending (Runtime.engine rt)))

let series_dropped =
  cluster Counter "sim.series.dropped" (fun rt ->
      fi (Sim.Series.total_dropped (Runtime.metrics rt)))

(* The shared medium. *)
let ether name f = cluster Counter name (fun rt -> f (Runtime.ether rt))
let ether_n name f = ether name (fun e -> fi (f e))
let packets = ether_n "hw.ethernet.packets" Hw.Ethernet.packets_sent
let bytes = ether_n "hw.ethernet.bytes" Hw.Ethernet.bytes_sent
let net_busy = ether "hw.ethernet.busy_s" Hw.Ethernet.busy_seconds
let net_queueing = ether "hw.ethernet.queueing_s" Hw.Ethernet.total_queueing
let _ = ether_n "hw.ethernet.collisions" Hw.Ethernet.collisions
let dropped = ether_n "hw.ethernet.dropped" Hw.Ethernet.packets_dropped
let duplicated = ether_n "hw.ethernet.duplicated" Hw.Ethernet.packets_duplicated
let delayed = ether_n "hw.ethernet.delayed" Hw.Ethernet.packets_delayed
let stalled = ether_n "hw.ethernet.stalled" Hw.Ethernet.packets_stalled

let dead_dropped =
  ether_n "hw.ethernet.dead_dropped" Hw.Ethernet.packets_dropped_dead

(* The machines, per node. *)
let machine kind name f = node kind name (fun rt n -> f (Runtime.machine rt n))
let machine_n kind name f = machine kind name (fun m -> fi (f m))
let cpus = machine_n Gauge "hw.machine.cpus" Hw.Machine.cpu_count
let cpu_busy = machine Counter "hw.machine.busy_s" Hw.Machine.total_busy_time

let dispatches =
  machine_n Counter "hw.machine.dispatches" Hw.Machine.dispatch_count

let preemptions =
  machine_n Counter "hw.machine.preemptions" Hw.Machine.preemption_count

let _ = machine_n Gauge "hw.machine.ready" Hw.Machine.ready_length
let _ = machine_n Gauge "hw.machine.running" Hw.Machine.busy_cpus

(* The RPC fabric. *)
let rpc kind name f = cluster kind name (fun rt -> fi (f (Runtime.rpc rt)))
let _ = rpc Counter "topaz.rpc.calls" Topaz.Rpc.calls_made
let _ = rpc Counter "topaz.rpc.posts" Topaz.Rpc.posts_made
let _ = rpc Counter "topaz.rpc.posts_rejected" Topaz.Rpc.posts_rejected
let _ = rpc Gauge "topaz.rpc.in_flight" Topaz.Rpc.in_flight
let peer_deaths = rpc Counter "topaz.rpc.peer_deaths" Topaz.Rpc.peer_deaths

let _ =
  node Gauge "topaz.rpc.backlog" (fun rt n ->
      fi (Topaz.Rpc.backlog (Runtime.rpc rt) n))

let rel name (f : Topaz.Rpc.reliability_counters -> Sim.Stats.Counter.t) =
  rpc Counter name (fun r ->
      Sim.Stats.Counter.value (f (Topaz.Rpc.reliability r)))

let timeouts = rel "topaz.rpc.timeouts" (fun r -> r.timeouts)
let retransmits = rel "topaz.rpc.retransmits" (fun r -> r.retransmits)
let dup_requests = rel "topaz.rpc.dup_requests" (fun r -> r.dup_requests)
let dup_replies = rel "topaz.rpc.dup_replies" (fun r -> r.dup_replies)
let dup_datagrams = rel "topaz.rpc.dup_datagrams" (fun r -> r.dup_datagrams)
let reply_resends = rel "topaz.rpc.reply_resends" (fun r -> r.reply_resends)
let acks = rel "topaz.rpc.acks" (fun r -> r.acks_sent)

let coal name (f : Topaz.Rpc.coalescing_counters -> int) =
  rpc Counter name (fun r -> f (Topaz.Rpc.coalescing r))

let coal_eligible = coal "topaz.coalesce.eligible" (fun z -> z.coal_eligible)
let coal_batched = coal "topaz.coalesce.batched" (fun z -> z.coal_batched)
let coal_frames = coal "topaz.coalesce.frames" (fun z -> z.coal_frames)

(* Heaps and descriptor tables, per node. *)
let heap kind name f = node kind name (fun rt n -> fi (f (Runtime.heap rt n)))
let _ = heap Counter "vaspace.as_grants" Vaspace.Heap.grow_count
let live_blocks = heap Gauge "vaspace.live_blocks" Vaspace.Heap.live_blocks

let regions =
  heap Gauge "vaspace.heap.regions" (fun h ->
      List.length (Vaspace.Heap.regions h))

let descriptors =
  node Gauge "amber.descriptor.entries" (fun rt n ->
      fi (Descriptor.entries (Runtime.descriptors rt n)))

let _ =
  cluster Gauge "amber.cluster.up_nodes" (fun rt ->
      fi
        (List.length
           (List.filter (Runtime.node_is_up rt)
              (List.init (Runtime.nodes rt) Fun.id))))

(* The runtime's own counters. *)
let amber name (f : Runtime.counters -> int) =
  cluster Counter name (fun rt -> fi (f (Runtime.counters rt)))

let local = amber "amber.invoke.local" (fun c -> c.local_invocations)
let remote = amber "amber.invoke.remote" (fun c -> c.remote_invocations)
let migrations = amber "amber.thread.migrations" (fun c -> c.thread_migrations)

let migration_bytes =
  amber "amber.thread.migration_bytes" (fun c -> c.migration_bytes)

let _ = amber "amber.thread.started" (fun c -> c.threads_started)
let created = amber "amber.object.created" (fun c -> c.objects_created)
let moves = amber "amber.mobility.moves" (fun c -> c.object_moves)
let copies = amber "amber.mobility.copies" (fun c -> c.object_copies)
let move_bytes = amber "amber.mobility.move_bytes" (fun c -> c.move_bytes)
let locates = amber "amber.mobility.locates" (fun c -> c.locates)
let hops = amber "amber.mobility.forward_hops" (fun c -> c.forward_hops)

let installs = amber "amber.coherence.installs" (fun c -> c.replica_installs)

let replica_reads =
  amber "amber.coherence.replica_reads" (fun c -> c.replica_reads)

let invalidations =
  amber "amber.coherence.invalidations" (fun c -> c.replica_invalidations)

let async = amber "amber.future.invocations" (fun c -> c.async_invocations)
let notifies = amber "amber.future.notifies" (fun c -> c.future_notifies)
let crashes = amber "amber.crash.injected" (fun c -> c.node_crashes)
let restarts = amber "amber.crash.restarts" (fun c -> c.node_restarts)

let promotions =
  amber "amber.recovery.promotions" (fun c -> c.recovery_promotions)

let lost = amber "amber.recovery.objects_lost" (fun c -> c.objects_lost)

let chain_repairs =
  amber "amber.recovery.chain_repairs" (fun c -> c.crash_chain_repairs)

let gossip = amber "balance.gossip.rounds" (fun c -> c.gossip_rounds)
let steal_requests = amber "balance.steal.requests" (fun c -> c.steal_requests)
let stolen = amber "balance.steal.threads" (fun c -> c.threads_stolen)
let balance_moves = amber "balance.rebalance.moves" (fun c -> c.balance_moves)

let entries = List.rev !defined

type t = {
  elapsed : float;
  values : (string * float array) list;
  faults_enabled : bool;
  traffic_by_kind : (string * int * int) list;
  remote_invoke_latency : Sim.Stats.Summary.t;
  move_latency : Sim.Stats.Summary.t;
  extra : (string * string list) list;
}

let capture rt =
  let nodes = Runtime.nodes rt in
  let ether = Runtime.ether rt in
  {
    elapsed = Runtime.now rt;
    values =
      List.map
        (fun e ->
          ( e.name,
            if e.per_node then Array.init nodes (e.read rt)
            else [| e.read rt (-1) |] ))
        entries;
    faults_enabled =
      Hw.Ethernet.faults_enabled (Hw.Ethernet.faults_in_effect ether);
    traffic_by_kind = Hw.Ethernet.traffic_by_kind ether;
    remote_invoke_latency =
      Sim.Stats.Summary.copy (Runtime.remote_invoke_latency rt);
    move_latency = Sim.Stats.Summary.copy (Runtime.move_latency rt);
    extra =
      List.map
        (fun (name, f) -> (name, f ()))
        (Runtime.report_sections rt);
  }

let get t name = Array.fold_left ( +. ) 0.0 (List.assoc name t.values)

let pp_nodes ppf t =
  let at e = List.assoc e.name t.values in
  Array.iteri
    (fun n busy ->
      let i e = int_of_float (at e).(n) in
      let utilization =
        if t.elapsed > 0.0 then busy /. ((at cpus).(n) *. t.elapsed) else 0.0
      in
      Format.fprintf ppf
        "node %d: %5.1f%% busy (%.3fs), %d dispatches, %d preemptions, %d \
         descriptors, %d live objects in %d regions@."
        n (utilization *. 100.0) busy (i dispatches) (i preemptions)
        (i descriptors) (i live_blocks) (i regions))
    (at cpu_busy)

let pp ppf t =
  let v e = get t e.name in
  let i e = int_of_float (v e) in
  Format.fprintf ppf "virtual elapsed: %.6f s@." t.elapsed;
  pp_nodes ppf t;
  Format.fprintf ppf
    "invocations: %d local, %d remote; %d thread flights (%d B)@." (i local)
    (i remote) (i migrations) (i migration_bytes);
  Format.fprintf ppf
    "objects: %d created, %d moves, %d copies (%d B); %d locates, %d \
     forwarding hops@."
    (i created) (i moves) (i copies) (i move_bytes) (i locates) (i hops);
  (* Only printed when the replica protocol was actually used, keeping
     replication-off reports byte-identical to builds predating it. *)
  if i installs + i replica_reads + i invalidations > 0 then
    Format.fprintf ppf
      "replicas: %d installed, %d reads served, %d invalidations@."
      (i installs) (i replica_reads) (i invalidations);
  (* Same gating for the balancer: with --balance off these counters stay
     zero and the line never prints. *)
  if i gossip + i steal_requests + i stolen + i balance_moves > 0 then
    Format.fprintf ppf
      "balance: %d gossip rounds, %d steal requests, %d threads stolen, %d \
       object moves@."
      (i gossip) (i steal_requests) (i stolen) (i balance_moves);
  (* Gated like replicas/balance: an async-free run prints nothing new. *)
  if i async > 0 then
    Format.fprintf ppf "async: %d invocations issued, %d result notifies@."
      (i async) (i notifies);
  Format.fprintf ppf
    "network: %d packets, %d bytes, %4.1f%% utilized, %.3f s queueing@."
    (i packets) (i bytes)
    ((if t.elapsed > 0.0 then v net_busy /. t.elapsed else 0.0) *. 100.0)
    (v net_queueing);
  (* Coalescing is opt-in; the line appears only when a frame was
     actually batched, so coalesce-off reports stay byte-identical. *)
  if i coal_frames > 0 then
    Format.fprintf ppf
      "coalescing: %d small datagrams batched into %d frames (%d eligible)@."
      (i coal_batched) (i coal_frames) (i coal_eligible);
  List.iter
    (fun (kind, n, b) ->
      Format.fprintf ppf "  %-14s %6d packets %10d bytes@." kind n b)
    t.traffic_by_kind;
  if t.faults_enabled then begin
    Format.fprintf ppf
      "faults: %d dropped, %d duplicated, %d delayed, %d stalled@."
      (i dropped) (i duplicated) (i delayed) (i stalled);
    Format.fprintf ppf
      "recovery: %d timeouts, %d retransmits; suppressed %d dup requests, \
       %d dup replies, %d dup datagrams; %d reply resends, %d acks@."
      (i timeouts) (i retransmits) (i dup_requests) (i dup_replies)
      (i dup_datagrams) (i reply_resends) (i acks)
  end;
  (* Crash injection: gated on a crash having actually happened, so
     crash-free runs keep byte-identical reports. *)
  if i crashes > 0 then begin
    Format.fprintf ppf
      "crashes: %d injected (%d restarted); %d packets dead-dropped, %d \
       transactions gave up on a peer@."
      (i crashes) (i restarts) (i dead_dropped) (i peer_deaths);
    Format.fprintf ppf
      "recovery: %d replicas promoted to master, %d objects lost, %d chain \
       entries repaired@."
      (i promotions) (i lost) (i chain_repairs)
  end;
  if Sim.Stats.Summary.count t.remote_invoke_latency > 0 then
    Format.fprintf ppf "remote invoke latency: %a@." Sim.Stats.Summary.pp
      t.remote_invoke_latency;
  if Sim.Stats.Summary.count t.move_latency > 0 then
    Format.fprintf ppf "object move latency:   %a@." Sim.Stats.Summary.pp
      t.move_latency;
  (* Ring-buffer truncation is silent at the point of loss; say so here.
     Gated on an actual drop, so bounded runs stay byte-identical. *)
  if i series_dropped > 0 then
    Format.fprintf ppf "watch: %d series points dropped (ring overflow)@."
      (i series_dropped);
  List.iter
    (fun (name, lines) ->
      Format.fprintf ppf "%s:@." name;
      List.iter (fun l -> Format.fprintf ppf "  %s@." l) lines)
    t.extra
