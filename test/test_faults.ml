(* Fault injection: workloads survive a lossy network with unchanged
   results (exactly-once semantics), the fault pattern and the recovery
   counters are a pure function of the seed, and the forwarding-chain
   repair (home-node fallback) path works. *)

module A = Amber
module W = Workloads

let faults ?(drop = 0.0) ?(dup = 0.0) ?(delay_prob = 0.0)
    ?(delay_spike = 10e-3) ?(stalls = []) () =
  {
    Hw.Ethernet.drop_prob = drop;
    dup_prob = dup;
    delay_prob;
    delay_spike;
    stalls;
  }

let fault_stats = A.Stats_report.capture
let count f name = int_of_float (A.Stats_report.get f name)

(* --- workloads under injected loss --------------------------------------- *)

let test_sor_correct_under_drop () =
  let p = W.Sor_core.with_size W.Sor_core.default ~rows:24 ~cols:48 in
  let iters = 4 in
  let want = W.Sor_core.Full_grid.checksum (W.Sor_core.reference p ~iters) in
  let cfg = A.Config.make ~nodes:4 ~cpus:2 ~faults:(faults ~drop:0.05 ()) () in
  let r, f =
    A.Cluster.run_value cfg (fun rt ->
        let c = W.Sor_amber.default_cfg rt in
        let r = W.Sor_amber.run rt p ~cfg:c ~iters () in
        (r, fault_stats rt))
  in
  Alcotest.(check (float 0.0)) "checksum unchanged by faults" want
    r.W.Sor_amber.checksum;
  Alcotest.(check bool) "faults actually fired" true
    (count f "hw.ethernet.dropped" > 0);
  Alcotest.(check bool) "recovered by retransmission" true
    (count f "topaz.rpc.retransmits" > 0)

let wq_cfg items move_at =
  {
    W.Work_queue.items;
    work_cpu = 2e-3;
    batch = 4;
    workers_per_node = 2;
    move_queue_at = move_at;
  }

let test_workqueue_exactly_once_under_faults () =
  (* Drop + duplicate + delay together, with a queue migration mid-run:
     every item must still be processed exactly once. *)
  let cfg =
    A.Config.make ~nodes:4 ~cpus:2
      ~faults:(faults ~drop:0.08 ~dup:0.03 ~delay_prob:0.02 ())
      ()
  in
  let r, f =
    A.Cluster.run_value cfg (fun rt ->
        let r = W.Work_queue.run rt (wq_cfg 60 (Some 25)) in
        (r, fault_stats rt))
  in
  Alcotest.(check int) "all items processed" 60 r.W.Work_queue.processed;
  Alcotest.(check int) "per-node counts sum to items" 60
    (Array.fold_left ( + ) 0 r.W.Work_queue.per_node);
  Alcotest.(check bool) "duplicates were suppressed" true
    (count f "topaz.rpc.dup_datagrams"
     + count f "topaz.rpc.dup_requests"
     + count f "topaz.rpc.dup_replies"
    > 0
    || count f "hw.ethernet.duplicated" = 0)

let test_stall_window_rides_out () =
  let cfg =
    A.Config.make ~nodes:3 ~cpus:2
      ~faults:
        (faults
           ~stalls:[ { Hw.Ethernet.node = 1; from_t = 0.01; until_t = 0.15 } ]
           ())
      ()
  in
  let r, f =
    A.Cluster.run_value cfg (fun rt ->
        let r = W.Work_queue.run rt (wq_cfg 40 None) in
        (r, fault_stats rt))
  in
  Alcotest.(check int) "all items processed" 40 r.W.Work_queue.processed;
  Alcotest.(check bool) "stall window held packets" true
    (count f "hw.ethernet.stalled" > 0)

(* --- determinism ---------------------------------------------------------- *)

let test_fault_pattern_deterministic () =
  let run_once () =
    let cfg =
      A.Config.make ~nodes:4 ~cpus:2 ~seed:0x5EEDL
        ~faults:(faults ~drop:0.06 ~dup:0.02 ())
        ()
    in
    A.Cluster.run_value cfg (fun rt ->
        let r = W.Work_queue.run rt (wq_cfg 50 (Some 20)) in
        (r.W.Work_queue.processed, A.Runtime.now rt, fault_stats rt))
  in
  let p1, t1, f1 = run_once () in
  let p2, t2, f2 = run_once () in
  Alcotest.(check int) "same items" p1 p2;
  Alcotest.(check (float 0.0)) "bit-identical elapsed" t1 t2;
  Alcotest.(check bool) "identical fault + recovery counters" true
    (f1.A.Stats_report.values = f2.A.Stats_report.values);
  Alcotest.(check bool) "retries happened at all" true
    (count f1 "topaz.rpc.retransmits" > 0)

let test_no_faults_no_overhead () =
  (* With faults disabled the reliability layer must not exist: no drops,
     no timers, no acks, no sequence numbers — counters all zero. *)
  let cfg = A.Config.make ~nodes:4 ~cpus:2 () in
  let f, reliable, kinds =
    A.Cluster.run_value cfg (fun rt ->
        let _r = W.Work_queue.run rt (wq_cfg 30 None) in
        ( fault_stats rt,
          Topaz.Rpc.reliable_mode (A.Runtime.rpc rt),
          List.map
            (fun (k, _, _) -> k)
            (Hw.Ethernet.traffic_by_kind (A.Runtime.ether rt)) ))
  in
  Alcotest.(check bool) "transport in at-most-once mode" false reliable;
  Alcotest.(check bool) "faults reported off" false
    f.A.Stats_report.faults_enabled;
  Alcotest.(check int) "no drops" 0 (count f "hw.ethernet.dropped");
  Alcotest.(check int) "no retransmits" 0 (count f "topaz.rpc.retransmits");
  Alcotest.(check int) "no acks" 0 (count f "topaz.rpc.acks");
  (* "move-ack"/"copy-ack" are protocol-level posts and legal; transport
     acks like "thread-ack" must not appear. *)
  Alcotest.(check bool) "no transport acks on the wire" true
    (not (List.mem "thread-ack" kinds))

(* --- forwarding-chain repair --------------------------------------------- *)

let test_home_fallback_repairs_stale_chain () =
  (* A cycle of stale descriptors (1 -> 2 -> 4 -> 1) that never reaches
     the object.  With a hop budget of 2 the chase must give up on the
     chain and restart at the home node, whose hint is authoritative. *)
  let cfg =
    { (A.Config.make ~nodes:6 ~cpus:2 ()) with A.Config.max_forward_hops = 2 }
  in
  A.Cluster.run_value cfg (fun rt ->
      let o = A.Api.create rt ~name:"wanderer" (ref 0) in
      A.Api.move_to rt o ~dest:5;
      let anchor = A.Api.create rt ~name:"anchor" () in
      A.Api.move_to rt anchor ~dest:3;
      let fwd n next =
        A.Descriptor.set_forwarded (A.Runtime.descriptors rt n)
          o.A.Aobject.addr next
      in
      fwd 3 1;
      fwd 1 2;
      fwd 2 4;
      fwd 4 1;
      let where =
        A.Api.invoke rt anchor (fun () -> A.Api.locate rt o)
      in
      Alcotest.(check int) "resolved at the true location" 5 where;
      Alcotest.(check bool) "went through the home fallback" true
        ((A.Runtime.counters rt).A.Runtime.home_fallbacks > 0);
      (* The repair rewrote the stale chain: a second locate is direct. *)
      let hops_before = (A.Runtime.counters rt).A.Runtime.forward_hops in
      let where2 = A.Api.invoke rt anchor (fun () -> A.Api.locate rt o) in
      Alcotest.(check int) "still resolves" 5 where2;
      Alcotest.(check bool) "chain was compacted" true
        ((A.Runtime.counters rt).A.Runtime.forward_hops - hops_before <= 1))

let test_wedged_chain_repaired_by_broadcast () =
  (* Sabotage the home node itself so even the home fallback loops — the
     shape concurrent moves can produce naturally.  The chase must detect
     the static cycle, fall back to the Emerald-style exhaustive search,
     find the resident copy and repair the stale descriptors. *)
  let cfg =
    { (A.Config.make ~nodes:4 ~cpus:2 ()) with A.Config.max_forward_hops = 2 }
  in
  A.Cluster.run_value cfg (fun rt ->
      let o = A.Api.create rt ~name:"lost" (ref 0) in
      A.Api.move_to rt o ~dest:3;
      let fwd n next =
        A.Descriptor.set_forwarded (A.Runtime.descriptors rt n)
          o.A.Aobject.addr next
      in
      (* Home (node 0) now points into a cycle that avoids node 3. *)
      fwd 0 1;
      fwd 1 2;
      fwd 2 0;
      Alcotest.(check int) "search finds the resident copy" 3
        (A.Api.locate rt o);
      Alcotest.(check bool) "went through the broadcast" true
        ((A.Runtime.counters rt).A.Runtime.broadcast_locates > 0);
      (* The success-path compression rewrote the cycle: the world is
         coherent again and a second locate needs no repair. *)
      A.Audit.check_exn rt [ A.Aobject.Any o ];
      let b = (A.Runtime.counters rt).A.Runtime.broadcast_locates in
      Alcotest.(check int) "still resolves" 3 (A.Api.locate rt o);
      Alcotest.(check int) "no further broadcasts" b
        (A.Runtime.counters rt).A.Runtime.broadcast_locates)

let test_truly_dangling_reference_fails_cleanly () =
  (* A self-loop descriptor is unrepairable garbage: the chase must
     terminate with a clean diagnostic rather than spin forever. *)
  A.Cluster.run_value (A.Config.make ~nodes:4 ~cpus:2 ()) (fun rt ->
      let o = A.Api.create rt ~name:"gone" (ref 0) in
      A.Api.move_to rt o ~dest:2;
      A.Descriptor.set_forwarded (A.Runtime.descriptors rt 0) o.A.Aobject.addr
        0;
      match A.Api.invoke rt o (fun r -> !r) with
      | _ -> Alcotest.fail "expected the chase to report a dangling reference"
      | exception Failure msg ->
        Alcotest.(check bool) "diagnostic names the reference" true
          (String.length msg > 0))

let test_validation_rejects_bad_faults () =
  let bad f =
    match
      A.Config.validate { A.Config.default with A.Config.faults = f }
    with
    | () -> Alcotest.fail "expected rejection"
    | exception Invalid_argument _ -> ()
  in
  bad (faults ~drop:1.5 ());
  bad (faults ~drop:(-0.1) ());
  bad (faults ~dup:1.0 ());
  bad (faults ~delay_prob:0.5 ~delay_spike:(-1.0) ());
  bad
    (faults ~stalls:[ { Hw.Ethernet.node = 0; from_t = 0.2; until_t = 0.1 } ] ())

let suite =
  [
    Alcotest.test_case "SOR checksum unchanged under 5% drop" `Quick
      test_sor_correct_under_drop;
    Alcotest.test_case "work queue exactly-once under drop+dup+delay" `Quick
      test_workqueue_exactly_once_under_faults;
    Alcotest.test_case "stall window rides out" `Quick
      test_stall_window_rides_out;
    Alcotest.test_case "fault pattern deterministic in the seed" `Quick
      test_fault_pattern_deterministic;
    Alcotest.test_case "no faults, no reliability overhead" `Quick
      test_no_faults_no_overhead;
    Alcotest.test_case "home fallback repairs a stale chain" `Quick
      test_home_fallback_repairs_stale_chain;
    Alcotest.test_case "wedged chain repaired by broadcast" `Quick
      test_wedged_chain_repaired_by_broadcast;
    Alcotest.test_case "truly dangling reference fails cleanly" `Quick
      test_truly_dangling_reference_fails_cleanly;
    Alcotest.test_case "bad fault configs rejected" `Quick
      test_validation_rejects_bad_faults;
  ]
