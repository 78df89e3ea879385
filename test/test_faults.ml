(* Fault injection: workloads survive a lossy network with unchanged
   results (exactly-once semantics), the fault pattern and the recovery
   counters are a pure function of the seed, and a stale forwarding chain
   fails typed instead of looping. *)

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

(* --- stale forwarding chains ---------------------------------------------- *)

(* The nodes a chase walks from [from] around a cycle of stale
   descriptors ([links], node -> next) that never reaches the object,
   which lives on node 3 of 4.  The walk passes the hop budget and fails
   typed, naming the object; nothing repairs the chain. *)
let walk_stale_cycle ~links ~from =
  A.Cluster.run_value (A.Config.make ~nodes:4 ~cpus:2 ()) (fun rt ->
      let o = A.Api.create rt ~name:"wanderer" (ref 0) in
      A.Api.move_to rt o ~dest:3;
      List.iter
        (fun (n, next) ->
          A.Descriptor.set_forwarded (A.Runtime.descriptors rt n)
            o.A.Aobject.addr next)
        links;
      let t =
        A.Athread.start_on rt ~node:from ~name:"locator" (fun () ->
            A.Api.locate rt o)
      in
      match A.Athread.join rt t with
      | where -> Alcotest.failf "the stale cycle resolved to node %d" where
      | exception A.Aobject.Chain_exhausted { addr; trail } ->
        Alcotest.(check int) "names the object" o.A.Aobject.addr addr;
        trail)

let check_stale_cycle_exhausts ~links ~from =
  let trail = walk_stale_cycle ~links ~from in
  let rec around = function
    | a :: (b :: _ as rest) -> List.assoc a links = b && around rest
    | _ -> true
  in
  Alcotest.(check int) "starts where the chase did" from (List.hd trail);
  Alcotest.(check bool) "passes the budget" true (List.length trail > 64);
  Alcotest.(check bool) "runs around the cycle" true (around trail)

let test_cycle_avoiding_home_exhausts () =
  (* Node 0 is the home node: its hint names node 3, but the cycle never
     bounces there. *)
  check_stale_cycle_exhausts ~links:[ (1, 2); (2, 1) ] ~from:1

let test_cycle_through_home_exhausts () =
  (* The home node itself sits on the cycle, so no bounce can help. *)
  check_stale_cycle_exhausts ~links:[ (0, 1); (1, 2); (2, 0) ] ~from:0

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
    Alcotest.test_case "cycle avoiding home exhausts" `Quick
      test_cycle_avoiding_home_exhausts;
    Alcotest.test_case "cycle through home exhausts" `Quick
      test_cycle_through_home_exhausts;
    Alcotest.test_case "truly dangling reference fails cleanly" `Quick
      test_truly_dangling_reference_fails_cleanly;
    Alcotest.test_case "bad fault configs rejected" `Quick
      test_validation_rejects_bad_faults;
  ]
