(* Config construction/validation and cost-model scaling. *)

module A = Amber

let test_make () =
  let c = A.Config.make ~nodes:5 ~cpus:3 () in
  Alcotest.(check int) "nodes" 5 c.A.Config.nodes;
  Alcotest.(check int) "cpus" 3 c.A.Config.cpus_per_node;
  A.Config.validate c

let test_default_is_valid () = A.Config.validate A.Config.default

let check_invalid c =
  match A.Config.validate c with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_validation_rejects () =
  check_invalid { A.Config.default with A.Config.nodes = 0 };
  check_invalid { A.Config.default with A.Config.cpus_per_node = -1 };
  check_invalid { A.Config.default with A.Config.ether_bandwidth_bps = -5.0 };
  check_invalid { A.Config.default with A.Config.rpc_servers_per_node = 0 };
  check_invalid { A.Config.default with A.Config.initial_regions_per_node = 0 };
  check_invalid { A.Config.default with A.Config.vm_page_size = 10 }

let test_cost_scale () =
  let c = A.Cost_model.default in
  let fast = A.Cost_model.scale_cpu c 0.5 in
  Alcotest.(check (float 1e-12)) "entry halved"
    (c.A.Cost_model.invoke_entry_cpu /. 2.0)
    fast.A.Cost_model.invoke_entry_cpu;
  Alcotest.(check (float 1e-12)) "move halved"
    (c.A.Cost_model.move_fixed_cpu /. 2.0)
    fast.A.Cost_model.move_fixed_cpu;
  (* Network-side constants are untouched: scaling models faster CPUs on
     the same wire (the §5 trend discussion). *)
  Alcotest.(check int) "bytes unchanged" c.A.Cost_model.thread_state_bytes
    fast.A.Cost_model.thread_state_bytes

let test_cost_scale_rejects () =
  Alcotest.check_raises "zero factor"
    (Invalid_argument "Cost_model.scale_cpu: factor") (fun () ->
      ignore (A.Cost_model.scale_cpu A.Cost_model.default 0.0))

let test_faster_cpus_speed_up_remote_ops () =
  (* §5: "as processors get faster the CPU overhead ... becomes less
     significant, and performance is dominated by network latency". *)
  let remote_with cost =
    let cfg = A.Config.make ~nodes:2 ~cpus:2 ~cost () in
    A.Cluster.run_value cfg (fun rt ->
        let o = A.Api.create rt ~name:"o" () in
        A.Api.move_to rt o ~dest:1;
        let home = A.Api.create rt ~name:"home" () in
        A.Api.invoke rt home (fun () ->
            let t0 = A.Api.now rt in
            A.Api.invoke rt o (fun () -> ());
            A.Api.now rt -. t0))
  in
  let normal = remote_with A.Cost_model.default in
  let fast = remote_with (A.Cost_model.scale_cpu A.Cost_model.default 0.1) in
  Alcotest.(check bool) "10x CPU cuts remote invoke a lot" true
    (fast < normal /. 2.0);
  (* But not to zero: wire time remains. *)
  Alcotest.(check bool) "network latency floor remains" true (fast > 1e-3)

let test_determinism_across_runs () =
  let run () =
    let cfg = A.Config.make ~nodes:4 ~cpus:2 () in
    A.Cluster.run cfg (fun rt ->
        let r =
          Workloads.Work_queue.run rt
            { Workloads.Work_queue.default_cfg with Workloads.Work_queue.items = 40 }
        in
        r.Workloads.Work_queue.elapsed)
  in
  let e1, rep1 = run () in
  let e2, rep2 = run () in
  Alcotest.(check (float 0.0)) "bit-identical elapsed" e1 e2;
  let get r = A.Stats_report.get r.A.Cluster.stats in
  Alcotest.(check (float 0.0)) "identical event counts"
    (get rep1 "sim.engine.events") (get rep2 "sim.engine.events");
  Alcotest.(check (float 0.0)) "identical packet counts"
    (get rep1 "hw.ethernet.packets") (get rep2 "hw.ethernet.packets")

let suite =
  [
    Alcotest.test_case "make" `Quick test_make;
    Alcotest.test_case "default valid" `Quick test_default_is_valid;
    Alcotest.test_case "validation rejects bad configs" `Quick
      test_validation_rejects;
    Alcotest.test_case "cost scaling" `Quick test_cost_scale;
    Alcotest.test_case "cost scaling rejects bad factor" `Quick
      test_cost_scale_rejects;
    Alcotest.test_case "faster CPUs, same wire (§5)" `Quick
      test_faster_cpus_speed_up_remote_ops;
    Alcotest.test_case "whole-run determinism" `Quick
      test_determinism_across_runs;
  ]
