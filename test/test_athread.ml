(* Amber threads: Start/Join semantics, costs, failure propagation,
   parallelism helpers, priorities. *)

module A = Amber

let test_start_join_result () =
  let v =
    Util.run (fun rt ->
        let t = A.Api.start rt (fun () -> 6 * 7) in
        A.Api.join rt t)
  in
  Alcotest.(check int) "result" 42 v

let test_start_join_cost_table1 () =
  let per_pair =
    Util.run (fun rt ->
        let t0 = A.Api.now rt in
        for _ = 1 to 10 do
          let t = A.Api.start rt (fun () -> ()) in
          A.Api.join rt t
        done;
        (A.Api.now rt -. t0) /. 10.0)
  in
  Alcotest.(check bool) "approx 1.33 ms" true
    (per_pair > 1.1e-3 && per_pair < 1.6e-3)

let test_join_after_completion () =
  let v =
    Util.run (fun rt ->
        let t = A.Api.start rt (fun () -> "done") in
        Topaz.Kthread.sleep ~engine:(A.Runtime.engine rt) 50e-3;
        A.Api.join rt t)
  in
  Alcotest.(check string) "late join" "done" v

let test_join_propagates_failure () =
  Util.run (fun rt ->
      let t = A.Api.start rt (fun () -> failwith "worker died") in
      Alcotest.check_raises "propagated" (Failure "worker died") (fun () ->
          A.Api.join rt t))

let test_threads_run_concurrently () =
  let elapsed =
    Util.run ~nodes:1 ~cpus:4 (fun rt ->
        let t0 = A.Api.now rt in
        let ts =
          List.init 4 (fun _ -> A.Api.start rt (fun () -> Sim.Fiber.consume 0.1))
        in
        List.iter (fun t -> A.Api.join rt t) ts;
        A.Api.now rt -. t0)
  in
  (* 4x 100 ms on 4 CPUs: wall stays near 100 ms, not 400. *)
  Alcotest.(check bool) "parallel" true (elapsed < 0.15)

let test_more_threads_than_cpus () =
  let elapsed =
    Util.run ~nodes:1 ~cpus:2 (fun rt ->
        let t0 = A.Api.now rt in
        let ts =
          List.init 6 (fun _ -> A.Api.start rt (fun () -> Sim.Fiber.consume 0.1))
        in
        List.iter (fun t -> A.Api.join rt t) ts;
        A.Api.now rt -. t0)
  in
  Alcotest.(check bool) "6x0.1s on 2 cpus ~ 0.3s" true
    (elapsed >= 0.3 && elapsed < 0.35)

let test_start_invoke_runs_at_object () =
  let node =
    Util.run (fun rt ->
        let o = A.Api.create rt ~name:"o" () in
        A.Api.move_to rt o ~dest:2;
        let t = A.Api.start_invoke rt o (fun () -> A.Api.my_node rt) in
        A.Api.join rt t)
  in
  Alcotest.(check int) "ran at object" 2 node

let test_parallel_helper () =
  let vs =
    Util.run (fun rt -> A.Api.parallel rt (List.init 5 (fun i () -> i * i)))
  in
  Alcotest.(check (list int)) "ordered results" [ 0; 1; 4; 9; 16 ] vs

let test_migration_counter () =
  let migrations =
    Util.run (fun rt ->
        let o = A.Api.create rt ~name:"o" () in
        A.Api.move_to rt o ~dest:1;
        let t =
          A.Athread.start rt (fun () -> A.Api.invoke rt o (fun () -> ()))
        in
        ignore (A.Athread.join rt t : unit);
        A.Athread.migrations t)
  in
  Alcotest.(check int) "one flight (stays at object)" 1 migrations

let test_join_of_travelled_thread_costs_more () =
  (* §3.4: thread migration is optimized for the thread's own invocations
     "at the expense of invocations made on the thread object itself
     (e.g., a Join)" — the thread object leaves a forwarding chain that
     Join must chase. *)
  let local_join, travelled_join =
    Util.run ~nodes:4 (fun rt ->
        let timed f =
          let t0 = A.Api.now rt in
          f ();
          A.Api.now rt -. t0
        in
        let stay = A.Api.start rt (fun () -> Sim.Fiber.consume 1e-3) in
        Topaz.Kthread.sleep ~engine:(A.Runtime.engine rt) 20e-3;
        let local_join = timed (fun () -> A.Api.join rt stay) in
        let far = A.Api.create rt ~name:"far" () in
        A.Api.move_to rt far ~dest:3;
        let traveller =
          A.Api.start_invoke rt far (fun () -> Sim.Fiber.consume 1e-3)
        in
        Topaz.Kthread.sleep ~engine:(A.Runtime.engine rt) 30e-3;
        let travelled_join = timed (fun () -> A.Api.join rt traveller) in
        (local_join, travelled_join))
  in
  Alcotest.(check bool) "remote join pays the chase" true
    (travelled_join > (2.0 *. local_join) +. 1e-3)

let test_thread_object_descriptor_tracks_thread () =
  Util.run ~nodes:3 (fun rt ->
      let far = A.Api.create rt ~name:"far" () in
      A.Api.move_to rt far ~dest:2;
      let t =
        A.Api.start_invoke rt far (fun () ->
            Sim.Fiber.consume 5e-3;
            A.Api.my_node rt)
      in
      let taddr = (A.Athread.tstate t).A.Runtime.taddr in
      ignore (A.Api.join rt t : int);
      (* The thread object's descriptors form a chain from its creation
         node to where it ended. *)
      Alcotest.(check bool) "resident where it finished" true
        (A.Descriptor.is_resident (A.Runtime.descriptors rt 2) taddr);
      match A.Descriptor.get (A.Runtime.descriptors rt 0) taddr with
      | Some (A.Descriptor.Forwarded _) -> ()
      | _ -> Alcotest.fail "creation node should hold a forwarding address")

let test_priority_scheduling () =
  (* On a 1-CPU node with a priority scheduler, the high-priority thread
     runs before the low-priority one. *)
  let order =
    Util.run ~nodes:1 ~cpus:1 (fun rt ->
        A.Scheduler.install rt ~node:0 A.Scheduler.Priority;
        let log = ref [] in
        let wakers = ref [] in
        let mk name =
          A.Athread.start rt ~name (fun () ->
              (* Park until the test releases both at once. *)
              Sim.Fiber.block (fun w -> wakers := w :: !wakers);
              log := name :: !log)
        in
        let low = mk "low" in
        let high = mk "high" in
        A.Athread.set_priority low 1;
        A.Athread.set_priority high 5;
        (* Let both threads reach their block. *)
        Topaz.Kthread.sleep ~engine:(A.Runtime.engine rt) 50e-3;
        (* Release both while the main thread still holds the only CPU:
           they re-enter the ready queue with their priorities set. *)
        List.iter (fun w -> w ()) !wakers;
        ignore (A.Athread.join rt high : unit);
        ignore (A.Athread.join rt low : unit);
        List.rev !log)
  in
  Alcotest.(check (list string)) "high first" [ "high"; "low" ] order

let test_scheduler_name () =
  Util.run (fun rt ->
      Alcotest.(check string) "default" "fifo"
        (A.Scheduler.current rt ~node:0);
      A.Scheduler.install rt ~node:0 A.Scheduler.Lifo;
      Alcotest.(check string) "replaced" "lifo"
        (A.Scheduler.current rt ~node:0))

(* A thread segment whose allocation grows the heap by an address-space
   RPC must not leave the child running unregistered: its first
   [Runtime.current] used to fail.  Start threads on node 1 until its
   heap has taken one grant beyond the initial regions. *)
let test_start_on_through_heap_growth () =
  let started, regions =
    Util.run (fun rt ->
        let anchor = A.Api.create rt ~name:"anchor" () in
        A.Api.move_to rt anchor ~dest:1;
        let heap = A.Runtime.heap rt 1 in
        let initial =
          (A.Runtime.config rt).A.Config.initial_regions_per_node
        in
        A.Api.invoke rt anchor (fun () ->
            let started = ref 0 in
            while
              List.length (Vaspace.Heap.regions heap) <= initial
              && !started < 5000
            do
              let t =
                A.Api.start rt (fun () ->
                    ignore (A.Runtime.current rt : A.Runtime.tstate))
              in
              A.Api.join rt t;
              incr started
            done;
            (!started, List.length (Vaspace.Heap.regions heap) - initial)))
  in
  Alcotest.(check int) "one grant beyond the initial regions" 1 regions;
  Alcotest.(check bool) "took hundreds of threads" true (started > 100)

let suite =
  [
    Alcotest.test_case "start/join result" `Quick test_start_join_result;
    Alcotest.test_case "start/join cost (Table 1)" `Quick
      test_start_join_cost_table1;
    Alcotest.test_case "join after completion" `Quick test_join_after_completion;
    Alcotest.test_case "join propagates failure" `Quick
      test_join_propagates_failure;
    Alcotest.test_case "threads run concurrently" `Quick
      test_threads_run_concurrently;
    Alcotest.test_case "more threads than CPUs" `Quick
      test_more_threads_than_cpus;
    Alcotest.test_case "start_invoke runs at the object" `Quick
      test_start_invoke_runs_at_object;
    Alcotest.test_case "parallel helper" `Quick test_parallel_helper;
    Alcotest.test_case "migration counter" `Quick test_migration_counter;
    Alcotest.test_case "join of travelled thread costs more (§3.4)" `Quick
      test_join_of_travelled_thread_costs_more;
    Alcotest.test_case "thread object descriptors track it" `Quick
      test_thread_object_descriptor_tracks_thread;
    Alcotest.test_case "priority scheduler replacement" `Quick
      test_priority_scheduling;
    Alcotest.test_case "scheduler introspection" `Quick test_scheduler_name;
    Alcotest.test_case "start_on through heap growth" `Quick
      test_start_on_through_heap_growth;
  ]
