(* Runtime kernel plumbing: object creation, address-space integration,
   probes, the thread registry, failure reporting. *)

module A = Amber

let test_create_object_placement () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~size:100 ~name:"o" () in
      Alcotest.(check int) "on creating node" 0 (Util.location o);
      Alcotest.(check int) "home" 0 o.A.Aobject.home;
      Alcotest.(check bool) "heap address" true
        (Vaspace.Layout.is_heap_addr o.A.Aobject.addr);
      Alcotest.(check bool) "descriptor resident" true
        (A.Descriptor.is_resident (A.Runtime.descriptors rt 0) o.A.Aobject.addr))

let test_create_on_remote_node () =
  (* An object created by a thread running on node 2 lives on node 2 and
     its address comes from node 2's regions. *)
  Util.run (fun rt ->
      let anchor = A.Api.create rt ~name:"anchor" () in
      A.Api.move_to rt anchor ~dest:2;
      let t =
        A.Api.start_invoke rt anchor (fun () ->
            A.Api.create rt ~name:"remote-obj" ())
      in
      let o = A.Api.join rt t in
      Alcotest.(check int) "created on node 2" 2 (Util.location o);
      Alcotest.(check int) "home derivable from address" 2
        (A.Runtime.home_node rt ~addr:o.A.Aobject.addr))

let test_object_addresses_distinct () =
  Util.run (fun rt ->
      let objs = List.init 50 (fun i ->
          A.Api.create rt ~name:(string_of_int i) ())
      in
      let addrs = List.map (fun o -> o.A.Aobject.addr) objs in
      Alcotest.(check int) "all distinct" 50
        (List.length (List.sort_uniq compare addrs)))

let test_create_cost_scales_with_size () =
  Util.run (fun rt ->
      let t0 = A.Api.now rt in
      ignore (A.Api.create rt ~size:64 ~name:"small" ());
      let small = A.Api.now rt -. t0 in
      let t1 = A.Api.now rt in
      ignore (A.Api.create rt ~size:100000 ~name:"big" ());
      let big = A.Api.now rt -. t1 in
      Alcotest.(check bool) "bigger costs more" true (big > 2.0 *. small))

let test_probe_states () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"o" () in
      let addr = o.A.Aobject.addr in
      (match A.Runtime.probe rt ~node:0 ~addr with
      | `Resident -> ()
      | `Hop _ | `Replica _ -> Alcotest.fail "should be resident at home");
      (* Uninitialized elsewhere: falls back to the home node. *)
      (match A.Runtime.probe rt ~node:3 ~addr with
      | `Hop 0 -> ()
      | `Hop _ | `Resident | `Replica _ ->
        Alcotest.fail "uninit should point home");
      A.Api.move_to rt o ~dest:1;
      match A.Runtime.probe rt ~node:0 ~addr with
      | `Hop 1 -> ()
      | `Hop _ | `Resident | `Replica _ ->
        Alcotest.fail "source should forward")

let test_heap_growth_via_server () =
  (* Exhaust node 0's initial pool with large objects; the heap must grow
     through the address-space server without error. *)
  Util.run (fun rt ->
      let initial =
        (A.Runtime.config rt).A.Config.initial_regions_per_node
      in
      let objs =
        List.init ((initial * 2) + 1) (fun i ->
            A.Api.create rt ~size:(900 * 1024) ~name:(string_of_int i) ())
      in
      Alcotest.(check bool) "heap grew" true
        (Vaspace.Heap.grow_count (A.Runtime.heap rt 0) > initial);
      (* All home nodes still resolve to 0. *)
      List.iter
        (fun o ->
          Alcotest.(check int) "home" 0
            (A.Runtime.home_node rt ~addr:o.A.Aobject.addr))
        objs)

let test_counters_accumulate () =
  let c =
    Util.run (fun rt ->
        let o = A.Api.create rt ~name:"o" () in
        A.Api.move_to rt o ~dest:1;
        ignore (A.Api.locate rt o : int);
        A.Api.invoke rt o (fun () -> ());
        A.Runtime.counters rt)
  in
  Alcotest.(check int) "creates (incl. main bookkeeping)" 1
    c.A.Runtime.objects_created;
  Alcotest.(check int) "moves" 1 c.A.Runtime.object_moves;
  Alcotest.(check int) "locates" 1 c.A.Runtime.locates;
  Alcotest.(check bool) "migrations happened" true
    (c.A.Runtime.thread_migrations >= 1)

let test_cluster_failure_propagates () =
  let cfg = A.Config.make ~nodes:2 ~cpus:1 () in
  Alcotest.check_raises "failure surfaces" (Failure "main exploded") (fun () ->
      ignore (A.Cluster.run_value cfg (fun _rt -> failwith "main exploded")))

let test_cluster_deadlock_detected () =
  let cfg = A.Config.make ~nodes:1 ~cpus:1 () in
  Alcotest.check_raises "deadlock"
    (A.Cluster.Deadlock
       { unfinished = 1; threads = [ "#9:main[blocked on node0]" ] })
    (fun () ->
      ignore
        (A.Cluster.run_value cfg (fun _rt ->
             Sim.Fiber.block (fun _never_woken -> ()))))

(* The exception names at most ten unfinished threads, in tid order, with
   the object each is blocked inside, and counts the rest. *)
let test_cluster_deadlock_names_threads () =
  let cfg = A.Config.make ~nodes:2 ~cpus:1 () in
  let main = ref 0 in
  match
    A.Cluster.run_value cfg (fun rt ->
        main := Hw.Machine.tcb_id (A.Runtime.current rt).A.Runtime.tcb;
        let gate = A.Api.create rt ~name:"gate" () in
        A.Api.move_to rt gate ~dest:1;
        for i = 1 to 12 do
          ignore
            (A.Athread.start rt ~name:(Printf.sprintf "w%d" i) (fun () ->
                 A.Api.invoke rt gate (fun () ->
                     Sim.Fiber.block (fun _never_woken -> ())))
              : unit A.Athread.t)
        done;
        Sim.Fiber.block (fun _never_woken -> ()))
  with
  | () -> Alcotest.fail "no deadlock"
  | exception A.Cluster.Deadlock { unfinished; threads } ->
    Alcotest.(check int) "unfinished" 13 unfinished;
    Alcotest.(check (list string))
      "first ten"
      (Printf.sprintf "#%d:main[blocked on node0]" !main
      :: List.init 9 (fun i ->
             Printf.sprintf "#%d:w%d[blocked on node1] in gate"
               (!main + i + 1) (i + 1)))
      threads;
    Alcotest.(check bool) "printed with the count of the rest" true
      (String.ends_with ~suffix:"; and 3 more)"
         (Printexc.to_string
            (A.Cluster.Deadlock { unfinished; threads })))

let test_cluster_report () =
  let _, report =
    Util.run_report ~nodes:2 ~cpus:2 (fun rt ->
        let o = A.Api.create rt ~name:"o" () in
        A.Api.move_to rt o ~dest:1;
        A.Api.invoke rt o (fun () -> Sim.Fiber.consume 10e-3))
  in
  let stats = report.A.Cluster.stats in
  Alcotest.(check bool) "elapsed positive" true (report.A.Cluster.elapsed > 0.0);
  Alcotest.(check bool) "events counted" true
    (A.Stats_report.get stats "sim.engine.events" > 0.0);
  Alcotest.(check int) "two nodes of cpu stats" 2
    (Array.length
       (List.assoc "hw.machine.busy_s" stats.A.Stats_report.values));
  Alcotest.(check bool) "network used" true
    (A.Stats_report.get stats "hw.ethernet.packets" > 0.0)

let test_worker_failure_detected_after_run () =
  let cfg = A.Config.make ~nodes:1 ~cpus:2 () in
  Alcotest.check_raises "worker failure surfaces" (Failure "worker boom")
    (fun () ->
      ignore
        (A.Cluster.run_value cfg (fun rt ->
             (* Fire-and-forget thread that dies after main finishes. *)
             ignore
               (A.Api.start rt (fun () ->
                    Sim.Fiber.consume 50e-3;
                    failwith "worker boom")))))

(* A cluster holds nothing big before its first event: no block of
   [Runtime.create] is too large for the minor heap.  The first create
   builds the shared bucket-edge table, so the second is the one
   measured.  The runtime adds major-heap words to [major_words] only at
   a major slice, so a full major at each end settles the count; after a
   minor collection alone, words left by earlier tests can land inside
   the window. *)
let test_create_off_major_heap () =
  let fx = Option.get (Analysis.Modelcheck.find_fixture "replica") in
  let cfg = fx.Analysis.Modelcheck.cfg in
  ignore (Sys.opaque_identity (A.Runtime.create cfg));
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let rt = A.Runtime.create cfg in
  Gc.full_major ();
  let s1 = Gc.quick_stat () in
  ignore (Sys.opaque_identity rt);
  let direct =
    s1.Gc.major_words -. s0.Gc.major_words
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)
  in
  Alcotest.(check (float 0.0)) "words allocated straight on the major heap" 0.0
    direct

let suite =
  [
    Alcotest.test_case "object creation and placement" `Quick
      test_create_object_placement;
    Alcotest.test_case "creation on a remote node" `Quick
      test_create_on_remote_node;
    Alcotest.test_case "addresses distinct" `Quick test_object_addresses_distinct;
    Alcotest.test_case "creation cost scales with size" `Quick
      test_create_cost_scales_with_size;
    Alcotest.test_case "descriptor probes" `Quick test_probe_states;
    Alcotest.test_case "heap growth via the space server" `Quick
      test_heap_growth_via_server;
    Alcotest.test_case "counters accumulate" `Quick test_counters_accumulate;
    Alcotest.test_case "main failure propagates" `Quick
      test_cluster_failure_propagates;
    Alcotest.test_case "deadlock detected" `Quick test_cluster_deadlock_detected;
    Alcotest.test_case "deadlock names the unfinished threads" `Quick
      test_cluster_deadlock_names_threads;
    Alcotest.test_case "run report populated" `Quick test_cluster_report;
    Alcotest.test_case "worker failure detected" `Quick
      test_worker_failure_detected_after_run;
    Alcotest.test_case "create allocates nothing on the major heap" `Quick
      test_create_off_major_heap;
  ]
