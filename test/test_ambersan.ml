(* AmberSan: the happens-before race detector, lock-order analysis,
   continuous coherence audit, and the offline trace lint. *)

module A = Amber
module San = Analysis.Ambersan

(* Run [body] on a fresh cluster with the sanitizer attached; returns the
   body's result and the finalized report. *)
let run_san ?(nodes = 4) ?(cpus = 2) body =
  let cfg = A.Config.make ~nodes ~cpus () in
  let san = ref None in
  let r =
    A.Cluster.run_value cfg (fun rt ->
        san := Some (San.attach rt);
        body rt)
  in
  (r, San.finalize (Option.get !san))

let check_clean what report =
  Alcotest.(check int)
    (what ^ ": no findings")
    0 (San.findings report)

(* --- the seeded fixtures ------------------------------------------------- *)

let test_racy_fixture_flagged () =
  let r, report =
    run_san ~nodes:2 (fun rt ->
        Workloads.Fixtures.racy_counter rt ~threads:4 ~increments:10)
  in
  Alcotest.(check bool) "race reported" true (List.length report.San.races > 0);
  Alcotest.(check bool)
    "race names the counter" true
    (List.exists (fun (x : San.race) -> x.San.name = "counter") report.San.races);
  Alcotest.(check bool) "failed verdict" true (San.failed report);
  (* The race is real: unsynchronized RMW loses updates. *)
  Alcotest.(check bool)
    "updates lost" true
    (r.Workloads.Fixtures.final < r.Workloads.Fixtures.expected)

let test_clean_fixture_silent () =
  let r, report =
    run_san ~nodes:2 (fun rt ->
        Workloads.Fixtures.clean_counter rt ~threads:4 ~increments:10)
  in
  check_clean "clean counter" report;
  Alcotest.(check int)
    "no updates lost" r.Workloads.Fixtures.expected r.Workloads.Fixtures.final

(* --- access modes -------------------------------------------------------- *)

let test_atomic_invocations_never_race () =
  (* The work-queue idiom: many threads hammer one shared object with
     default (Atomic) invocations and no locks.  Each invocation is a
     self-contained action serialized at the object — not a race. *)
  let (), report =
    run_san ~nodes:2 (fun rt ->
        let counter = A.Api.create rt ~name:"hits" (ref 0) in
        let ts =
          List.init 6 (fun i ->
              A.Api.start rt ~name:(string_of_int i) (fun () ->
                  for _ = 1 to 10 do
                    A.Api.invoke rt counter (fun c -> incr c);
                    Sim.Fiber.consume 50e-6
                  done))
        in
        List.iter (fun t -> A.Api.join rt t) ts;
        Alcotest.(check int) "atomic increments all land" 60
          (A.Api.invoke rt counter (fun c -> !c)))
  in
  check_clean "atomic invocations" report

let test_fork_join_orders_accesses () =
  (* Parent writes, child reads: Start edges order them; then Join edges
     order the child's writes before the parent's final read. *)
  let (), report =
    run_san (fun rt ->
        let cell = A.Api.create rt ~name:"cell" (ref 0) in
        A.Api.invoke rt ~mode:A.San_hooks.Write cell (fun c -> c := 1);
        let t =
          A.Api.start rt (fun () ->
              let v =
                A.Api.invoke rt ~mode:A.San_hooks.Read cell (fun c -> !c)
              in
              A.Api.invoke rt ~mode:A.San_hooks.Write cell (fun c -> c := v + 1))
        in
        A.Api.join rt t;
        Alcotest.(check int) "sequenced" 2
          (A.Api.invoke rt ~mode:A.San_hooks.Read cell (fun c -> !c)))
  in
  check_clean "fork/join" report

(* --- synchronization edges ----------------------------------------------- *)

let test_barrier_orders_phases () =
  (* Phase 1: each thread writes its own slot.  Barrier.  Phase 2: each
     thread reads every slot.  The generation edge makes all phase-1
     writes happen before all phase-2 reads. *)
  let (), report =
    run_san (fun rt ->
        let slots =
          Array.init 3 (fun i ->
              A.Api.create rt ~name:(Printf.sprintf "slot%d" i) (ref 0))
        in
        let b = A.Sync.Barrier.create rt ~parties:3 () in
        let ts =
          List.init 3 (fun i ->
              A.Api.start rt ~name:(string_of_int i) (fun () ->
                  A.Api.invoke rt ~mode:A.San_hooks.Write slots.(i) (fun c ->
                      c := i + 1);
                  A.Sync.Barrier.pass rt b;
                  let sum = ref 0 in
                  Array.iter
                    (fun s ->
                      sum :=
                        !sum
                        + A.Api.invoke rt ~mode:A.San_hooks.Read s (fun c -> !c))
                    slots;
                  Alcotest.(check int) "phase-1 writes visible" 6 !sum))
        in
        List.iter (fun t -> A.Api.join rt t) ts)
  in
  check_clean "barrier phases" report

let test_unordered_phases_race () =
  (* Same shape with the barrier removed: phase-2 reads race the other
     threads' phase-1 writes. *)
  let (), report =
    run_san (fun rt ->
        let slots =
          Array.init 3 (fun i ->
              A.Api.create rt ~name:(Printf.sprintf "slot%d" i) (ref 0))
        in
        let ts =
          List.init 3 (fun i ->
              A.Api.start rt ~name:(string_of_int i) (fun () ->
                  A.Api.invoke rt ~mode:A.San_hooks.Write slots.(i) (fun c ->
                      c := i + 1);
                  Sim.Fiber.consume (float_of_int i *. 100e-6);
                  Array.iter
                    (fun s ->
                      ignore
                        (A.Api.invoke rt ~mode:A.San_hooks.Read s (fun c -> !c)
                          : int))
                    slots))
        in
        List.iter (fun t -> A.Api.join rt t) ts)
  in
  Alcotest.(check bool) "missing barrier detected" true (San.failed report)

let test_barrier_generation_reuse_sanitized () =
  (* The same barrier object serves several generations; each generation's
     edges must order that round's writes without leaking into the next. *)
  let (), report =
    run_san (fun rt ->
        let cell = A.Api.create rt ~name:"round-robin" (ref 0) in
        let b = A.Sync.Barrier.create rt ~parties:3 () in
        let ts =
          List.init 3 (fun i ->
              A.Api.start rt ~name:(string_of_int i) (fun () ->
                  for round = 0 to 2 do
                    (* One designated writer per round, rotating. *)
                    if round mod 3 = i then
                      A.Api.invoke rt ~mode:A.San_hooks.Write cell (fun c ->
                          c := round);
                    A.Sync.Barrier.pass rt b;
                    ignore
                      (A.Api.invoke rt ~mode:A.San_hooks.Read cell (fun c -> !c)
                        : int);
                    A.Sync.Barrier.pass rt b
                  done))
        in
        List.iter (fun t -> A.Api.join rt t) ts;
        Alcotest.(check int) "three generations consumed" 6
          (A.Sync.Barrier.generation b))
  in
  check_clean "barrier reuse" report

let test_condition_broadcast_sanitized () =
  (* Producer writes, broadcasts; every waiter reads after wakeup.  The
     signal→wakeup edge (plus the lock edges) orders the write before
     the reads. *)
  let woken, report =
    run_san (fun rt ->
        let lock = A.Sync.Lock.create rt () in
        let cond = A.Sync.Condition.create rt () in
        let data = A.Api.create rt ~name:"payload" (ref 0) in
        let go = ref false in
        let count = ref 0 in
        let ts =
          List.init 4 (fun i ->
              A.Api.start rt ~name:(string_of_int i) (fun () ->
                  A.Sync.Lock.acquire rt lock;
                  while not !go do
                    A.Sync.Condition.wait rt cond lock
                  done;
                  let v =
                    A.Api.invoke rt ~mode:A.San_hooks.Read data (fun c -> !c)
                  in
                  Alcotest.(check int) "broadcast payload visible" 9 v;
                  incr count;
                  A.Sync.Lock.release rt lock))
        in
        Topaz.Kthread.sleep ~engine:(A.Runtime.engine rt) 20e-3;
        A.Sync.Lock.acquire rt lock;
        A.Api.invoke rt ~mode:A.San_hooks.Write data (fun c -> c := 9);
        go := true;
        A.Sync.Condition.broadcast rt cond;
        A.Sync.Lock.release rt lock;
        List.iter (fun t -> A.Api.join rt t) ts;
        !count)
  in
  Alcotest.(check int) "all woken" 4 woken;
  check_clean "condition broadcast" report

let test_monitor_broadcast_sanitized () =
  let woken, report =
    run_san (fun rt ->
        let m = A.Sync.Monitor.create rt () in
        let cond = A.Sync.Monitor.new_condition rt m in
        let go = ref false in
        let count = ref 0 in
        let ts =
          List.init 3 (fun i ->
              A.Api.start rt ~name:(string_of_int i) (fun () ->
                  A.Sync.Monitor.with_monitor rt m (fun () ->
                      while not !go do
                        A.Sync.Monitor.wait rt m cond
                      done;
                      incr count)))
        in
        Topaz.Kthread.sleep ~engine:(A.Runtime.engine rt) 10e-3;
        A.Sync.Monitor.with_monitor rt m (fun () ->
            go := true;
            A.Sync.Monitor.broadcast rt cond);
        List.iter (fun t -> A.Api.join rt t) ts;
        !count)
  in
  Alcotest.(check int) "all woken" 3 woken;
  check_clean "monitor broadcast" report

(* --- lock-order analysis ------------------------------------------------- *)

let test_lock_order_cycle_detected () =
  (* Take A then B, release, then B then A: both edges exist in the
     lock-order graph even though (run sequentially) no deadlock happens.
     The sanitizer reports the cycle as deadlock potential. *)
  let (), report =
    run_san (fun rt ->
        let a = A.Sync.Lock.create rt ~name:"lock-a" () in
        let b = A.Sync.Lock.create rt ~name:"lock-b" () in
        A.Sync.Lock.with_lock rt a (fun () ->
            A.Sync.Lock.with_lock rt b (fun () -> ()));
        A.Sync.Lock.with_lock rt b (fun () ->
            A.Sync.Lock.with_lock rt a (fun () -> ())))
  in
  Alcotest.(check int) "one cycle" 1 (List.length report.San.cycles);
  let c = List.hd report.San.cycles in
  Alcotest.(check bool) "cycle names both locks" true
    (List.mem "lock-a" c.San.names && List.mem "lock-b" c.San.names)

let test_consistent_lock_order_clean () =
  let (), report =
    run_san (fun rt ->
        let a = A.Sync.Lock.create rt ~name:"lock-a" () in
        let b = A.Sync.Lock.create rt ~name:"lock-b" () in
        let ts =
          List.init 3 (fun i ->
              A.Api.start rt ~name:(string_of_int i) (fun () ->
                  for _ = 1 to 3 do
                    A.Sync.Lock.with_lock rt a (fun () ->
                        A.Sync.Lock.with_lock rt b (fun () ->
                            Sim.Fiber.consume 100e-6))
                  done))
        in
        List.iter (fun t -> A.Api.join rt t) ts)
  in
  check_clean "consistent order" report

(* --- owner tracking (locks know their holder) ----------------------------- *)

let test_lock_release_by_other_thread_rejected () =
  Util.run (fun rt ->
      let lock = A.Sync.Lock.create rt () in
      A.Sync.Lock.acquire rt lock;
      let thief = A.Api.start rt (fun () -> A.Sync.Lock.release rt lock) in
      Alcotest.check_raises "wrong holder"
        (Invalid_argument "Lock.release: lock is held by another thread")
        (fun () -> A.Api.join rt thief);
      A.Sync.Lock.release rt lock)

let test_spinlock_release_by_other_thread_rejected () =
  Util.run (fun rt ->
      let lock = A.Sync.Spinlock.create rt () in
      A.Sync.Spinlock.acquire rt lock;
      let thief = A.Api.start rt (fun () -> A.Sync.Spinlock.release rt lock) in
      Alcotest.check_raises "wrong holder"
        (Invalid_argument "Spinlock.release: lock is held by another thread")
        (fun () -> A.Api.join rt thief);
      A.Sync.Spinlock.release rt lock)

let test_lock_holder_visible () =
  Util.run (fun rt ->
      let lock = A.Sync.Lock.create rt () in
      Alcotest.(check (option int)) "unheld" None (A.Sync.Lock.holder lock);
      A.Sync.Lock.acquire rt lock;
      Alcotest.(check bool) "holder recorded" true
        (A.Sync.Lock.holder lock <> None);
      A.Sync.Lock.release rt lock;
      Alcotest.(check (option int)) "cleared" None (A.Sync.Lock.holder lock))

(* --- workloads under the sanitizer ---------------------------------------- *)

let test_sor_sanitized_clean () =
  let _, report =
    run_san ~nodes:2 (fun rt ->
        let p =
          Workloads.Sor_core.with_size Workloads.Sor_core.default ~rows:16
            ~cols:32
        in
        Workloads.Sor_amber.run rt p ~iters:2 ())
  in
  check_clean "sor" report

let test_tsp_sanitized_clean () =
  let _, report =
    run_san ~nodes:2 (fun rt ->
        Workloads.Tsp.run rt
          {
            Workloads.Tsp.cities = 7;
            seed = 7;
            workers_per_node = 2;
            expand_cpu = 50e-6;
            centralize = false;
            skew = false;
          })
  in
  check_clean "tsp" report

let test_balanced_sor_sanitized_clean () =
  (* Skewed SOR with the full balancer on (hybrid + stealing): balancer
     moves, steals and gossip must introduce no races or coherence
     drift. *)
  let _, report =
    run_san (fun rt ->
        let p =
          Workloads.Sor_core.with_size Workloads.Sor_core.default ~rows:16
            ~cols:32
        in
        let c =
          {
            (Workloads.Sor_amber.default_cfg rt) with
            Workloads.Sor_amber.placement = Some (fun _ -> 0);
          }
        in
        let lb =
          Balance.Driver.start rt
            {
              Balance.Driver.default_cfg with
              Balance.Driver.policy = Balance.Rebalancer.Hybrid;
              steal = true;
            }
        in
        let r = Workloads.Sor_amber.run rt p ~cfg:c ~iters:4 () in
        Balance.Driver.stop lb;
        r)
  in
  check_clean "balanced sor" report

let test_work_queue_with_moves_sanitized_clean () =
  (* The queue migrates mid-run: exercises the continuous coherence audit
     at move quiescence plus migration edges. *)
  let r, report =
    run_san ~nodes:3 (fun rt ->
        Workloads.Work_queue.run rt
          {
            Workloads.Work_queue.items = 40;
            work_cpu = 5e-3;
            batch = 4;
            workers_per_node = 2;
            move_queue_at = Some 12;
          })
  in
  Alcotest.(check int) "all processed" 40 r.Workloads.Work_queue.processed;
  check_clean "work queue" report

let test_matmul_sanitized_clean () =
  let _, report =
    run_san ~nodes:2 (fun rt ->
        Workloads.Matmul.run rt
          {
            Workloads.Matmul.n = 24;
            block = 12;
            replicate = true;
            workers_per_node = 2;
            flop_cpu = 5e-6;
          })
  in
  check_clean "matmul" report

(* --- offline lint ---------------------------------------------------------- *)

let test_offline_lint_matches_online () =
  let cfg = A.Config.make ~nodes:2 ~cpus:2 () in
  let san = ref None in
  let marks = ref [] in
  let () =
    A.Cluster.run_value cfg (fun rt ->
        Sim.Span.set_marks (A.Runtime.spans rt) true;
        san := Some (San.attach rt);
        ignore
          (Workloads.Fixtures.racy_counter rt ~threads:3 ~increments:8
            : Workloads.Fixtures.result);
        marks := Sim.Span.marks (A.Runtime.spans rt))
  in
  let online = San.finalize (Option.get !san) in
  let offline = San.lint_trace !marks in
  Alcotest.(check bool) "online flags" true (List.length online.San.races > 0);
  Alcotest.(check int) "same races offline"
    (List.length online.San.races)
    (List.length offline.San.races);
  Alcotest.(check int) "same events" online.San.events offline.San.events

(* [trace --lint] records without analyzing; it must record exactly the
   stream an analyzed run records, sync-object accesses excluded. *)
let san_marks ~analyze =
  let cfg = A.Config.make ~nodes:2 ~cpus:2 () in
  A.Cluster.run_value cfg (fun rt ->
      Sim.Span.set_marks (A.Runtime.spans rt) true;
      ignore (San.attach ~analyze rt : San.t);
      ignore
        (Workloads.Fixtures.clean_counter rt ~threads:3 ~increments:4
          : Workloads.Fixtures.result);
      List.filter_map
        (fun (m : Sim.Span.mark) ->
          if String.equal m.category "san" then Some m.detail else None)
        (Sim.Span.marks (A.Runtime.spans rt)))

let test_record_only_matches_analyzed () =
  let analyzed = san_marks ~analyze:true in
  let recorded = san_marks ~analyze:false in
  Alcotest.(check int) "same mark count" (List.length analyzed)
    (List.length recorded);
  Alcotest.(check (list string)) "same marks" analyzed recorded

let test_event_codec_round_trip () =
  let module E = A.San_hooks.Event in
  let events =
    [
      E.Thread_start { parent = -1; child = 3 };
      E.Thread_join { parent = 3; child = 5 };
      E.Migrate { tid = 4; src = 0; dst = 2 };
      E.Object_created { addr = 0x48; name = "a name with spaces" };
      E.Object_destroyed { addr = 0x48 };
      E.Sync_created { addr = 0x40; kind = "lock" };
      E.Access { tid = 3; addr = 0x48; mode = A.San_hooks.Write };
      E.Access { tid = 3; addr = 0x48; mode = A.San_hooks.Atomic };
      E.Access_end { tid = 3; addr = 0x48 };
      E.Lock_acquired { tid = 3; addr = 0x40 };
      E.Lock_released { tid = 3; addr = 0x40 };
      E.Barrier { tid = 3; addr = 0x40; gen = 2; phase = E.Arrive };
      E.Barrier { tid = 3; addr = 0x40; gen = 2; phase = E.Release };
      E.Barrier { tid = 3; addr = 0x40; gen = 2; phase = E.Resume };
      E.Cond_signal { tid = 3; token = 7 };
      E.Cond_wake { tid = 4; token = 7 };
      E.Move_begin { addr = 0x48 };
      E.Move_end { addr = 0x48 };
      E.Access { tid = 3; addr = 0x48; mode = A.San_hooks.Read };
      E.Replica_read { tid = 3; addr = 0x48; node = 2; epoch = 5 };
      E.Steal { by = 9; tid = 2; victim = 0; thief = 1 };
      E.Steal { by = -1; tid = 2; victim = 0; thief = 1 };
      E.Future_resolve { tid = 6; id = 4 };
      E.Future_await { tid = 3; id = 4 };
    ]
  in
  List.iter
    (fun e ->
      let s = E.to_string e in
      Alcotest.(check bool) ("round trip: " ^ s) true (E.of_string s = Some e))
    events;
  Alcotest.(check bool) "junk rejected" true (E.of_string "garbage 1 2" = None)

let test_engine_on_synthetic_events () =
  (* Drive the analysis engine directly: two unordered writes race; the
     same two writes separated by a lock release→acquire edge do not. *)
  let module E = A.San_hooks.Event in
  let racy =
    San.lint_events
      [
        E.Object_created { addr = 8; name = "x" };
        E.Access { tid = 1; addr = 8; mode = A.San_hooks.Write };
        E.Access_end { tid = 1; addr = 8 };
        E.Access { tid = 2; addr = 8; mode = A.San_hooks.Write };
        E.Access_end { tid = 2; addr = 8 };
      ]
  in
  Alcotest.(check int) "unordered writes race" 1 (List.length racy.San.races);
  let ordered =
    San.lint_events
      [
        E.Object_created { addr = 8; name = "x" };
        E.Sync_created { addr = 16; kind = "lock" };
        E.Lock_acquired { tid = 1; addr = 16 };
        E.Access { tid = 1; addr = 8; mode = A.San_hooks.Write };
        E.Access_end { tid = 1; addr = 8 };
        E.Lock_released { tid = 1; addr = 16 };
        E.Lock_acquired { tid = 2; addr = 16 };
        E.Access { tid = 2; addr = 8; mode = A.San_hooks.Write };
        E.Access_end { tid = 2; addr = 8 };
        E.Lock_released { tid = 2; addr = 16 };
      ]
  in
  Alcotest.(check int) "lock edge orders writes" 0 (San.findings ordered)

let test_steal_edge_orders_accesses () =
  (* A steal is a synchronization point: the stealing agent dequeues the
     thread, so everything the agent has seen happens-before the stolen
     thread's next step.  Here agent 9 observes t1's write (via the lock
     edge) and then steals t2 — so t2's write is ordered after t1's.
     Dropping the Steal event severs that path and the writes race. *)
  let module E = A.San_hooks.Event in
  let prefix =
    [
      E.Object_created { addr = 8; name = "x" };
      E.Sync_created { addr = 16; kind = "lock" };
      E.Lock_acquired { tid = 1; addr = 16 };
      E.Access { tid = 1; addr = 8; mode = A.San_hooks.Write };
      E.Access_end { tid = 1; addr = 8 };
      E.Lock_released { tid = 1; addr = 16 };
      E.Lock_acquired { tid = 9; addr = 16 };
      E.Lock_released { tid = 9; addr = 16 };
    ]
  in
  let suffix =
    [
      E.Access { tid = 2; addr = 8; mode = A.San_hooks.Write };
      E.Access_end { tid = 2; addr = 8 };
    ]
  in
  let steal = [ E.Steal { by = 9; tid = 2; victim = 0; thief = 1 } ] in
  let with_edge = San.lint_events (prefix @ steal @ suffix) in
  Alcotest.(check int) "steal edge orders writes" 0 (San.findings with_edge);
  let without = San.lint_events (prefix @ suffix) in
  Alcotest.(check int) "no steal edge: writes race" 1
    (List.length without.San.races)

(* --- continuous coherence audit ------------------------------------------- *)

let test_sanitizer_reports_coherence_drift () =
  (* Sabotage the descriptor space behind the protocol's back; the final
     audit must surface it as a coherence finding. *)
  let (), report =
    run_san (fun rt ->
        let o = A.Api.create rt ~name:"drift" () in
        A.Api.move_to rt o ~dest:2;
        A.Descriptor.set_forwarded (A.Runtime.descriptors rt 1) o.A.Aobject.addr
          3;
        A.Descriptor.set_forwarded (A.Runtime.descriptors rt 3) o.A.Aobject.addr
          1)
  in
  Alcotest.(check bool) "violations reported" true
    (List.length report.San.violations > 0)

let test_failed_move_keeps_auditing () =
  (* A MoveTo that raises still closes its move bracket: otherwise the
     in-flight move count never returns to zero, and every later
     move-quiescence audit waits for [finalize]. *)
  let cfg =
    { (A.Config.make ~nodes:4 ~cpus:2 ()) with A.Config.rpc_reliable = true }
  in
  let online, final =
    A.Cluster.run_value cfg (fun rt ->
        let san = San.attach rt in
        let o = A.Api.create rt ~name:"o" () in
        let x = A.Api.create rt ~name:"x" () in
        A.Runtime.fail_stop rt ~node:2;
        (match A.Api.move_to rt o ~dest:2 with
        | () -> Alcotest.fail "a move to a dead node succeeded"
        | exception Topaz.Rpc.Node_dead _ -> ());
        A.Descriptor.set_resident (A.Runtime.descriptors rt 3) x.A.Aobject.addr;
        A.Api.move_to rt x ~dest:1;
        let online = San.report san in
        (online, San.finalize san))
  in
  Alcotest.(check bool) "audited at move quiescence" true
    (San.findings online > 0);
  Alcotest.(check int) "finalize adds nothing" (San.findings final)
    (San.findings online)

let test_report_section_in_stats () =
  let captured =
    Util.run (fun rt ->
        ignore (San.attach rt : San.t);
        A.Stats_report.capture rt)
  in
  Alcotest.(check bool) "sanitizer section present" true
    (List.mem_assoc "sanitizer" captured.A.Stats_report.extra)

let suite =
  [
    Alcotest.test_case "racy fixture flagged" `Quick test_racy_fixture_flagged;
    Alcotest.test_case "clean fixture silent" `Quick test_clean_fixture_silent;
    Alcotest.test_case "atomic invocations never race" `Quick
      test_atomic_invocations_never_race;
    Alcotest.test_case "fork/join orders accesses" `Quick
      test_fork_join_orders_accesses;
    Alcotest.test_case "barrier orders phases" `Quick test_barrier_orders_phases;
    Alcotest.test_case "missing barrier detected" `Quick
      test_unordered_phases_race;
    Alcotest.test_case "barrier generation reuse sanitized" `Quick
      test_barrier_generation_reuse_sanitized;
    Alcotest.test_case "condition broadcast sanitized" `Quick
      test_condition_broadcast_sanitized;
    Alcotest.test_case "monitor broadcast sanitized" `Quick
      test_monitor_broadcast_sanitized;
    Alcotest.test_case "lock-order cycle detected" `Quick
      test_lock_order_cycle_detected;
    Alcotest.test_case "consistent lock order clean" `Quick
      test_consistent_lock_order_clean;
    Alcotest.test_case "lock release by other thread rejected" `Quick
      test_lock_release_by_other_thread_rejected;
    Alcotest.test_case "spinlock release by other thread rejected" `Quick
      test_spinlock_release_by_other_thread_rejected;
    Alcotest.test_case "lock holder visible" `Quick test_lock_holder_visible;
    Alcotest.test_case "sor sanitized clean" `Quick test_sor_sanitized_clean;
    Alcotest.test_case "balanced sor sanitized clean" `Quick
      test_balanced_sor_sanitized_clean;
    Alcotest.test_case "tsp sanitized clean" `Quick test_tsp_sanitized_clean;
    Alcotest.test_case "work queue with moves sanitized clean" `Quick
      test_work_queue_with_moves_sanitized_clean;
    Alcotest.test_case "matmul sanitized clean" `Quick
      test_matmul_sanitized_clean;
    Alcotest.test_case "offline lint matches online" `Quick
      test_offline_lint_matches_online;
    Alcotest.test_case "record-only stream matches analyzed" `Quick
      test_record_only_matches_analyzed;
    Alcotest.test_case "event codec round trip" `Quick
      test_event_codec_round_trip;
    Alcotest.test_case "engine on synthetic events" `Quick
      test_engine_on_synthetic_events;
    Alcotest.test_case "steal edge orders accesses" `Quick
      test_steal_edge_orders_accesses;
    Alcotest.test_case "coherence drift reported" `Quick
      test_sanitizer_reports_coherence_drift;
    Alcotest.test_case "failed move keeps auditing" `Quick
      test_failed_move_keeps_auditing;
    Alcotest.test_case "sanitizer section in stats report" `Quick
      test_report_section_in_stats;
  ]
