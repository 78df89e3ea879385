(* Amber-Phoenix crash-recovery battery.

   Fail-stop a node and check the promises the injector makes: blocked
   protocols surface typed failures ([Node_dead], [Object_lost]) in
   bounded virtual time instead of hanging; objects whose master died
   are re-mastered from the highest-epoch surviving replica; forwarding
   chains routed through the corpse are repaired; and transient outages
   ride out with unchanged results.  A pinned-seed QCheck storm replays
   randomized crash programs against a sequential oracle, plain,
   sanitized and with packet faults stacked on top. *)

module A = Amber
module W = Workloads

let kind = Hw.Packet.Kind.v

let no_faults =
  {
    Hw.Ethernet.drop_prob = 0.0;
    dup_prob = 0.0;
    delay_prob = 0.0;
    delay_spike = 0.0;
    stalls = [];
  }

(* Manual [Runtime.fail_stop] from a test body needs the failure
   detector armed even though [cfg.crashes] is empty — without
   [rpc_reliable] the runtime picks the plain transport, which has no
   retransmit timers and therefore no peer-death detection (and
   [fail_stop] refuses it).  A short rto and small budget keep detection
   latency tiny in virtual time. *)
let crashy_cfg ?(nodes = 4) ?(cpus = 2) ?(seed = 7) ?(faults = no_faults) () =
  {
    (A.Config.make ~nodes ~cpus ~seed:(Int64.of_int seed) ~faults ()) with
    A.Config.rpc_reliable = true;
    rpc_rto = 1e-3;
    rpc_max_retransmits = 6;
  }

let copy r = ref !r

(* Run [f] from a joined thread anchored on [node]. *)
let on rt anchors node f = A.Api.join rt (A.Api.start_invoke rt anchors.(node) f)

let make_anchors rt ~nodes =
  Array.init nodes (fun node ->
      let a = A.Api.create rt ~name:(Printf.sprintf "anchor%d" node) () in
      if node <> 0 then A.Api.move_to rt a ~dest:node;
      a)

(* --- typed failures ------------------------------------------------------ *)

let test_call_dead_node_typed () =
  A.Cluster.run_value (crashy_cfg ()) (fun rt ->
      A.Runtime.fail_stop rt ~node:1;
      Alcotest.(check bool) "node marked down" false (A.Runtime.node_is_up rt 1);
      let died =
        try
          Topaz.Rpc.call (A.Runtime.rpc rt) ~dst:1 ~kind:(kind "probe")
            ~req_size:64 ~work:(fun () -> (8, ()));
          None
        with Topaz.Rpc.Node_dead { node } -> Some node
      in
      Alcotest.(check (option int)) "call fails with Node_dead" (Some 1) died;
      (* Retransmit budget 6 with 1 ms rto: even with full exponential
         backoff the detector must have given up well under a second. *)
      Alcotest.(check bool) "declared dead in bounded virtual time" true
        (A.Api.now rt < 0.5);
      let r = A.Stats_report.capture rt in
      Alcotest.(check bool) "dead-dropped packets counted" true
        (A.Stats_report.get r "hw.ethernet.dead_dropped" > 0.0);
      Alcotest.(check bool) "peer death counted" true
        (A.Stats_report.get r "topaz.rpc.peer_deaths" > 0.0))

(* The PR-1 liveness hole: a peer that never answers — not crashed, just
   stalled beyond every backoff — used to pin the caller in retransmit
   forever.  The retransmit cap must declare it dead instead. *)
let test_retransmit_cap_vs_stalled_forever () =
  let faults =
    {
      no_faults with
      Hw.Ethernet.stalls =
        [ { Hw.Ethernet.node = 2; from_t = 0.0; until_t = 10.0 } ];
    }
  in
  A.Cluster.run_value (crashy_cfg ~faults ()) (fun rt ->
      let died =
        try
          Topaz.Rpc.call (A.Runtime.rpc rt) ~dst:2 ~kind:(kind "probe")
            ~req_size:64 ~work:(fun () -> (8, ()));
          None
        with Topaz.Rpc.Node_dead { node } -> Some node
      in
      Alcotest.(check (option int)) "stalled peer declared dead" (Some 2) died;
      Alcotest.(check bool) "gave up long before the stall lifted" true
        (A.Api.now rt < 1.0);
      let rel = Topaz.Rpc.reliability (A.Runtime.rpc rt) in
      Alcotest.(check bool) "budget actually exhausted" true
        (Sim.Stats.Counter.value rel.Topaz.Rpc.retransmits >= 6))

let test_object_lost_typed () =
  A.Cluster.run_value (crashy_cfg ()) (fun rt ->
      let obj = A.Api.create rt ~name:"orphan" (ref 5) in
      A.Api.move_to rt obj ~dest:2;
      A.Runtime.fail_stop rt ~node:2;
      let lost =
        try
          ignore (A.Api.invoke rt obj (fun r -> !r) : int);
          false
        with A.Aobject.Object_lost _ -> true
      in
      Alcotest.(check bool) "unreplicated object lost crisply" true lost;
      Alcotest.(check int) "counted as lost" 1
        (A.Runtime.counters rt).A.Runtime.objects_lost;
      Alcotest.(check bool) "registered in the lost table" true
        (A.Runtime.lost_object_count rt >= 1))

let test_join_killed_thread_typed () =
  A.Cluster.run_value (crashy_cfg ()) (fun rt ->
      let victim =
        A.Athread.start_on rt ~node:3 ~name:"doomed" (fun () ->
            Sim.Fiber.consume 10.0)
      in
      (* Let it start running on node 3 before the crash cuts it down. *)
      Sim.Fiber.consume 1e-3;
      A.Runtime.fail_stop rt ~node:3;
      let died =
        try
          A.Api.join rt victim;
          None
        with Topaz.Rpc.Node_dead { node } -> Some node
      in
      Alcotest.(check (option int)) "join surfaces the crash" (Some 3) died;
      Alcotest.(check bool) "join returned promptly" true (A.Api.now rt < 0.5))

let test_future_await_typed () =
  (* The async helper is mid-invocation on the victim when the crash
     fires: await must re-raise the typed failure, not hang. *)
  A.Cluster.run_value (crashy_cfg ~nodes:3 ()) (fun rt ->
      let obj = A.Api.create rt ~name:"target" (ref 1) in
      A.Api.move_to rt obj ~dest:1;
      let fut =
        A.Api.invoke_async rt obj (fun r ->
            Sim.Fiber.consume 50e-3;
            !r)
      in
      (* Give the helper time to migrate to node 1 and start the op. *)
      Sim.Fiber.consume 15e-3;
      A.Runtime.fail_stop rt ~node:1;
      let typed =
        try
          ignore (A.Api.await rt fut : int);
          false
        with
        | Topaz.Rpc.Node_dead _ | A.Aobject.Object_lost _ -> true
      in
      Alcotest.(check bool) "await raises a typed failure" true typed)

(* --- recovery ------------------------------------------------------------ *)

let test_replica_promotion () =
  A.Cluster.run_value (crashy_cfg ()) (fun rt ->
      let obj = A.Api.create rt ~name:"survivor" (ref 42) in
      A.Api.move_to rt obj ~dest:1;
      A.Api.replicate rt ~copy obj ~dest:2;
      A.Api.replicate rt ~copy obj ~dest:3;
      A.Runtime.fail_stop rt ~node:1;
      Alcotest.(check int) "one promotion" 1
        (A.Runtime.counters rt).A.Runtime.recovery_promotions;
      (* Same-epoch tie promotes the lowest live replica node. *)
      Alcotest.(check int) "promoted to lowest replica" 2 (A.Api.locate rt obj);
      let v = A.Api.invoke rt obj (fun r -> !r) in
      Alcotest.(check int) "value survived the funeral" 42 v;
      (match A.Audit.check_objects rt [ A.Aobject.Any obj ] with
      | [] -> ()
      | v :: _ -> Alcotest.failf "audit: %a" A.Audit.pp_violation v);
      (* The promoted master must accept writes and serve them back. *)
      let v' = A.Api.invoke rt ~mode:A.San_hooks.Write obj (fun r ->
          incr r; !r)
      in
      Alcotest.(check int) "writable after promotion" 43 v')

let test_promotion_restores_latest_epoch () =
  A.Cluster.run_value (crashy_cfg ()) (fun rt ->
      let anchors = make_anchors rt ~nodes:4 in
      let obj = A.Api.create rt ~name:"epochs" (ref 0) in
      A.Api.move_to rt obj ~dest:1;
      A.Api.replicate rt ~copy obj ~dest:2;
      (* The write recalls node 2's snapshot and advances the master
         epoch; only node 3's later re-grant carries the new state.  (An
         invoke migrates its caller to the master, so the write runs on
         a joined anchor thread — main must not be standing on the
         victim when it pulls the trigger.) *)
      ignore
        (on rt anchors 0 (fun () ->
             A.Invoke.invoke rt ~mode:A.San_hooks.Write obj (fun r ->
                 r := 7;
                 !r))
          : int);
      A.Api.replicate rt ~copy obj ~dest:3;
      A.Runtime.fail_stop rt ~node:1;
      Alcotest.(check int) "latest-epoch replica wins" 3 (A.Api.locate rt obj);
      Alcotest.(check int) "latest value restored" 7
        (A.Api.invoke rt obj (fun r -> !r)))

let test_home_chain_repair () =
  A.Cluster.run_value (crashy_cfg ()) (fun rt ->
      let anchors = make_anchors rt ~nodes:4 in
      let obj = A.Api.create rt ~name:"wanderer" (ref 9) in
      (* 0 -> 2 -> 1 leaves node 2 (and the home entry on node 0)
         forwarding into node 1; the replica on node 3 keeps the object
         alive through node 1's funeral.  Recovery must rewrite the
         stale entries to point at the promoted master, so live nodes
         never chase into the corpse. *)
      A.Api.move_to rt obj ~dest:2;
      A.Api.move_to rt obj ~dest:1;
      A.Api.replicate rt ~copy obj ~dest:3;
      A.Runtime.fail_stop rt ~node:1;
      Alcotest.(check bool) "chain entries repaired" true
        ((A.Runtime.counters rt).A.Runtime.crash_chain_repairs >= 1);
      List.iter
        (fun node ->
          Alcotest.(check int)
            (Printf.sprintf "read via repaired chain from node %d" node)
            9
            (on rt anchors node (fun () ->
                 A.Invoke.invoke rt ~mode:A.San_hooks.Read obj (fun r -> !r))))
        [ 0; 2; 3 ])

let test_immutable_promotion () =
  A.Cluster.run_value (crashy_cfg ()) (fun rt ->
      let obj = A.Api.create rt ~name:"constant" (ref 17) in
      A.Api.move_to rt obj ~dest:1;
      A.Api.set_immutable rt obj;
      A.Api.replicate rt ~copy obj ~dest:2;
      A.Api.replicate rt ~copy obj ~dest:3;
      A.Runtime.fail_stop rt ~node:1;
      Alcotest.(check int) "immutable re-mastered on a live copy" 2
        (A.Api.locate rt obj);
      Alcotest.(check int) "still readable everywhere" 17
        (A.Api.invoke rt obj (fun r -> !r)))

let test_unaffected_objects_untouched () =
  A.Cluster.run_value (crashy_cfg ()) (fun rt ->
      let bystander = A.Api.create rt ~name:"bystander" (ref 3) in
      A.Api.move_to rt bystander ~dest:2;
      A.Runtime.fail_stop rt ~node:1;
      Alcotest.(check int) "object on a live node unaffected" 3
        (A.Api.invoke rt bystander (fun r -> !r));
      Alcotest.(check int) "nothing lost" 0
        (A.Runtime.counters rt).A.Runtime.objects_lost;
      Alcotest.(check int) "nothing promoted" 0
        (A.Runtime.counters rt).A.Runtime.recovery_promotions)

(* --- transient outage ---------------------------------------------------- *)

let test_transient_outage_rides_out () =
  (* Node 2 goes dark for 30 ms mid-run and comes back: every queue item
     is still processed exactly once, and the outage is counted as a
     restart, not a funeral. *)
  let cfg =
    A.Config.make ~nodes:4 ~cpus:2 ~seed:13L
      ~crashes:[ { A.Config.cnode = 2; at = 10e-3; restart = Some 40e-3 } ]
      ()
  in
  let r = A.Cluster.run_value cfg (fun rt ->
      W.Work_queue.run rt
        {
          W.Work_queue.items = 40;
          work_cpu = 2e-3;
          batch = 4;
          workers_per_node = 2;
          move_queue_at = None;
        })
  in
  Alcotest.(check int) "all items processed" 40 r.W.Work_queue.processed

let test_sor_transient_crash_checksum () =
  let p = W.Sor_core.with_size W.Sor_core.default ~rows:24 ~cols:48 in
  let iters = 4 in
  let want = W.Sor_core.Full_grid.checksum (W.Sor_core.reference p ~iters) in
  let cfg =
    A.Config.make ~nodes:4 ~cpus:2 ~seed:13L
      ~crashes:[ { A.Config.cnode = 3; at = 20e-3; restart = Some 60e-3 } ]
      ()
  in
  let r, ctrs =
    A.Cluster.run_value cfg (fun rt ->
        let c = W.Sor_amber.default_cfg rt in
        let r = W.Sor_amber.run rt p ~cfg:c ~iters () in
        (r, A.Runtime.counters rt))
  in
  Alcotest.(check (float 0.0)) "checksum unchanged by the outage" want
    r.W.Sor_amber.checksum;
  Alcotest.(check int) "one crash, one restart" 1 ctrs.A.Runtime.node_restarts;
  Alcotest.(check int) "counted as a crash too" 1 ctrs.A.Runtime.node_crashes

(* --- reporting ------------------------------------------------------------ *)

let report_text cfg body =
  let text = ref "" in
  A.Cluster.run_value cfg (fun rt ->
      body rt;
      text :=
        Format.asprintf "%a" A.Stats_report.pp (A.Stats_report.capture rt));
  !text

let contains ~affix s = Util.contains s affix

let test_crashed_report_lines () =
  let text =
    report_text (crashy_cfg ()) (fun rt ->
        let obj = A.Api.create rt ~name:"s" (ref 1) in
        A.Api.move_to rt obj ~dest:1;
        A.Api.replicate rt ~copy obj ~dest:2;
        A.Runtime.fail_stop rt ~node:1;
        ignore (A.Api.invoke rt obj (fun r -> !r) : int))
  in
  Alcotest.(check bool) "crashes line printed" true
    (contains ~affix:"crashes: 1 injected" text);
  Alcotest.(check bool) "recovery line printed" true
    (contains ~affix:"recovery: 1 replicas promoted" text)

let test_crash_config_validation () =
  let rejects label mk =
    Alcotest.check_raises label
      (Invalid_argument
         (match mk with
         | `Node0 ->
           "Config: crash node must be in [1, nodes) (node 0 hosts the root \
            environment and cannot crash)"
         | `OutOfRange ->
           "Config: crash node must be in [1, nodes) (node 0 hosts the root \
            environment and cannot crash)"
         | `NegTime -> "Config: crash time must be non-negative"
         | `BadRestart -> "Config: crash restart must come after the crash"
         | `Dup -> "Config: at most one scheduled crash per node"))
      (fun () ->
        let crashes =
          match mk with
          | `Node0 -> [ { A.Config.cnode = 0; at = 0.1; restart = None } ]
          | `OutOfRange -> [ { A.Config.cnode = 4; at = 0.1; restart = None } ]
          | `NegTime -> [ { A.Config.cnode = 1; at = -0.1; restart = None } ]
          | `BadRestart ->
            [ { A.Config.cnode = 1; at = 0.2; restart = Some 0.2 } ]
          | `Dup ->
            [
              { A.Config.cnode = 1; at = 0.1; restart = None };
              { A.Config.cnode = 1; at = 0.3; restart = None };
            ]
        in
        A.Config.validate
          (A.Config.make ~nodes:4 ~cpus:2 ~seed:1L ~crashes ()))
  in
  rejects "node 0 is never crashable" `Node0;
  rejects "crash node must exist" `OutOfRange;
  rejects "crash time must be non-negative" `NegTime;
  rejects "restart must follow the crash" `BadRestart;
  rejects "one scheduled crash per node" `Dup;
  (* The well-formed shape is accepted and reported as enabled. *)
  let ok =
    A.Config.make ~nodes:4 ~cpus:2 ~seed:1L
      ~crashes:[ { A.Config.cnode = 3; at = 0.1; restart = Some 0.4 } ]
      ()
  in
  A.Config.validate ok;
  Alcotest.(check bool) "valid schedule accepted" true
    (A.Config.crashes_enabled ok)

(* A transaction opened toward a node already reported dead used to
   retransmit into the corpse for its whole budget — 41.6 virtual s at the
   default rto, kept here on purpose — and a relayed copy's outer
   [copy-req] call ran out first and blamed the live source.  Both copies
   must name the corpse, promptly. *)
let test_copy_into_dead_node_fails_promptly () =
  let cfg =
    { (A.Config.make ~nodes:3 ~cpus:2 ()) with A.Config.rpc_reliable = true }
  in
  A.Cluster.run_value cfg (fun rt ->
      let local = A.Api.create rt ~name:"local" (ref 1) in
      A.Api.set_immutable rt local;
      let relayed = A.Api.create rt ~name:"relayed" (ref 2) in
      A.Api.move_to rt relayed ~dest:1;
      A.Api.set_immutable rt relayed;
      A.Runtime.fail_stop rt ~node:2;
      Sim.Fiber.consume 1e-3;
      List.iter
        (fun (what, obj) ->
          let t0 = A.Api.now rt in
          let died =
            try
              A.Api.move_to rt obj ~dest:2;
              None
            with Topaz.Rpc.Node_dead { node } -> Some node
          in
          Alcotest.(check (option int)) (what ^ ": names the corpse") (Some 2)
            died;
          Alcotest.(check bool) (what ^ ": within 1 virtual s") true
            (A.Api.now rt -. t0 < 1.0))
        [ ("local source", local); ("relayed source", relayed) ])

(* The plain transport cannot detect a dead peer: a caller blocked on the
   corpse used to end the run in [Cluster.Deadlock].  [fail_stop] refuses
   it up front with a typed config error naming the remedy. *)
let test_fail_stop_needs_reliable_transport () =
  A.Cluster.run_value (A.Config.make ~nodes:3 ~cpus:2 ()) (fun rt ->
      match A.Runtime.fail_stop rt ~node:1 with
      | () -> Alcotest.fail "fail_stop accepted the plain transport"
      | exception Invalid_argument msg ->
        Alcotest.(check bool) "names the remedy" true
          (Util.contains msg "rpc_reliable");
        Alcotest.(check bool) "node left up" true (A.Runtime.node_is_up rt 1);
        (* Nothing was cut: the node still serves calls and moves. *)
        Topaz.Rpc.call (A.Runtime.rpc rt) ~dst:1 ~kind:(kind "probe")
          ~req_size:64 ~work:(fun () -> (8, ()));
        let obj = A.Api.create rt ~name:"o" (ref 1) in
        A.Api.move_to rt obj ~dest:1;
        Alcotest.(check int) "moved" 1 (A.Api.locate rt obj))

(* --- transport plumbing -------------------------------------------------- *)

let test_watch_peer_fires_once_and_clears () =
  A.Cluster.run_value (crashy_cfg ()) (fun rt ->
      let rpc = A.Runtime.rpc rt in
      let hits = ref [] in
      ignore (Topaz.Rpc.watch_peer rpc ~node:1 (fun e -> hits := e :: !hits) : int);
      ignore (Topaz.Rpc.watch_peer rpc ~node:1 (fun e -> hits := e :: !hits) : int);
      A.Runtime.fail_stop rt ~node:1;
      Alcotest.(check int) "both watchers fired" 2 (List.length !hits);
      List.iter
        (fun e ->
          match e with
          | Topaz.Rpc.Node_dead { node } ->
            Alcotest.(check int) "carries the corpse id" 1 node
          | _ -> Alcotest.fail "watcher got a non-Node_dead exception")
        !hits;
      (* Firing cleared the registrations: marking again re-fires nothing. *)
      Topaz.Rpc.mark_node_dead rpc ~node:1;
      Alcotest.(check int) "registrations cleared after firing" 2
        (List.length !hits))

let test_unwatch_removes () =
  A.Cluster.run_value (crashy_cfg ()) (fun rt ->
      let rpc = A.Runtime.rpc rt in
      let fired = ref false in
      let id = Topaz.Rpc.watch_peer rpc ~node:2 (fun _ -> fired := true) in
      Topaz.Rpc.unwatch rpc ~node:2 id;
      Topaz.Rpc.unwatch rpc ~node:2 id;
      A.Runtime.fail_stop rt ~node:2;
      Alcotest.(check bool) "unwatched watcher stays silent" false !fired)

(* --- the storm ----------------------------------------------------------- *)

let audit_or_fail rt objs =
  match
    A.Audit.check_objects rt
      (Array.to_list (Array.map (fun o -> A.Aobject.Any o) objs))
  with
  | [] -> ()
  | vs ->
    QCheck.Test.fail_reportf "audit found %d violations, first: %a"
      (List.length vs) A.Audit.pp_violation (List.hd vs)

(* Can the object outlive [victim]?  Master elsewhere, or a surviving
   snapshot to promote.  Read off the object just before the funeral. *)
let survivable obj ~victim =
  obj.A.Aobject.location <> victim
  || List.exists
       (fun n -> n <> victim && A.Aobject.snapshot obj ~node:n <> None)
       obj.A.Aobject.replicas

let run_storm ~sanitize ~faults salt =
  let nodes = 4 in
  let cfg =
    crashy_cfg ~nodes ~seed:((salt * 7919) + 23) ~faults ()
  in
  Util.run_sanitized ~sanitize cfg (fun rt ->
      let rng = Sim.Rng.make (Int64.of_int (salt + 313)) in
      let k = 3 in
      let objs =
        Array.init k (fun i ->
            A.Api.create rt ~name:(Printf.sprintf "s%d" i) (ref 0))
      in
      let model = Array.make k 0 in
      let anchors = make_anchors rt ~nodes in
      (* Pre-crash: random sequential reads, writes, installs, moves. *)
      for _ = 1 to 14 do
        let o = Sim.Rng.int rng k and node = Sim.Rng.int rng nodes in
        match Sim.Rng.int rng 8 with
        | 0 | 1 | 2 ->
          let v =
            on rt anchors node (fun () ->
                A.Invoke.invoke rt ~mode:A.San_hooks.Read objs.(o) (fun r -> !r))
          in
          if v <> model.(o) then
            QCheck.Test.fail_reportf "pre-crash stale read: obj %d got %d want %d"
              o v model.(o)
        | 3 | 4 ->
          ignore
            (on rt anchors node (fun () ->
                 A.Invoke.invoke rt ~mode:A.San_hooks.Write objs.(o) (fun r ->
                     incr r;
                     !r))
              : int);
          model.(o) <- model.(o) + 1
        | 5 | 6 ->
          let dest = Sim.Rng.int rng nodes in
          on rt anchors node (fun () -> A.Api.replicate rt ~copy objs.(o) ~dest)
        | _ ->
          let dest = Sim.Rng.int rng nodes in
          on rt anchors node (fun () -> A.Api.move_to rt objs.(o) ~dest)
      done;
      (* The funeral: nodes 1..3 are crashable; record what should
         survive before pulling the trigger. *)
      let victim = 1 + Sim.Rng.int rng (nodes - 1) in
      let expect_alive = Array.map (fun o -> survivable o ~victim) objs in
      A.Runtime.fail_stop rt ~node:victim;
      if (A.Runtime.counters rt).A.Runtime.node_crashes <> 1 then
        QCheck.Test.fail_reportf "crash not counted";
      (* Post-crash: every live node probes every object.  Survivable
         objects must serve the oracle value; doomed ones must fail
         crisply with Object_lost — never hang, never misvalue. *)
      for node = 0 to nodes - 1 do
        if A.Runtime.node_is_up rt node then
          Array.iteri
            (fun i obj ->
              match
                on rt anchors node (fun () ->
                    A.Invoke.invoke rt ~mode:A.San_hooks.Read obj (fun r -> !r))
              with
              | v ->
                if not expect_alive.(i) then
                  QCheck.Test.fail_reportf
                    "obj %d read %d from node %d but had no surviving copy" i v
                    node
                else if v <> model.(i) then
                  QCheck.Test.fail_reportf
                    "post-crash stale read: obj %d got %d want %d (node %d)" i v
                    model.(i) node
              | exception A.Aobject.Object_lost _ ->
                if expect_alive.(i) then
                  QCheck.Test.fail_reportf
                    "obj %d lost though a copy survived node %d's crash" i
                    victim)
            objs
      done;
      (* Survivors keep working: a write from a live node, then reads
         from every live node converge on it. *)
      Array.iteri
        (fun i obj ->
          if expect_alive.(i) then begin
            let node = ref (Sim.Rng.int rng nodes) in
            while not (A.Runtime.node_is_up rt !node) do
              node := (!node + 1) mod nodes
            done;
            ignore
              (on rt anchors !node (fun () ->
                   A.Invoke.invoke rt ~mode:A.San_hooks.Write obj (fun r ->
                       incr r;
                       !r))
                : int);
            model.(i) <- model.(i) + 1;
            for n = 0 to nodes - 1 do
              if A.Runtime.node_is_up rt n then
                let v =
                  on rt anchors n (fun () ->
                      A.Invoke.invoke rt ~mode:A.San_hooks.Read obj (fun r -> !r))
                in
                if v <> model.(i) then
                  QCheck.Test.fail_reportf
                    "post-crash write did not converge: obj %d got %d want %d" i
                    v model.(i)
            done
          end)
        objs;
      audit_or_fail rt objs);
  true

let lossy =
  { no_faults with Hw.Ethernet.drop_prob = 0.03; dup_prob = 0.01 }

let salt = QCheck.(int_bound 100_000)

let prop_storm_plain =
  QCheck.Test.make ~name:"crash recovery vs sequential oracle (plain)" ~count:60
    salt (fun s -> run_storm ~sanitize:false ~faults:no_faults s)

let prop_storm_sanitized =
  QCheck.Test.make ~name:"crash recovery under AmberSan" ~count:40 salt (fun s ->
      run_storm ~sanitize:true ~faults:no_faults s)

(* Faults stacked on the funeral: the reliable transport retries losses,
   so the oracle holds unchanged — the default retransmit budget is
   unreachable under these rates, meaning no spurious deaths. *)
let prop_storm_faulted =
  QCheck.Test.make ~name:"crash recovery under packet loss" ~count:40 salt
    (fun s ->
      run_storm ~sanitize:false
        ~faults:{ lossy with Hw.Ethernet.drop_prob = 0.02 }
        s)

(* Pinned generator seed, same convention as the replica suite: every
   `dune runtest` explores the same salts (QCHECK_SEED overrides). *)
let rand () =
  let seed =
    match int_of_string_opt (Sys.getenv "QCHECK_SEED") with
    | Some s -> s
    | None -> 0xF0E19
    | exception Not_found -> 0xF0E19
  in
  Random.State.make [| seed |]

let suite =
  [
    Alcotest.test_case "call to dead node: Node_dead" `Quick
      test_call_dead_node_typed;
    Alcotest.test_case "retransmit cap vs stalled-forever peer" `Quick
      test_retransmit_cap_vs_stalled_forever;
    Alcotest.test_case "unreplicated loss: Object_lost" `Quick
      test_object_lost_typed;
    Alcotest.test_case "join of killed thread: Node_dead" `Quick
      test_join_killed_thread_typed;
    Alcotest.test_case "future await: typed failure" `Quick
      test_future_await_typed;
    Alcotest.test_case "replica promoted to master" `Quick
      test_replica_promotion;
    Alcotest.test_case "promotion restores the latest epoch" `Quick
      test_promotion_restores_latest_epoch;
    Alcotest.test_case "home chain repaired around the corpse" `Quick
      test_home_chain_repair;
    Alcotest.test_case "immutable object re-mastered" `Quick
      test_immutable_promotion;
    Alcotest.test_case "bystander objects untouched" `Quick
      test_unaffected_objects_untouched;
    Alcotest.test_case "transient outage: queue exactly-once" `Quick
      test_transient_outage_rides_out;
    Alcotest.test_case "transient outage: sor checksum parity" `Quick
      test_sor_transient_crash_checksum;
    Alcotest.test_case "crashed run: report lines" `Quick
      test_crashed_report_lines;
    Alcotest.test_case "crash schedule validation" `Quick
      test_crash_config_validation;
    Alcotest.test_case "copy into a dead node fails promptly" `Quick
      test_copy_into_dead_node_fails_promptly;
    Alcotest.test_case "fail_stop on the plain transport: typed error" `Quick
      test_fail_stop_needs_reliable_transport;
    Alcotest.test_case "watch_peer fires once and clears" `Quick
      test_watch_peer_fires_once_and_clears;
    Alcotest.test_case "unwatch removes the watcher" `Quick
      test_unwatch_removes;
    QCheck_alcotest.to_alcotest ~rand:(rand ()) prop_storm_plain;
    QCheck_alcotest.to_alcotest ~rand:(rand ()) prop_storm_sanitized;
    QCheck_alcotest.to_alcotest ~rand:(rand ()) prop_storm_faulted;
  ]
