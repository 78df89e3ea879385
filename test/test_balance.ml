(* Amber-LB: load telemetry, thread stealing, adaptive placement. *)

module A = Amber
module B = Balance

let hybrid_cfg =
  {
    B.Driver.default_cfg with
    B.Driver.policy = B.Rebalancer.Hybrid;
    steal = true;
  }

(* The paper's Figure-3 grid: big enough that compute dominates, so
   concentrating every section on node 0 really does starve the run
   (at small sizes the sync costs dominate and skew is nearly free). *)
let sor_params = Workloads.Sor_core.with_size Workloads.Sor_core.default
    ~rows:61 ~cols:421

let skewed placement rt =
  let c = Workloads.Sor_amber.default_cfg rt in
  match placement with
  | `Skewed -> { c with Workloads.Sor_amber.placement = Some (fun _ -> 0) }
  | `Blocked -> c

(* One skewed-vs-balanced SOR measurement on a 4-node, 4-CPU cluster. *)
let sor_elapsed ~placement ~balance () =
  let cfg = A.Config.make ~nodes:4 ~cpus:4 () in
  let elapsed = ref 0.0 and log = ref [] and stolen = ref 0 in
  A.Cluster.run_value cfg (fun rt ->
      let lb =
        match balance with
        | Some bcfg -> Some (B.Driver.start rt bcfg)
        | None -> None
      in
      let r =
        Workloads.Sor_amber.run rt sor_params ~cfg:(skewed placement rt)
          ~iters:30 ()
      in
      (match lb with
      | Some lb ->
        log := B.Driver.move_log lb;
        B.Driver.stop lb
      | None -> ());
      stolen := (A.Runtime.counters rt).A.Runtime.threads_stolen;
      elapsed := r.Workloads.Sor_amber.compute_elapsed);
  (!elapsed, !log, !stolen)

(* The acceptance bar: hybrid balancing + stealing on a fully skewed SOR
   (every object created on node 0) must recover at least 70% of the
   virtual-time gap between the skewed run and the hand-balanced blocked
   placement. *)
let test_skewed_sor_recovery () =
  let skew, _, _ = sor_elapsed ~placement:`Skewed ~balance:None () in
  let blocked, _, _ = sor_elapsed ~placement:`Blocked ~balance:None () in
  let balanced, moves, _ =
    sor_elapsed ~placement:`Skewed ~balance:(Some hybrid_cfg) ()
  in
  Alcotest.(check bool) "skew actually hurts" true (skew > blocked *. 1.5);
  Alcotest.(check bool) "balancer moved objects" true (List.length moves > 0);
  let recovery = (skew -. balanced) /. (skew -. blocked) in
  if recovery < 0.7 then
    Alcotest.failf
      "recovered only %.0f%% of the skew penalty (skew %.4fs, balanced \
       %.4fs, blocked %.4fs)"
      (100.0 *. recovery) skew balanced blocked

(* The rebalancer must never act on the same object twice within one
   hysteresis window. *)
let test_hysteresis_respected () =
  let _, moves, _ = sor_elapsed ~placement:`Skewed ~balance:(Some hybrid_cfg) () in
  let hyst = B.Rebalancer.hysteresis in
  let last = Hashtbl.create 16 in
  List.iter
    (fun (m : B.Rebalancer.move) ->
      (match Hashtbl.find_opt last m.B.Rebalancer.addr with
      | Some prev ->
        if m.B.Rebalancer.at -. prev < hyst -. 1e-9 then
          Alcotest.failf
            "object 0x%x moved twice within one hysteresis window (%.4fs \
             after %.4fs, window %.4fs)"
            m.B.Rebalancer.addr m.B.Rebalancer.at prev hyst
      | None -> ());
      Hashtbl.replace last m.B.Rebalancer.addr m.B.Rebalancer.at)
    moves

(* The affinity pass alone: eight threads rooted in an anchor on node 2
   call "hot" on node 0, so node 2 is its dominant caller and it moves
   there at the first observation cycle. *)
let test_affinity_follows_dominant_caller () =
  let cfg = A.Config.make ~nodes:4 ~cpus:2 () in
  A.Cluster.run_value cfg (fun rt ->
      let lb =
        B.Driver.start rt
          { B.Driver.default_cfg with B.Driver.policy = B.Rebalancer.Affinity }
      in
      let hot = A.Api.create rt ~name:"hot" (ref 0) in
      let caller =
        A.Athread.start_on rt ~node:2 ~name:"caller" (fun () ->
            let anchor = A.Api.create rt ~name:"anchor" () in
            let workers =
              List.init 8 (fun i ->
                  A.Api.start_invoke rt ~name:(Printf.sprintf "w%d" i) anchor
                    (fun () ->
                      for _ = 1 to 20 do
                        A.Api.invoke rt hot incr
                      done))
            in
            List.iter (A.Api.join rt) workers)
      in
      A.Athread.join rt caller;
      B.Driver.stop lb;
      match B.Driver.move_log lb with
      | [ m ] ->
        Alcotest.(check int) "moved hot" hot.A.Aobject.addr m.B.Rebalancer.addr;
        Alcotest.(check (pair int int)) "from node 0 to node 2" (0, 2)
          (m.B.Rebalancer.src, m.B.Rebalancer.dst);
        Alcotest.(check bool) "at the first cycle" true
          (m.B.Rebalancer.at > 0.025 && m.B.Rebalancer.at < 0.05)
      | moves -> Alcotest.failf "%d moves, expected one" (List.length moves))

let test_steal_moves_a_queued_thread () =
  Util.run ~nodes:2 ~cpus:1 (fun rt ->
      (* Main occupies node 0's only CPU; the started threads queue there
         unbound while node 1 sits idle. *)
      let ts =
        List.init 3 (fun i ->
            A.Athread.start rt
              ~name:(Printf.sprintf "w%d" i)
              (fun () ->
                Sim.Fiber.consume 1e-3;
                A.Runtime.current_node rt))
      in
      let rng = Sim.Rng.split (Sim.Engine.rng (A.Runtime.engine rt)) in
      let li = B.Loadinfo.create rt ~rng:(Sim.Rng.split rng) in
      let st = B.Stealer.create rt ~li ~rng in
      Alcotest.(check bool) "grab takes a thread" true
        (B.Stealer.grab st ~victim:0 ~thief:1);
      let nodes = List.map (fun t -> A.Athread.join rt t) ts in
      Alcotest.(check int) "one thread stolen" 1
        (A.Runtime.counters rt).A.Runtime.threads_stolen;
      Alcotest.(check bool) "stolen thread ran on the thief" true
        (List.mem 1 nodes);
      (* The other two were never taken: they ran at home. *)
      Alcotest.(check int) "the rest ran at home" 2
        (List.length (List.filter (fun n -> n = 0) nodes)))

let test_steal_skips_bound_threads () =
  Util.run ~nodes:2 ~cpus:1 (fun rt ->
      (* A thread bound to an object (non-empty frame stack) must not be
         stolen: the residency check would bounce it straight back. *)
      let obj = A.Api.create rt ~name:"anchor" (ref 0) in
      let t =
        A.Api.start_invoke rt obj (fun c ->
            Sim.Fiber.consume 1e-3;
            incr c;
            A.Runtime.current_node rt)
      in
      (* Let the bound thread enter the invocation, then preempt it into
         the ready queue where the stealer can see it. *)
      Topaz.Kthread.sleep ~engine:(A.Runtime.engine rt) 0.2e-3;
      (* Spare the main thread: it is executing this very test and must
         not end up (unbound!) in the ready queue the stealer scans. *)
      ignore
        (Hw.Machine.preempt_all
           ~except:(Hw.Machine.self_exn ())
           (A.Runtime.machine rt 0)
          : int);
      let rng = Sim.Rng.split (Sim.Engine.rng (A.Runtime.engine rt)) in
      let li = B.Loadinfo.create rt ~rng:(Sim.Rng.split rng) in
      let st = B.Stealer.create rt ~li ~rng in
      Alcotest.(check bool) "bound thread not stealable" false
        (B.Stealer.grab st ~victim:0 ~thief:1);
      Alcotest.(check int) "ran at home" 0 (A.Api.join rt t))

let test_gossip_spreads_load_boards () =
  let cfg = A.Config.make ~nodes:4 ~cpus:2 () in
  A.Cluster.run_value cfg (fun rt ->
      let lb =
        B.Driver.start rt
          { B.Driver.default_cfg with B.Driver.steal = true }
      in
      (* Keep node 0 loaded while gossip rounds run. *)
      let ts =
        List.init 6 (fun i ->
            A.Athread.start rt ~name:(Printf.sprintf "w%d" i) (fun () ->
                Sim.Fiber.consume 60e-3))
      in
      Topaz.Kthread.sleep ~engine:(A.Runtime.engine rt) 50e-3;
      let li = Option.get (B.Driver.loadinfo lb) in
      (* Some remote node has heard (through gossip alone) that node 0 is
         busy. *)
      let heard = ref false in
      for viewer = 1 to 3 do
        let e = (B.Loadinfo.board li ~viewer).(0) in
        if e.B.Loadinfo.stamp > 0.0 then heard := true
      done;
      Alcotest.(check bool) "peers heard about node 0" true !heard;
      List.iter (fun t -> A.Athread.join rt t) ts;
      B.Driver.stop lb;
      Alcotest.(check bool) "gossip rounds counted" true
        ((A.Runtime.counters rt).A.Runtime.gossip_rounds > 0))

let suite =
  [
    Alcotest.test_case "skewed sor: hybrid + steal recovers >= 70%" `Quick
      test_skewed_sor_recovery;
    Alcotest.test_case "hysteresis: one action per object per window" `Quick
      test_hysteresis_respected;
    Alcotest.test_case "affinity: an object follows its dominant caller"
      `Quick test_affinity_follows_dominant_caller;
    Alcotest.test_case "steal moves a queued unbound thread" `Quick
      test_steal_moves_a_queued_thread;
    Alcotest.test_case "steal skips bound threads" `Quick
      test_steal_skips_bound_threads;
    Alcotest.test_case "gossip spreads load boards" `Quick
      test_gossip_spreads_load_boards;
  ]
