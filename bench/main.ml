(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5 Table 1, §6 Figures 2 and 3) plus ablations for the
   design claims of §3.3, §3.5, §4.1, §4.2, and §6.

     dune exec bench/main.exe             -- everything (paper artifacts + ablations)
     dune exec bench/main.exe table1      -- Table 1 only
     dune exec bench/main.exe fig2        -- Figure 2
     dune exec bench/main.exe fig3        -- Figure 3
     dune exec bench/main.exe ablate-lock | ablate-pages | ablate-chain
                                          | ablate-movecpus | ablate-overlap
     dune exec bench/main.exe host        -- wall-clock microbenchmarks of the
                                             simulator itself (Bechamel)

   Numbers are deterministic virtual-time measurements; the paper's
   numbers are printed alongside where the paper states them. *)

module A = Amber
module W = Workloads

let line = String.make 78 '-'
let header title = Printf.printf "\n%s\n%s\n%s\n" line title line

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let measure rt n f =
  let t0 = A.Api.now rt in
  for _ = 1 to n do
    f ()
  done;
  (A.Api.now rt -. t0) /. float_of_int n

let table1_measure () =
  let cfg = A.Config.make ~nodes:3 ~cpus:4 () in
  A.Cluster.run_value cfg (fun rt ->
        let create =
          measure rt 100 (fun () ->
              ignore (A.Api.create rt ~size:64 ~name:"o" () : unit A.Aobject.t))
        in
        let local_obj = A.Api.create rt ~size:64 ~name:"local" () in
        let local =
          measure rt 100 (fun () -> A.Api.invoke rt local_obj (fun () -> ()))
        in
        let home = A.Api.create rt ~size:64 ~name:"home" () in
        let target = A.Api.create rt ~size:64 ~name:"target" () in
        A.Api.move_to rt target ~dest:1;
        let remote =
          A.Api.invoke rt home (fun () ->
              measure rt 50 (fun () -> A.Api.invoke rt target (fun () -> ())))
        in
        let ball = A.Api.create rt ~size:1024 ~name:"ball" () in
        A.Api.move_to rt ball ~dest:1;
        let flip = ref 2 in
        let move =
          measure rt 50 (fun () ->
              A.Api.move_to rt ball ~dest:!flip;
              flip := (if !flip = 1 then 2 else 1))
        in
        let start_join =
          measure rt 100 (fun () ->
              let t = A.Api.start rt (fun () -> ()) in
              A.Api.join rt t)
        in
        (create, local, remote, move, start_join))

let table1 () =
  header
    "Table 1: Latency of Amber operations (paper §5; Firefly conditions: \
     light load,\none-packet transfers, one-hop forwarding chains)";
  let create, local, remote, move, start_join = table1_measure () in
  Printf.printf "%-24s %14s %14s %8s\n" "operation" "paper (ms)"
    "measured (ms)" "ratio";
  let row name paper got =
    Printf.printf "%-24s %14.3f %14.3f %8.2f\n" name (paper *. 1e3)
      (got *. 1e3) (got /. paper)
  in
  row "object create" 0.18e-3 create;
  row "local invoke/return" 0.012e-3 local;
  row "remote invoke/return" 8.32e-3 remote;
  row "object move" 12.43e-3 move;
  row "thread start/join" 1.33e-3 start_join

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

let sor_run ~nodes ~cpus ~overlap ?sections p iters =
  let cfg = A.Config.make ~nodes ~cpus () in
  A.Cluster.run_value cfg (fun rt ->
      let c = W.Sor_amber.default_cfg rt in
      let c = { c with W.Sor_amber.overlap } in
      let c =
        match sections with
        | Some s ->
          {
            c with
            W.Sor_amber.sections = s;
            workers_per_section = max 1 (nodes * cpus / s);
          }
        | None -> c
      in
      W.Sor_amber.run rt p ~cfg:c ~iters ())

let fig2 ?(iters = 20) () =
  header
    "Figure 2: Measured speedup, Amber Red/Black SOR, 122x842 grid \
     (paper §6)\nbaseline: sequential implementation on one CPU";
  let p = W.Sor_core.default in
  let seq = W.Sor_seq.predicted_elapsed p ~iters in
  Printf.printf "sequential solve: %.2f virtual s (%d iterations)\n\n" seq
    iters;
  Printf.printf "%-18s %6s %10s %9s %9s %9s\n" "config" "cpus" "elapsed(s)"
    "speedup" "paper" "remote";
  let case label nodes cpus overlap paper =
    let r = sor_run ~nodes ~cpus ~overlap p iters in
    Printf.printf "%-18s %6d %10.3f %9.2f %9s %9d\n%!" label (nodes * cpus)
      r.W.Sor_amber.compute_elapsed
      (seq /. r.W.Sor_amber.compute_elapsed)
      paper r.W.Sor_amber.remote_invocations
  in
  case "1Nx1P" 1 1 true "1.0";
  case "1Nx2P" 1 2 true "~2";
  case "1Nx4P" 1 4 true "~4";
  case "2Nx2P" 2 2 true "~4";
  case "2Nx4P" 2 4 true "~7.5";
  case "3Nx4P (6 sect)" 3 4 true "-";
  case "4Nx1P" 4 1 true "~4";
  case "4Nx2P" 4 2 true "~7.5";
  case "4Nx4P" 4 4 true "~13";
  case "6Nx4P (6 sect)" 6 4 true "-";
  case "8Nx2P" 8 2 true "-";
  case "8Nx4P" 8 4 true "25";
  case "8Nx4P no-overlap" 8 4 false "~21"

(* ------------------------------------------------------------------ *)
(* Figure 3                                                            *)
(* ------------------------------------------------------------------ *)

let fig3 ?(iters = 20) () =
  header
    "Figure 3: Effect of varying SOR problem size at 4Nx4P (paper §6)\n\
     'X' marks the 122x842 grid used in Figure 2";
  Printf.printf "%-14s %10s %12s %10s %9s\n" "grid" "points" "seq(s)"
    "elapsed(s)" "speedup";
  let sizes =
    [
      (30, 208, "");
      (43, 295, "");
      (61, 421, "");
      (86, 595, "");
      (122, 842, "X");
      (152, 1048, "");
      (172, 1190, "");
      (199, 1375, "");
      (244, 1684, "");
    ]
  in
  List.iter
    (fun (rows, cols, mark) ->
      let p = W.Sor_core.with_size W.Sor_core.default ~rows ~cols in
      let seq = W.Sor_seq.predicted_elapsed p ~iters in
      let r = sor_run ~nodes:4 ~cpus:4 ~overlap:true p iters in
      Printf.printf "%-14s %10d %12.2f %10.3f %8.2f%s\n%!"
        (Printf.sprintf "%dx%d" rows cols)
        (W.Sor_core.interior_points p)
        seq r.W.Sor_amber.compute_elapsed
        (seq /. r.W.Sor_amber.compute_elapsed)
        (if mark = "" then "" else "  <-- " ^ mark))
    sizes

(* ------------------------------------------------------------------ *)
(* Ablation A1: lock traffic (§4.1)                                    *)
(* ------------------------------------------------------------------ *)

let ablate_lock () =
  header
    "Ablation A1 (§4.1): contended lock across 4 nodes — Amber lock object \
     vs\nIvy lock-in-a-page (data shipping) vs Ivy RPC lock";
  let nodes = 4 in
  let rounds = 15 in
  let cs = 2e-3 in
  let think = 1e-3 in
  (* Amber: a lock object on node 0, contenders anchored on nodes 0/1. *)
  let amber_time, amber_msgs =
    A.Cluster.run_value (A.Config.make ~nodes ~cpus:2 ()) (fun rt ->
        let lock = A.Sync.Lock.create rt () in
        let anchors =
          List.init nodes (fun n ->
              let a = A.Api.create rt ~name:(Printf.sprintf "a%d" n) () in
              if n <> 0 then A.Api.move_to rt a ~dest:n;
              a)
        in
        let c0 = (A.Runtime.counters rt).A.Runtime.thread_migrations in
        let t0 = A.Api.now rt in
        let ts =
          List.map
            (fun anchor ->
              A.Api.start_invoke rt anchor (fun () ->
                  for _ = 1 to rounds do
                    A.Sync.Lock.with_lock rt lock (fun () ->
                        Sim.Fiber.consume cs);
                    Sim.Fiber.consume think
                  done))
            anchors
        in
        List.iter (fun t -> A.Api.join rt t) ts;
        ( A.Api.now rt -. t0,
          (A.Runtime.counters rt).A.Runtime.thread_migrations - c0 ))
  in
  let ivy_case ~use_rpc =
    A.Cluster.run_value (A.Config.make ~nodes ~cpus:2 ()) (fun rt ->
        let dsm = Ivy.Dsm.create rt ~pages:1 () in
        let rpc_lock = Ivy.Sync_rpc.Lock.create rt ~home:0 in
        let dsm_lock = ref None in
        Ivy.Process.join
          (Ivy.Process.spawn rt ~node:0 ~name:"init" (fun () ->
               dsm_lock := Some (Ivy.Sync_dsm.Lock.create dsm ~addr:0)));
        let dsm_lock = Option.get !dsm_lock in
        let t0 = A.Runtime.now rt in
        let procs =
          List.init nodes (fun node ->
              Ivy.Process.spawn rt ~node ~name:(string_of_int node) (fun () ->
                  for _ = 1 to rounds do
                    (if use_rpc then
                       Ivy.Sync_rpc.Lock.with_lock rpc_lock (fun () ->
                           Sim.Fiber.consume cs)
                     else
                       Ivy.Sync_dsm.Lock.with_lock dsm_lock (fun () ->
                           Sim.Fiber.consume cs));
                    Sim.Fiber.consume think
                  done))
        in
        List.iter (fun p -> Ivy.Process.join p) procs;
        let st = Ivy.Dsm.stats dsm in
        ( A.Runtime.now rt -. t0,
          st.Ivy.Dsm.page_transfers,
          st.Ivy.Dsm.read_faults + st.Ivy.Dsm.write_faults ))
  in
  let dsm_time, dsm_transfers, dsm_faults = ivy_case ~use_rpc:false in
  let rpc_time, _, _ = ivy_case ~use_rpc:true in
  Printf.printf
    "%d critical sections on each of %d nodes, %.0f ms each, %.0f ms think \
     time\n\n"
    rounds nodes (cs *. 1e3) (think *. 1e3);
  Printf.printf "%-28s %12s %30s\n" "system" "elapsed(s)" "coherence traffic";
  Printf.printf "%-28s %12.3f %30s\n" "Amber lock object" amber_time
    (Printf.sprintf "%d thread flights" amber_msgs);
  Printf.printf "%-28s %12.3f %30s\n" "Ivy lock in shared page" dsm_time
    (Printf.sprintf "%d page moves, %d faults" dsm_transfers dsm_faults);
  Printf.printf "%-28s %12.3f %30s\n" "Ivy RPC lock (the fix)" rpc_time "none"

(* ------------------------------------------------------------------ *)
(* Ablation A2: page size vs object transfer (§4.2)                    *)
(* ------------------------------------------------------------------ *)

let ablate_pages () =
  header
    "Ablation A2 (§4.2): SOR edge exchange, Amber single-invocation \
     transfer vs\nIvy page faults at several page sizes (32x64 grid, 4 \
     nodes, 6 iterations)";
  let p = W.Sor_core.with_size W.Sor_core.default ~rows:32 ~cols:64 in
  let iters = 6 in
  let amber =
    A.Cluster.run_value (A.Config.make ~nodes:4 ~cpus:2 ()) (fun rt ->
        let c = W.Sor_amber.default_cfg rt in
        W.Sor_amber.run rt p ~cfg:{ c with W.Sor_amber.sections = 4 } ~iters ())
  in
  Printf.printf "%-26s %10s %12s %14s\n" "system" "elapsed(s)" "messages"
    "bytes moved";
  Printf.printf "%-26s %10.3f %12d %14s\n" "Amber (object edges)"
    amber.W.Sor_amber.compute_elapsed amber.W.Sor_amber.remote_invocations
    "(edge payloads)";
  List.iter
    (fun page_size ->
      let cfg = A.Config.make ~nodes:4 ~cpus:2 () in
      let cfg = { cfg with A.Config.vm_page_size = page_size } in
      let r = A.Cluster.run_value cfg (fun rt -> W.Sor_ivy.run rt p ~iters ()) in
      Printf.printf "%-26s %10.3f %12d %14d\n%!"
        (Printf.sprintf "Ivy, %4d B pages" page_size)
        r.W.Sor_ivy.compute_elapsed
        (r.W.Sor_ivy.read_faults + r.W.Sor_ivy.write_faults
       + r.W.Sor_ivy.invalidations)
        r.W.Sor_ivy.transfer_bytes)
    [ 512; 1024; 2048; 4096 ]

(* ------------------------------------------------------------------ *)
(* Ablation A3: forwarding chains (§3.3)                               *)
(* ------------------------------------------------------------------ *)

let ablate_chain () =
  header
    "Ablation A3 (§3.3): invoking an object after k moves, from a node \
     with stale\ndescriptors — first invocation chases the chain, then \
     caching kicks in";
  Printf.printf "%-8s %18s %20s\n" "k moves" "first invoke (ms)"
    "second invoke (ms)";
  List.iter
    (fun k ->
      let first, second =
        A.Cluster.run_value (A.Config.make ~nodes:8 ~cpus:2 ()) (fun rt ->
            let o = A.Api.create rt ~name:"o" () in
            let anchor = A.Api.create rt ~name:"anchor" () in
            A.Api.move_to rt anchor ~dest:7;
            (* Another thread walks the object through k nodes; node 0's
               descriptor goes stale. *)
            let mover =
              A.Api.start_invoke rt anchor (fun () ->
                  for d = 1 to k do
                    A.Api.move_to rt o ~dest:d
                  done)
            in
            A.Api.join rt mover;
            let home = A.Api.create rt ~name:"home" () in
            A.Api.invoke rt home (fun () ->
                let t0 = A.Api.now rt in
                A.Api.invoke rt o (fun () -> ());
                let first = A.Api.now rt -. t0 in
                let t1 = A.Api.now rt in
                A.Api.invoke rt o (fun () -> ());
                (first, A.Api.now rt -. t1)))
      in
      Printf.printf "%-8d %18.2f %20.2f\n%!" k (first *. 1e3) (second *. 1e3))
    [ 1; 2; 3; 4; 5; 6; 7 ]

(* ------------------------------------------------------------------ *)
(* Ablation A4: move cost vs CPUs per node (§3.5)                      *)
(* ------------------------------------------------------------------ *)

let ablate_movecpus () =
  header
    "Ablation A4 (§3.5): \"the need to preempt all running threads causes \
     the cost\nof mobility to increase as processors are added to a node\" \
     — MoveTo with a\nbusy source node";
  Printf.printf "%-6s %16s %14s %22s\n" "cpus" "move latency(ms)"
    "preemptions" "victim overhead (ms)";
  List.iter
    (fun cpus ->
      let latency, preempts, victim_ms =
        A.Cluster.run_value (A.Config.make ~nodes:2 ~cpus ()) (fun rt ->
            (* Saturate node 0 with compute threads. *)
            let stop = ref false in
            let busy =
              List.init cpus (fun i ->
                  A.Api.start rt ~name:(Printf.sprintf "busy%d" i) (fun () ->
                      while not !stop do
                        Sim.Fiber.consume 1e-3
                      done))
            in
            let ball = A.Api.create rt ~size:1024 ~name:"ball" () in
            let machine = A.Runtime.machine rt 0 in
            let p0 = Hw.Machine.preemption_count machine in
            let moves = 10 in
            let t0 = A.Api.now rt in
            for i = 1 to moves do
              A.Api.move_to rt ball ~dest:(if i land 1 = 1 then 1 else 0)
            done;
            let latency = (A.Api.now rt -. t0) /. float_of_int moves in
            let preempts = Hw.Machine.preemption_count machine - p0 in
            stop := true;
            List.iter (fun t -> A.Api.join rt t) busy;
            let victim =
              float_of_int preempts
              *. (A.Runtime.cost rt).A.Cost_model.preempt_victim_cpu
            in
            (latency, preempts, victim *. 1e3))
      in
      Printf.printf "%-6d %16.2f %14d %22.2f\n%!" cpus (latency *. 1e3)
        preempts victim_ms)
    [ 1; 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* Ablation A5: overlap of communication and computation (§6)          *)
(* ------------------------------------------------------------------ *)

let ablate_overlap ?(iters = 15) () =
  header
    "Ablation A5 (§6): overlapping edge exchange with computation \
     (122x842 grid)";
  let p = W.Sor_core.default in
  let seq = W.Sor_seq.predicted_elapsed p ~iters in
  Printf.printf "%-10s %16s %16s %10s\n" "config" "overlap on (x)"
    "overlap off (x)" "gain";
  List.iter
    (fun (nodes, cpus) ->
      let speedup overlap =
        let r = sor_run ~nodes ~cpus ~overlap p iters in
        seq /. r.W.Sor_amber.compute_elapsed
      in
      let on = speedup true and off = speedup false in
      Printf.printf "%dNx%dP %4s %16.2f %16.2f %9.1f%%\n%!" nodes cpus "" on
        off
        ((on -. off) /. off *. 100.0))
    [ (2, 4); (4, 4); (8, 4) ]

(* ------------------------------------------------------------------ *)
(* Ablation A9: partitioning granularity (§6)                          *)
(* ------------------------------------------------------------------ *)

let ablate_partitioning () =
  header
    "Ablation A9 (§6): choosing the partitioning — too few sections \
     unbalances the\nload, too many drown in communication (61x421 grid, \
     4Nx4P, 12 iterations)";
  let p = W.Sor_core.with_size W.Sor_core.default ~rows:61 ~cols:421 in
  let iters = 12 in
  let seq = W.Sor_seq.predicted_elapsed p ~iters in
  Printf.printf "%-10s %12s %10s %10s %16s\n" "sections" "elapsed(s)"
    "speedup" "remote" "idle CPU share";
  List.iter
    (fun sections ->
      let r, idle_share =
        A.Cluster.run_value (A.Config.make ~nodes:4 ~cpus:4 ()) (fun rt ->
            let c = W.Sor_amber.default_cfg rt in
            let r =
              W.Sor_amber.run rt p
                ~cfg:
                  {
                    c with
                    W.Sor_amber.sections;
                    workers_per_section = max 1 (16 / sections);
                  }
                ~iters ()
            in
            let busy =
              Array.fold_left
                (fun acc node ->
                  acc +. Hw.Machine.total_busy_time (A.Runtime.machine rt node))
                0.0
                (Array.init 4 Fun.id)
            in
            let capacity = 16.0 *. r.W.Sor_amber.compute_elapsed in
            (r, Float.max 0.0 (1.0 -. (busy /. capacity))))
      in
      Printf.printf "%-10d %12.3f %10.2f %10d %15.1f%%\n%!" sections
        r.W.Sor_amber.compute_elapsed
        (seq /. r.W.Sor_amber.compute_elapsed)
        r.W.Sor_amber.remote_invocations (idle_share *. 100.0))
    [ 1; 2; 4; 8; 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* Ablation A8: Ivy owner-location strategy [Li 86]                    *)
(* ------------------------------------------------------------------ *)

let ablate_manager () =
  header
    "Ablation A8 (Ivy substrate, [Li 86]): dynamic distributed manager \
     (hint\nchasing) vs fixed per-page managers — migratory pages, 6 nodes, \
     ownership\nrotating round-robin";
  let nodes = 6 in
  let pages = 4 in
  let rounds = 6 in
  Printf.printf "%-22s %10s %12s %12s %14s\n" "strategy" "elapsed(s)"
    "transfers" "hint hops" "mgr lookups";
  List.iter
    (fun (label, manager) ->
      let elapsed, st =
        A.Cluster.run_value (A.Config.make ~nodes ~cpus:2 ()) (fun rt ->
            let dsm = Ivy.Dsm.create rt ~manager ~pages () in
            let t0 = A.Runtime.now rt in
            (* Ownership of every page migrates node to node: each write
               must locate the previous owner.  Under hint chasing, a
               node's hint is as stale as the number of transfers since it
               last touched the page. *)
            for round = 1 to rounds do
              ignore round;
              for node = 0 to nodes - 1 do
                Ivy.Process.join
                  (Ivy.Process.spawn rt ~node ~name:"writer" (fun () ->
                       for page = 0 to pages - 1 do
                         Ivy.Dsm.write_u8 dsm
                           (page * Ivy.Dsm.page_size dsm)
                           ((round + node) land 0xff)
                       done))
              done
            done;
            (A.Runtime.now rt -. t0, Ivy.Dsm.stats dsm))
      in
      Printf.printf "%-22s %10.3f %12d %12d %14d\n%!" label elapsed
        st.Ivy.Dsm.page_transfers st.Ivy.Dsm.forward_hops
        st.Ivy.Dsm.manager_lookups)
    [ ("dynamic (hints)", Ivy.Dsm.Dynamic); ("fixed managers", Ivy.Dsm.Fixed) ]

(* ------------------------------------------------------------------ *)
(* Ablation A7: locality via distributed pools (intro / §2.3)          *)
(* ------------------------------------------------------------------ *)

let ablate_locality () =
  header
    "Ablation A7 (§1.1/§2.3): expressing locality — branch-and-bound TSP \
     with\nper-node work pools + stealing vs one centralized pool";
  let base = { W.Tsp.default_cfg with W.Tsp.cities = 10; workers_per_node = 2 } in
  Printf.printf "%-26s %12s %12s %10s %8s\n" "structure" "elapsed(s)"
    "expansions" "remote" "steals";
  List.iter
    (fun (label, centralize) ->
      let r =
        A.Cluster.run_value (A.Config.make ~nodes:4 ~cpus:2 ()) (fun rt ->
            W.Tsp.run rt { base with W.Tsp.centralize })
      in
      Printf.printf "%-26s %12.3f %12d %10d %8d\n%!" label r.W.Tsp.elapsed
        r.W.Tsp.expansions r.W.Tsp.remote_invocations r.W.Tsp.steals)
    [ ("per-node pools + stealing", false); ("one central pool", true) ]

(* ------------------------------------------------------------------ *)
(* Ablation A6: replaceable scheduler (§2.1)                           *)
(* ------------------------------------------------------------------ *)

let ablate_sched () =
  header
    "Ablation A6 (§2.1): installing a custom scheduler at runtime — mean \
     latency of\nshort interactive tasks arriving among long compute \
     threads (1 node, 2 CPUs)";
  (* Long threads have finite work: under LIFO, CPU-bound spinners that
     re-enqueue themselves on preemption would starve everything else
     forever (a real LIFO hazard the numbers below show in miniature). *)
  let run_policy policy =
    A.Cluster.run_value (A.Config.make ~nodes:1 ~cpus:2 ()) (fun rt ->
        A.Scheduler.install rt ~node:0 policy;
        let longs =
          List.init 4 (fun i ->
              A.Api.start rt ~name:(Printf.sprintf "long%d" i) (fun () ->
                  for _ = 1 to 40 do
                    Sim.Fiber.consume 10e-3
                  done))
        in
        let shorts = ref [] in
        for k = 1 to 10 do
          Topaz.Kthread.sleep ~engine:(A.Runtime.engine rt) 30e-3;
          let born = A.Api.now rt in
          let t =
            A.Athread.start rt
              ~name:(Printf.sprintf "short%d" k)
              ~priority:10
              (fun () ->
                Sim.Fiber.consume 5e-3;
                A.Api.now rt -. born)
          in
          shorts := t :: !shorts
        done;
        let latencies = List.map (fun t -> A.Api.join rt t) !shorts in
        List.iter (fun t -> A.Api.join rt t) longs;
        List.fold_left ( +. ) 0.0 latencies
        /. float_of_int (List.length latencies))
  in
  Printf.printf "%-22s %24s\n" "scheduler" "mean short-task latency";
  List.iter
    (fun (name, policy) ->
      Printf.printf "%-22s %21.2f ms\n%!" name (run_policy policy *. 1e3))
    [
      ("fifo (default)", A.Scheduler.Fifo);
      ("lifo", A.Scheduler.Lifo);
      ("priority (custom)", A.Scheduler.Priority);
    ]

(* ------------------------------------------------------------------ *)
(* Ablation A10: media access — idealized bus vs CSMA/CD               *)
(* ------------------------------------------------------------------ *)

let ablate_mac () =
  header
    "Ablation A10 (substrate): idealized FIFO bus vs real CSMA/CD \
     Ethernet —\ndoes collision backoff change the paper's results?";
  let p = W.Sor_core.default in
  let iters = 10 in
  let seq = W.Sor_seq.predicted_elapsed p ~iters in
  Printf.printf "%-12s %22s %14s\n" "MAC" "SOR 8Nx4P speedup" "collisions";
  List.iter
    (fun (label, mac) ->
      let cfg = A.Config.make ~nodes:8 ~cpus:4 () in
      let cfg = { cfg with A.Config.ether_mac = mac } in
      let speedup, colls =
        A.Cluster.run_value cfg (fun rt ->
            let r = W.Sor_amber.run rt p ~iters () in
            ( seq /. r.W.Sor_amber.compute_elapsed,
              Hw.Ethernet.collisions (A.Runtime.ether rt) ))
      in
      Printf.printf "%-12s %22.2f %14d\n%!" label speedup colls)
    [ ("fifo", Hw.Ethernet.Fifo); ("csma/cd", Hw.Ethernet.Csma_cd) ];
  (* A saturating burst where the MAC matters: every node fires a volley
     of packets at once. *)
  Printf.printf
    "\nsaturating burst: 8 nodes x 30 simultaneous 1 KB packets\n";
  Printf.printf "%-12s %14s %14s %16s\n" "MAC" "makespan(ms)" "collisions"
    "medium busy(ms)";
  List.iter
    (fun (label, mac) ->
      let e = Sim.Engine.create () in
      let n = Hw.Ethernet.create ~engine:e ~mac () in
      let last = ref 0.0 in
      for src = 0 to 7 do
        for _ = 1 to 30 do
          ignore
            (Hw.Ethernet.send n
               (Hw.Packet.make ~src ~dst:(7 - src) ~size:1024 ~kind:"b"
                  (fun () -> last := Sim.Engine.now e)))
        done
      done;
      ignore (Sim.Engine.run e : int);
      Printf.printf "%-12s %14.2f %14d %16.2f\n%!" label (!last *. 1e3)
        (Hw.Ethernet.collisions n)
        (Hw.Ethernet.busy_seconds n *. 1e3))
    [ ("fifo", Hw.Ethernet.Fifo); ("csma/cd", Hw.Ethernet.Csma_cd) ]

(* ------------------------------------------------------------------ *)
(* Host-side microbenchmarks (Bechamel)                                *)
(* ------------------------------------------------------------------ *)

let host () =
  header
    "Host microbenchmarks (wall-clock cost of the simulator itself, \
     Bechamel OLS)";
  let open Bechamel in
  let test_event_queue =
    Test.make ~name:"event-queue add+pop x100"
      (Staged.stage (fun () ->
           let q = Sim.Event_queue.create () in
           for i = 0 to 99 do
             Sim.Event_queue.add q ~time:(float_of_int (i * 7 mod 13)) i
           done;
           while not (Sim.Event_queue.is_empty q) do
             ignore (Sim.Event_queue.pop q)
           done))
  in
  let test_fiber =
    Test.make ~name:"fiber start+consume x10"
      (Staged.stage (fun () ->
           let rec drive = function
             | Sim.Fiber.Done _ -> ()
             | Sim.Fiber.Consumed (_, r) -> drive (r.Sim.Fiber.resume ())
             | Sim.Fiber.Yielded r -> drive (r.Sim.Fiber.resume ())
             | Sim.Fiber.Blocked (_, r) -> drive (r.Sim.Fiber.resume ())
           in
           drive
             (Sim.Fiber.start (fun () ->
                  for _ = 1 to 10 do
                    Sim.Fiber.consume 1e-3
                  done))))
  in
  let test_cluster_boot =
    Test.make ~name:"2Nx2P cluster boot + 100 local invokes"
      (Staged.stage (fun () ->
           ignore
             (A.Cluster.run_value (A.Config.make ~nodes:2 ~cpus:2 ())
                (fun rt ->
                  let o = A.Api.create rt ~name:"o" () in
                  for _ = 1 to 100 do
                    A.Api.invoke rt o (fun () -> ())
                  done))))
  in
  let test_small_sor =
    Test.make ~name:"SOR 16x32, 2Nx2P, 3 iters"
      (Staged.stage (fun () ->
           let p = W.Sor_core.with_size W.Sor_core.default ~rows:16 ~cols:32 in
           ignore
             (A.Cluster.run_value (A.Config.make ~nodes:2 ~cpus:2 ())
                (fun rt -> W.Sor_amber.run rt p ~iters:3 ()))))
  in
  let tests =
    Test.make_grouped ~name:"sim"
      [ test_event_queue; test_fiber; test_cluster_boot; test_small_sor ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "%-45s %16s\n" "benchmark" "time per run";
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] ->
        let pretty =
          if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
          else Printf.sprintf "%.0f ns" ns
        in
        Printf.printf "%-45s %16s\n" name pretty
      | Some _ | None -> Printf.printf "%-45s %16s\n" name "(no estimate)")
    results

(* ------------------------------------------------------------------ *)
(* Machine-readable baseline: --json and check-json (the CI guard)     *)
(* ------------------------------------------------------------------ *)

(* A reduced, fast subset of the paper numbers: Table 1 latencies, one
   Fig-2 and one Fig-3 SOR configuration, and the read-mostly workload
   with and without replication.  Everything is a deterministic
   virtual-time measurement, so a committed baseline (BENCH_table1.json)
   only drifts when a protocol or cost-model change drifts it —
   [check_json] fails the build when any metric slows by more than 10%. *)

let readmostly_measure ~replicate () =
  A.Cluster.run_value (A.Config.make ~nodes:4 ~cpus:2 ()) (fun rt ->
      W.Read_mostly.run rt
        {
          W.Read_mostly.objects = 4;
          readers_per_node = 2;
          reads_per_reader = 30;
          write_every = 10;
          replicate;
        })

(* Skewed SOR (every section created on node 0) with and without the
   Amber-LB hybrid balancer: the paper's Fig-3 grid, so the recovery the
   balancer delivers is itself a pinned regression metric. *)
let balance_measure ~balance () =
  let p = W.Sor_core.with_size W.Sor_core.default ~rows:61 ~cols:421 in
  let layers =
    if balance then
      {
        Session.off with
        Session.balance =
          {
            Balance.Driver.default_cfg with
            Balance.Driver.policy = Balance.Rebalancer.Hybrid;
            steal = true;
          };
      }
    else Session.off
  in
  let o =
    Session.run layers (A.Config.make ~nodes:4 ~cpus:4 ()) (fun rt ->
        let c =
          {
            (W.Sor_amber.default_cfg rt) with
            W.Sor_amber.placement = Some (fun _ -> 0);
          }
        in
        (W.Sor_amber.run rt p ~cfg:c ~iters:10 ()).W.Sor_amber.compute_elapsed)
  in
  Result.get_ok o.Session.result

(* Profiled Fig-3 run: remote-invoke latency percentiles and the share of
   the main thread's critical path spent on the wire.  Pinning the
   percentiles catches tail regressions that the elapsed-time metrics
   average away; pinning the network fraction catches protocols that got
   chattier without getting slower (yet). *)
let profiled_sor_measure () =
  let p = W.Sor_core.with_size W.Sor_core.default ~rows:61 ~cols:421 in
  let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let o =
    Session.run ~ppf:quiet
      { Session.off with Session.profile = true }
      (A.Config.make ~nodes:4 ~cpus:4 ())
      (fun rt ->
        ignore (W.Sor_amber.run rt p ~iters:5 () : W.Sor_amber.result);
        A.Runtime.remote_invoke_latency rt)
  in
  let lat = Result.get_ok o.Session.result in
  let pct q = Sim.Stats.Summary.percentile lat q *. 1e6 in
  ( pct 50.0,
    pct 99.0,
    Scope.Critical_path.network_frac
      (Scope.Profile.critical_path (Option.get o.Session.profile)) )

(* Pipelined (async) Fig-3 SOR with wire-level coalescing on: the elapsed
   time pins the overlap win delivered by Amber-Async, and the coalesced
   fraction pins how much of the small-datagram traffic the batching
   layer actually captures. *)
let async_sor_measure () =
  let p = W.Sor_core.with_size W.Sor_core.default ~rows:61 ~cols:421 in
  A.Cluster.run_value
    (A.Config.make ~nodes:4 ~cpus:4 ~coalesce:Topaz.Rpc.default_coalesce ())
    (fun rt ->
      let r = W.Sor_pipe.run rt p ~iters:5 () in
      let z = Topaz.Rpc.coalescing (A.Runtime.rpc rt) in
      let frac =
        float_of_int z.Topaz.Rpc.coal_batched
        /. float_of_int (max 1 z.Topaz.Rpc.coal_eligible)
      in
      (r.W.Sor_pipe.compute_elapsed, frac))

(* Fig-3 SOR riding out a transient node-3 outage (down at 0.2 s, back
   at 0.6 s): the elapsed time pins what the freeze plus the catch-up
   after restart costs.  The companion fail-stop metric below counts
   replicas promoted to master while recovering a small replicated
   object farm — a protocol-shape number, so the regression gate
   catches recovery getting lazier (fewer promotions than objects) as
   well as slower. *)
let crash_sor_measure () =
  let p = W.Sor_core.with_size W.Sor_core.default ~rows:61 ~cols:421 in
  A.Cluster.run_value
    (A.Config.make ~nodes:4 ~cpus:4
       ~crashes:[ { A.Config.cnode = 3; at = 0.2; restart = Some 0.6 } ]
       ())
    (fun rt ->
      let r = W.Sor_amber.run rt p ~iters:10 () in
      r.W.Sor_amber.compute_elapsed)

let promotion_measure () =
  let cfg =
    { (A.Config.make ~nodes:4 ~cpus:2 ()) with A.Config.rpc_reliable = true }
  in
  A.Cluster.run_value cfg (fun rt ->
      let copy r = ref !r in
      let objs =
        List.init 8 (fun i ->
            A.Api.create rt ~name:(Printf.sprintf "farm%d" i) (ref i))
      in
      List.iter
        (fun o ->
          A.Api.move_to rt o ~dest:3;
          A.Api.replicate rt ~copy o ~dest:1;
          A.Api.replicate rt ~copy o ~dest:2)
        objs;
      A.Runtime.fail_stop rt ~node:3;
      (* Recovery must leave every object readable; a silent loss here
         would make the promotion count meaningless. *)
      List.iteri
        (fun i o ->
          if A.Api.invoke rt o (fun r -> !r) <> i then
            failwith "crash recovery bench: promoted object lost its value")
        objs;
      float_of_int (A.Runtime.counters rt).A.Runtime.recovery_promotions)


(* 2x-overload serving on the Table-1 cluster with admission control on:
   the admitted p99 pins the backpressure guarantee (bounded tail under
   overload), the goodput pins how close shedding keeps the cluster to
   its nominal capacity, and the reject fraction pins the shed rate
   itself.  All three drift only when the serving or admission protocol
   changes, so they are regression-gated like the paper numbers. *)
let serve_measure () =
  A.Cluster.run_value (A.Config.make ~nodes:4 ~cpus:4 ()) (fun rt ->
      let cfg =
        {
          Serve.default_cfg with
          Serve.arrival =
            Serve.Trafficgen.Poisson
              (2.0 *. Serve.capacity_rps Serve.default_cfg ~nodes:4);
          duration = 0.3;
          admission = Some Serve.default_admission;
        }
      in
      let r = Serve.run rt cfg in
      ( Sim.Stats.Summary.percentile r.Serve.latency 99.0 *. 1e3,
        r.Serve.goodput_rps,
        r.Serve.reject_frac ))

let json_metrics () =
  let create, local, remote, move, start_join = table1_measure () in
  let sor_elapsed ~nodes ~cpus p iters =
    (sor_run ~nodes ~cpus ~overlap:true p iters).W.Sor_amber.compute_elapsed
  in
  let p2 = W.Sor_core.default in
  let p3 = W.Sor_core.with_size W.Sor_core.default ~rows:61 ~cols:421 in
  let rm_on = readmostly_measure ~replicate:true () in
  let rm_off = readmostly_measure ~replicate:false () in
  let mean_ms s = Sim.Stats.Summary.mean s *. 1e3 in
  [
    ("table1_create_ms", create *. 1e3);
    ("table1_local_invoke_ms", local *. 1e3);
    ("table1_remote_invoke_ms", remote *. 1e3);
    ("table1_object_move_ms", move *. 1e3);
    ("table1_thread_start_join_ms", start_join *. 1e3);
    ("fig2_sor_122x842_1n2p_elapsed_s", sor_elapsed ~nodes:1 ~cpus:2 p2 5);
    ("fig2_sor_122x842_4n4p_elapsed_s", sor_elapsed ~nodes:4 ~cpus:4 p2 5);
    ("fig3_sor_61x421_4n4p_elapsed_s", sor_elapsed ~nodes:4 ~cpus:4 p3 5);
    ( "readmostly_replicated_read_mean_ms",
      mean_ms rm_on.W.Read_mostly.read_latency );
    ( "readmostly_unreplicated_read_mean_ms",
      mean_ms rm_off.W.Read_mostly.read_latency );
    ("readmostly_replicated_elapsed_s", rm_on.W.Read_mostly.elapsed);
    ("balance_skewed_sor_4n4p_elapsed_s", balance_measure ~balance:false ());
    ("balance_hybrid_sor_4n4p_elapsed_s", balance_measure ~balance:true ());
  ]
  @
  let ri_p50, ri_p99, cp_net = profiled_sor_measure () in
  let async_elapsed, coal_frac = async_sor_measure () in
  [
    ("remote_invoke_p50_us", ri_p50);
    ("remote_invoke_p99_us", ri_p99);
    ("critical_path_frac_net", cp_net);
    ("async_sor_4n4p_elapsed_s", async_elapsed);
    ("rpc_coalesced_frac", coal_frac);
    ("crash_recovery_sor_4n4p_elapsed_s", crash_sor_measure ());
    ("recovery_promotions", promotion_measure ());
  ]
  @
  let serve_p99, serve_goodput, serve_rej = serve_measure () in
  [
    ("serve_admitted_p99_ms", serve_p99);
    ("serve_goodput_rps", serve_goodput);
    ("serve_overload_reject_frac", serve_rej);
  ]

let print_json () =
  let ms = json_metrics () in
  let last = List.length ms - 1 in
  print_string "{\n";
  List.iteri
    (fun i (k, v) ->
      Printf.printf "  %S: %.9g%s\n" k v (if i = last then "" else ","))
    ms;
  print_string "}\n"

(* The baseline is the flat one-number-per-line object [print_json]
   emits; parsing it back needs no JSON library. *)
let parse_baseline file =
  let ic = open_in file in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       match Scanf.sscanf line " %S : %f" (fun k v -> (k, v)) with
       | kv -> entries := kv :: !entries
       | exception Scanf.Scan_failure _ | (exception End_of_file) -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

(* Throughput-style metrics (named *_rps) regress downward; everything
   else is a latency/cost number and regresses upward. *)
let higher_is_better k =
  let n = String.length k in
  n >= 4 && String.sub k (n - 4) 4 = "_rps"

let check_json file =
  let base = parse_baseline file in
  if base = [] then begin
    Printf.eprintf "check-json: no metrics found in %s\n" file;
    exit 1
  end;
  let cur = json_metrics () in
  (* Collect every failure and report them all at the end — a run with
     three regressions names three metrics, not just the first. *)
  let failures = ref [] in
  let fail k msg = failures := (k, msg) :: !failures in
  Printf.printf "%-40s %14s %14s %9s\n" "metric" "baseline" "current" "delta";
  List.iter
    (fun (k, b) ->
      match List.assoc_opt k cur with
      | None ->
        fail k "missing from this run";
        Printf.printf "%-40s %14.6g %14s %9s\n" k b "missing" "FAIL"
      | Some c ->
        let delta = if b <> 0.0 then (c -. b) /. b *. 100.0 else 0.0 in
        let regressed =
          if higher_is_better k then c < b *. 0.90 else c > b *. 1.10
        in
        if regressed then
          fail k (Printf.sprintf "%.6g -> %.6g (%+.1f%%)" b c delta);
        Printf.printf "%-40s %14.6g %14.6g %+8.1f%%%s\n" k b c delta
          (if regressed then "  REGRESSION" else ""))
    base;
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k base) then
        Printf.printf "note: metric %s is not in the baseline yet\n" k)
    cur;
  match List.rev !failures with
  | [] -> print_endline "baseline check passed"
  | fs ->
    Printf.printf "\nFAILED: %d metric(s) regressed or went missing:\n"
      (List.length fs);
    List.iter (fun (k, msg) -> Printf.printf "  %-40s %s\n" k msg) fs;
    exit 1

(* ------------------------------------------------------------------ *)

let usage () =
  print_endline
    "usage: main.exe [table1|fig2|fig3|ablate-lock|ablate-pages|ablate-chain|\n\
    \                ablate-movecpus|ablate-overlap|ablate-sched|ablate-locality|ablate-manager|\n\
    \     ablate-partitioning|ablate-mac|host|all|--json|check-json FILE]"

let () =
  let run_all () =
    table1 ();
    fig2 ();
    fig3 ();
    ablate_lock ();
    ablate_pages ();
    ablate_chain ();
    ablate_movecpus ();
    ablate_overlap ();
    ablate_sched ();
    ablate_locality ();
    ablate_manager ();
    ablate_partitioning ();
    ablate_mac ();
    host ()
  in
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "all" ] -> run_all ()
  | [ _; "table1" ] -> table1 ()
  | [ _; "fig2" ] -> fig2 ()
  | [ _; "fig3" ] -> fig3 ()
  | [ _; "ablate-lock" ] -> ablate_lock ()
  | [ _; "ablate-pages" ] -> ablate_pages ()
  | [ _; "ablate-chain" ] -> ablate_chain ()
  | [ _; "ablate-movecpus" ] -> ablate_movecpus ()
  | [ _; "ablate-overlap" ] -> ablate_overlap ()
  | [ _; "ablate-sched" ] -> ablate_sched ()
  | [ _; "ablate-locality" ] -> ablate_locality ()
  | [ _; "ablate-manager" ] -> ablate_manager ()
  | [ _; "ablate-partitioning" ] -> ablate_partitioning ()
  | [ _; "ablate-mac" ] -> ablate_mac ()
  | [ _; "host" ] -> host ()
  | [ _; "--json" ] -> print_json ()
  | [ _; "check-json"; file ] -> check_json file
  | _ ->
    usage ();
    exit 1
