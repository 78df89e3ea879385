(* Workload-level integration: the SOR implementations agree bit-for-bit,
   speedups behave, work queue and matmul are correct. *)

module W = Workloads

let sor_params rows cols =
  W.Sor_core.with_size W.Sor_core.default ~rows ~cols

let test_sor_core_reference_converges () =
  let p = sor_params 16 16 in
  let iters, g = W.Sor_core.iterations_to_converge p ~eps:1e-4 ~max_iters:5000 in
  Alcotest.(check bool) "converged" true (iters < 5000);
  (* Steady state: every interior point equals its neighbor average. *)
  let ok = ref true in
  for r = 1 to 16 do
    for c = 1 to 16 do
      let avg =
        (W.Sor_core.Full_grid.get g ~r ~c:(c - 1)
        +. W.Sor_core.Full_grid.get g ~r ~c:(c + 1)
        +. W.Sor_core.Full_grid.get g ~r:(r - 1) ~c
        +. W.Sor_core.Full_grid.get g ~r:(r + 1) ~c)
        /. 4.0
      in
      if Float.abs (avg -. W.Sor_core.Full_grid.get g ~r ~c) > 1e-3 then
        ok := false
    done
  done;
  Alcotest.(check bool) "Laplace fixed point" true !ok

let test_sor_colors_partition () =
  let reds = ref 0 and blacks = ref 0 in
  for r = 1 to 10 do
    for c = 1 to 10 do
      match W.Sor_core.color_of ~r ~c with
      | W.Sor_core.Red -> incr reds
      | W.Sor_core.Black -> incr blacks
    done
  done;
  Alcotest.(check int) "half red" 50 !reds;
  Alcotest.(check int) "half black" 50 !blacks

let test_seq_matches_reference () =
  let p = sor_params 12 20 in
  let r = Util.run ~nodes:1 ~cpus:1 (fun rt -> W.Sor_seq.run rt p ~iters:5) in
  let g = W.Sor_core.reference p ~iters:5 in
  Alcotest.(check (float 0.0)) "identical" (W.Sor_core.Full_grid.checksum g)
    r.W.Sor_seq.checksum;
  Alcotest.(check (float 1e-9)) "cost charged"
    (W.Sor_seq.predicted_elapsed p ~iters:5)
    r.W.Sor_seq.compute_elapsed

(* The two Amber SOR programs: edge-push threads with a synchronous
   barrier, and futures with a pipelined one. *)
type program =
  string
  * (Amber.Runtime.t ->
    W.Sor_core.params ->
    ?cfg:W.Sor_amber.cfg ->
    iters:int ->
    unit ->
    W.Sor_amber.result)

let sync : program = ("run", W.Sor_amber.run)
let pipelined : program = ("run_pipelined", W.Sor_amber.run_pipelined)
let programs = [ sync; pipelined ]

let check_amber_exact ~nodes ~cpus ~sections ~overlap p iters
    ((name, run) : program) =
  let want = W.Sor_core.Full_grid.checksum (W.Sor_core.reference p ~iters) in
  let r =
    Util.run ~nodes ~cpus (fun rt ->
        let c = W.Sor_amber.default_cfg rt in
        run rt p ~cfg:{ c with W.Sor_amber.sections; overlap } ~iters ())
  in
  Alcotest.(check (float 0.0))
    (name ^ " bit-identical")
    want r.W.Sor_amber.checksum

let test_amber_sor_exact_overlap () =
  List.iter
    (check_amber_exact ~nodes:4 ~cpus:2 ~sections:6 ~overlap:true
       (sor_params 18 50) 6)
    programs

let test_amber_sor_exact_no_overlap () =
  List.iter
    (check_amber_exact ~nodes:4 ~cpus:2 ~sections:6 ~overlap:false
       (sor_params 18 50) 6)
    programs

let test_amber_sor_narrow_sections () =
  (* One column per section: every column is a border. *)
  List.iter
    (check_amber_exact ~nodes:3 ~cpus:1 ~sections:9 ~overlap:true
       (sor_params 7 9) 4)
    programs

let test_amber_sor_single_section () =
  List.iter
    (check_amber_exact ~nodes:1 ~cpus:4 ~sections:1 ~overlap:true
       (sor_params 10 16) 5)
    programs

(* A configuration the program cannot run is refused before any object
   is created or moved and before any thread starts.  Zero workers used
   to update no point at all and return checksum 0. *)
let test_amber_sor_rejects_bad_cfg ((name, run) : program) () =
  let p = sor_params 6 12 in
  Util.run ~nodes:2 ~cpus:2 (fun rt ->
      let c = W.Sor_amber.default_cfg rt in
      let ctrs = Amber.Runtime.counters rt in
      let footprint () =
        Amber.Runtime.
          (ctrs.objects_created, ctrs.object_moves, ctrs.threads_started)
      in
      List.iter
        (fun (what, cfg) ->
          let before = footprint () in
          (match run rt p ~cfg ~iters:3 () with
          | r ->
            Alcotest.failf "%s accepted %s (checksum %g)" name what
              r.W.Sor_amber.checksum
          | exception Invalid_argument _ -> ());
          Alcotest.(check (triple int int int))
            (Printf.sprintf "%s: %s leaves no trace" name what)
            before (footprint ()))
        [
          ("zero workers", { c with W.Sor_amber.workers_per_section = 0 });
          ( "a section off the cluster",
            {
              c with
              W.Sor_amber.placement =
                Some (fun i -> if i = c.W.Sor_amber.sections - 1 then 2 else 1);
            } );
        ])

let test_amber_sor_speedup_shape () =
  (* A mid-size grid must show: multi-node beats single-CPU, and the
     4-CPU configurations beat 1 CPU by roughly 4x. *)
  let p = sor_params 60 240 in
  let iters = 6 in
  let seq = W.Sor_seq.predicted_elapsed p ~iters in
  let elapsed nodes cpus =
    let r =
      Util.run ~nodes ~cpus (fun rt -> W.Sor_amber.run rt p ~iters ())
    in
    r.W.Sor_amber.compute_elapsed
  in
  let one_cpu = elapsed 1 1 in
  let four_cpu = elapsed 1 4 in
  let cluster = elapsed 4 4 in
  Alcotest.(check bool) "1Nx1P near sequential" true
    (one_cpu > 0.95 *. seq && one_cpu < 1.15 *. seq);
  Alcotest.(check bool) "1Nx4P speedup ~4" true
    (seq /. four_cpu > 3.3 && seq /. four_cpu < 4.1);
  Alcotest.(check bool) "4Nx4P beats 1Nx4P" true (cluster < four_cpu)

let test_overlap_beats_no_overlap () =
  let p = sor_params 60 240 in
  let iters = 5 in
  let run overlap =
    let r =
      Util.run ~nodes:4 ~cpus:4 (fun rt ->
          let c = W.Sor_amber.default_cfg rt in
          W.Sor_amber.run rt p ~cfg:{ c with W.Sor_amber.overlap } ~iters ())
    in
    r.W.Sor_amber.compute_elapsed
  in
  Alcotest.(check bool) "overlap faster" true (run true < run false)

let test_amber_sor_convergence_mode () =
  let p = sor_params 14 30 in
  let eps = 1e-3 in
  let ref_iters, g =
    W.Sor_core.iterations_to_converge p ~eps ~max_iters:3000
  in
  let r =
    Util.run ~nodes:3 ~cpus:2 (fun rt ->
        W.Sor_amber.run_to_convergence rt p ~eps ~max_iters:3000 ())
  in
  Alcotest.(check int) "same iteration count as the reference" ref_iters
    r.W.Sor_amber.iterations;
  Alcotest.(check (float 0.0)) "bit-identical state"
    (W.Sor_core.Full_grid.checksum g)
    r.W.Sor_amber.checksum

let test_amber_sor_convergence_caps () =
  let p = sor_params 14 30 in
  let r =
    Util.run ~nodes:2 ~cpus:2 (fun rt ->
        W.Sor_amber.run_to_convergence rt p ~eps:1e-12 ~max_iters:5 ())
  in
  Alcotest.(check int) "max_iters cap respected" 5 r.W.Sor_amber.iterations

let test_ivy_sor_exact () =
  let p = sor_params 14 40 in
  let iters = 5 in
  let want = W.Sor_core.Full_grid.checksum (W.Sor_core.reference p ~iters) in
  let r = Util.run ~nodes:4 ~cpus:2 (fun rt -> W.Sor_ivy.run rt p ~iters ()) in
  Alcotest.(check (float 0.0)) "bit-identical" want r.W.Sor_ivy.checksum;
  Alcotest.(check bool) "faults happened" true (r.W.Sor_ivy.read_faults > 0)

let test_ivy_pays_more_messages_than_amber () =
  (* §4.2: per iteration, Ivy pays page faults + invalidations where Amber
     pays one invocation per edge per phase. *)
  let p = sor_params 32 64 in
  let iters = 6 in
  let amber =
    Util.run ~nodes:4 ~cpus:2 (fun rt ->
        let c = W.Sor_amber.default_cfg rt in
        W.Sor_amber.run rt p ~cfg:{ c with W.Sor_amber.sections = 4 } ~iters ())
  in
  let ivy =
    Util.run ~nodes:4 ~cpus:2 (fun rt -> W.Sor_ivy.run rt p ~iters ())
  in
  let ivy_msgs =
    ivy.W.Sor_ivy.read_faults + ivy.W.Sor_ivy.write_faults
    + ivy.W.Sor_ivy.invalidations
  in
  Alcotest.(check bool) "ivy coherence traffic exceeds amber invocations"
    true
    (ivy_msgs > amber.W.Sor_amber.remote_invocations)

let test_ivy_sor_exact_across_page_sizes () =
  (* Correctness must not depend on the coherence unit (§4.2 is about
     performance, never results). *)
  let p = sor_params 12 24 in
  let iters = 4 in
  let want = W.Sor_core.Full_grid.checksum (W.Sor_core.reference p ~iters) in
  List.iter
    (fun page_size ->
      let cfg = Amber.Config.make ~nodes:3 ~cpus:2 () in
      let cfg = { cfg with Amber.Config.vm_page_size = page_size } in
      let r =
        Amber.Cluster.run_value cfg (fun rt -> W.Sor_ivy.run rt p ~iters ())
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%dB pages" page_size)
        want r.W.Sor_ivy.checksum)
    [ 256; 512; 1024; 4096 ]

let test_ivy_sor_exact_fixed_manager () =
  let p = sor_params 12 24 in
  let iters = 4 in
  let want = W.Sor_core.Full_grid.checksum (W.Sor_core.reference p ~iters) in
  let r =
    Util.run ~nodes:3 ~cpus:2 (fun rt ->
        W.Sor_ivy.run rt p ~manager:Ivy.Dsm.Fixed ~iters ())
  in
  Alcotest.(check (float 0.0)) "fixed manager exact" want r.W.Sor_ivy.checksum

let test_work_queue_all_processed () =
  let r =
    Util.run ~nodes:3 ~cpus:2 (fun rt ->
        W.Work_queue.run rt
          { W.Work_queue.default_cfg with W.Work_queue.items = 90 })
  in
  Alcotest.(check int) "all items" 90 r.W.Work_queue.processed;
  Alcotest.(check int) "per-node sums match" 90
    (Array.fold_left ( + ) 0 r.W.Work_queue.per_node);
  Alcotest.(check bool) "every node contributed" true
    (Array.for_all (fun n -> n > 0) r.W.Work_queue.per_node)

let test_work_queue_survives_migration () =
  let r =
    Util.run ~nodes:4 ~cpus:2 (fun rt ->
        W.Work_queue.run rt
          {
            W.Work_queue.default_cfg with
            W.Work_queue.items = 80;
            move_queue_at = Some 20;
          })
  in
  Alcotest.(check int) "all items despite move" 80 r.W.Work_queue.processed;
  Alcotest.(check int) "queue ended on last node" 3
    r.W.Work_queue.queue_final_node

let mm_close a b = Float.abs (a -. b) <= 1e-9 *. Float.abs b

let test_matmul_replicated_correct () =
  let cfg = { W.Matmul.default_cfg with W.Matmul.n = 48; block = 12 } in
  let want = W.Matmul.reference_checksum cfg in
  let r = Util.run ~nodes:4 ~cpus:2 (fun rt -> W.Matmul.run rt cfg) in
  Alcotest.(check bool) "correct product" true
    (mm_close r.W.Matmul.checksum want);
  Alcotest.(check bool) "replicas were made" true (r.W.Matmul.copies >= 6)

let test_matmul_replication_pays_off () =
  let cfg = { W.Matmul.default_cfg with W.Matmul.n = 48; block = 12 } in
  let run replicate =
    Util.run ~nodes:4 ~cpus:2 (fun rt ->
        W.Matmul.run rt { cfg with W.Matmul.replicate })
  in
  let fast = run true and slow = run false in
  Alcotest.(check bool) "both correct" true
    (mm_close fast.W.Matmul.checksum slow.W.Matmul.checksum);
  Alcotest.(check bool) "replication is faster" true
    (fast.W.Matmul.elapsed < slow.W.Matmul.elapsed);
  Alcotest.(check bool) "and avoids remote traffic" true
    (fast.W.Matmul.remote_invocations < slow.W.Matmul.remote_invocations)

let prop_sor_amber_matches_reference =
  QCheck.Test.make ~name:"Amber SOR ≡ reference on random configs" ~count:16
    QCheck.(
      pair
        (make ~print:fst (Gen.oneofl programs))
        (quad (int_range 4 16) (int_range 6 30) (int_range 1 6)
           (int_range 1 4)))
    (fun (((_, run) : program), (rows, cols, sections, iters)) ->
      let sections = min sections cols in
      let p = sor_params rows cols in
      let want =
        W.Sor_core.Full_grid.checksum (W.Sor_core.reference p ~iters)
      in
      let r =
        Util.run ~nodes:2 ~cpus:2 (fun rt ->
            let c = W.Sor_amber.default_cfg rt in
            run rt p ~cfg:{ c with W.Sor_amber.sections } ~iters ())
      in
      r.W.Sor_amber.checksum = want)

let suite =
  [
    Alcotest.test_case "reference solver converges to Laplace" `Slow
      test_sor_core_reference_converges;
    Alcotest.test_case "red/black partition" `Quick test_sor_colors_partition;
    Alcotest.test_case "sequential matches reference" `Quick
      test_seq_matches_reference;
    Alcotest.test_case "Amber SOR exact (overlap)" `Quick
      test_amber_sor_exact_overlap;
    Alcotest.test_case "Amber SOR exact (no overlap)" `Quick
      test_amber_sor_exact_no_overlap;
    Alcotest.test_case "Amber SOR with 1-column sections" `Quick
      test_amber_sor_narrow_sections;
    Alcotest.test_case "Amber SOR single section" `Quick
      test_amber_sor_single_section;
    Alcotest.test_case "Amber SOR run rejects a bad cfg up front" `Quick
      (test_amber_sor_rejects_bad_cfg sync);
    Alcotest.test_case "Amber SOR run_pipelined rejects a bad cfg up front"
      `Quick
      (test_amber_sor_rejects_bad_cfg pipelined);
    Alcotest.test_case "Amber SOR speedup shape" `Slow
      test_amber_sor_speedup_shape;
    Alcotest.test_case "overlap beats no-overlap" `Slow
      test_overlap_beats_no_overlap;
    Alcotest.test_case "convergence mode matches reference" `Slow
      test_amber_sor_convergence_mode;
    Alcotest.test_case "convergence mode caps iterations" `Quick
      test_amber_sor_convergence_caps;
    Alcotest.test_case "Ivy SOR exact" `Quick test_ivy_sor_exact;
    Alcotest.test_case "Ivy pays more coherence messages (§4.2)" `Quick
      test_ivy_pays_more_messages_than_amber;
    Alcotest.test_case "Ivy SOR exact across page sizes" `Quick
      test_ivy_sor_exact_across_page_sizes;
    Alcotest.test_case "Ivy SOR exact with fixed manager" `Quick
      test_ivy_sor_exact_fixed_manager;
    Alcotest.test_case "work queue processes everything" `Quick
      test_work_queue_all_processed;
    Alcotest.test_case "work queue survives queue migration" `Quick
      test_work_queue_survives_migration;
    Alcotest.test_case "matmul replicated correct" `Quick
      test_matmul_replicated_correct;
    Alcotest.test_case "matmul replication pays off" `Quick
      test_matmul_replication_pays_off;
    QCheck_alcotest.to_alcotest prop_sor_amber_matches_reference;
  ]
