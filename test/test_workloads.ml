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

(* --- the shared relax kernel ---------------------------------------- *)

(* A grid of [rows] × [cols] interior points inside a ghost ring, with
   every cell drawn at random, as [Sor_core.relax_block] reads it. *)
type grid_case = {
  rows : int;
  cols : int;
  col0 : int;
  omega : float;
  color : W.Sor_core.color;
  cells : float array;
}

let pp_color = function W.Sor_core.Red -> "red" | W.Sor_core.Black -> "black"

let pp_grid g =
  Printf.sprintf "%dx%d col0 %d omega %h %s" g.rows g.cols g.col0 g.omega
    (pp_color g.color)

let gen_grid =
  let open QCheck.Gen in
  let* rows = int_range 1 12 and* cols = int_range 1 12 in
  let* col0 = int_range 1 40
  and* omega = float_range 0.5 1.95
  and* color = oneofl [ W.Sor_core.Red; W.Sor_core.Black ]
  and* cells = array_repeat ((rows + 2) * (cols + 2)) (float_range 0.0 100.0) in
  return { rows; cols; col0; omega; color; cells }

(* The update written the plain way: one point at a time, checked
   indexing, [/. 4.0]. *)
let naive_relax g cells ~r_from ~r_to ~c_from ~c_to =
  let stride = g.cols + 2 in
  let points = ref 0 and max_change = ref 0.0 in
  for r = r_from to r_to do
    for c = c_from to c_to do
      if W.Sor_core.color_of ~r ~c:(g.col0 + c - 1) = g.color then begin
        let i = (r * stride) + c in
        let old = cells.(i) in
        let avg =
          (cells.(i - 1) +. cells.(i + 1) +. cells.(i - stride)
          +. cells.(i + stride))
          /. 4.0
        in
        let next = old +. (g.omega *. (avg -. old)) in
        cells.(i) <- next;
        incr points;
        max_change := Float.max !max_change (Float.abs (next -. old))
      end
    done
  done;
  (!points, !max_change)

let relax g cells ~r_from ~r_to ~c_from ~c_to acc =
  W.Sor_core.relax_block cells ~stride:(g.cols + 2) ~omega:g.omega
    ~col0:g.col0 g.color ~r_from ~r_to ~c_from ~c_to acc

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_cells a b = Array.for_all2 same_bits a b

(* The kernel and the plain update agree bit for bit on every cell, on
   the largest change folded into a starting [acc], and on the point
   count.  The result says what differed, [None] when nothing did. *)
let kernel_vs_naive g ~r_from ~r_to ~c_from ~c_to ~acc0 =
  let want = Array.copy g.cells and got = Array.copy g.cells in
  let points, change = naive_relax g want ~r_from ~r_to ~c_from ~c_to in
  let acc = { W.Sor_core.max_change = acc0 } in
  let n = relax g got ~r_from ~r_to ~c_from ~c_to acc in
  if n <> points then Some (Printf.sprintf "%d points, naive %d" n points)
  else if not (same_cells got want) then Some "cells differ"
  else if not (same_bits acc.W.Sor_core.max_change (Float.max acc0 change))
  then
    Some
      (Printf.sprintf "largest change %h, naive %h" acc.W.Sor_core.max_change
         (Float.max acc0 change))
  else None

let prop_kernel_matches_naive =
  let gen =
    let open QCheck.Gen in
    let* g = gen_grid in
    let* r_from = int_range 1 g.rows and* c_from = int_range 1 g.cols in
    let* r_to = int_range (r_from - 1) g.rows
    and* c_to = int_range (c_from - 1) g.cols
    and* acc0 = oneof [ return 0.0; float_range 0.0 20.0 ] in
    return (g, (r_from, r_to, c_from, c_to), acc0)
  in
  let print (g, (r_from, r_to, c_from, c_to), acc0) =
    Printf.sprintf "%s, rows %d..%d, cols %d..%d, acc %h" (pp_grid g) r_from
      r_to c_from c_to acc0
  in
  QCheck.Test.make ~name:"relax_block matches the plain update" ~count:500
    (QCheck.make ~print gen)
    (fun (g, (r_from, r_to, c_from, c_to), acc0) ->
      match kernel_vs_naive g ~r_from ~r_to ~c_from ~c_to ~acc0 with
      | None -> true
      | Some why -> QCheck.Test.fail_report why)

(* A grid of random cells, the same on every run. *)
let fixed_grid ?(rows = 9) ?(cols = 6) color =
  let rand = Random.State.make [| rows; cols |] in
  let cells =
    Array.init
      ((rows + 2) * (cols + 2))
      (fun _ -> Random.State.float rand 100.0)
  in
  { rows; cols; col0 = 5; omega = 1.5; color; cells }

let check_naive what g ~r_from ~r_to ~c_from ~c_to =
  match kernel_vs_naive g ~r_from ~r_to ~c_from ~c_to ~acc0:0.0 with
  | None -> ()
  | Some why -> Alcotest.failf "%s (%s): %s" what (pp_grid g) why

let colors = [ W.Sor_core.Red; W.Sor_core.Black ]

(* The border slices: one column, the rows of one worker. *)
let test_kernel_one_column () =
  List.iter
    (fun color ->
      let g = fixed_grid color in
      check_naive "first column" g ~r_from:2 ~r_to:8 ~c_from:1 ~c_to:1;
      check_naive "last column" g ~r_from:1 ~r_to:4 ~c_from:6 ~c_to:6)
    colors

(* A one-point block of the other color holds no point to update. *)
let test_kernel_no_point_of_color () =
  List.iter
    (fun color ->
      let g = fixed_grid color in
      let c =
        if W.Sor_core.color_of ~r:3 ~c:(g.col0 + 1) = color then 3 else 2
      in
      let cells = Array.copy g.cells in
      let acc = { W.Sor_core.max_change = 1.5 } in
      Alcotest.(check int) "no point" 0
        (relax g cells ~r_from:3 ~r_to:3 ~c_from:c ~c_to:c acc);
      Alcotest.(check bool) "no cell written" true (same_cells cells g.cells);
      Alcotest.(check (float 0.0)) "acc kept" 1.5 acc.W.Sor_core.max_change)
    colors

(* Empty ranges update nothing and raise nothing, even where their bounds
   lie outside the grid: a one-column section's interior slice is
   columns 2..1. *)
let test_kernel_empty_ranges () =
  let g = fixed_grid ~cols:1 W.Sor_core.Red in
  List.iter
    (fun (r_from, r_to, c_from, c_to) ->
      let cells = Array.copy g.cells in
      let acc = { W.Sor_core.max_change = 0.0 } in
      Alcotest.(check int) "no point" 0
        (relax g cells ~r_from ~r_to ~c_from ~c_to acc);
      Alcotest.(check bool) "no cell written" true (same_cells cells g.cells);
      Alcotest.(check (float 0.0)) "no change" 0.0 acc.W.Sor_core.max_change)
    [ (1, 9, 2, 1); (5, 4, 1, 1); (10, 9, 1, 1); (0, -1, -3, -4) ]

(* The whole interior reads every cell of the ghost ring but the
   corners.  The plain update writes no ring cell, so matching it also
   shows the ring untouched. *)
let test_kernel_touches_ring () =
  List.iter
    (fun color ->
      check_naive "whole interior"
        (fixed_grid ~rows:7 ~cols:8 color)
        ~r_from:1 ~r_to:7 ~c_from:1 ~c_to:8)
    colors

(* A block leaving the interior raises before it writes a cell, even
   where most of it lies inside. *)
let test_kernel_rejects_out_of_grid () =
  let g = fixed_grid ~rows:6 ~cols:5 W.Sor_core.Black in
  List.iter
    (fun (r_from, r_to, c_from, c_to) ->
      let cells = Array.copy g.cells in
      let acc = { W.Sor_core.max_change = 0.0 } in
      (match relax g cells ~r_from ~r_to ~c_from ~c_to acc with
      | n ->
        Alcotest.failf "rows %d..%d, cols %d..%d accepted (%d points)"
          r_from r_to c_from c_to n
      | exception Invalid_argument _ -> ());
      Alcotest.(check bool) "no cell written" true (same_cells cells g.cells);
      Alcotest.(check (float 0.0)) "no change" 0.0 acc.W.Sor_core.max_change)
    [
      (0, 6, 1, 5); (1, 7, 1, 5); (1, 6, 0, 5); (1, 6, 1, 6); (1, 6, 2, 7);
      (6, 6, 5, 6); (-2, 3, 1, 1); (1, 1, 1, 9);
    ]

(* A color's block split the way [Sor_amber.worker_body] splits a
   section's: the two border columns by rows, the interior by columns,
   for 1–4 workers.  Relaxing the pieces in any order gives the cells and
   the largest change of one call over the whole block. *)
let prop_split_invariance =
  let pieces ~rows ~ncols ~workers =
    List.concat_map
      (fun w ->
        let r_from = 1 + (w * rows / workers)
        and r_to = (w + 1) * rows / workers in
        let width = max 0 (ncols - 2) in
        [ (r_from, r_to, 1, 1) ]
        @ (if ncols > 1 then [ (r_from, r_to, ncols, ncols) ] else [])
        @ [
            ( 1,
              rows,
              2 + (w * width / workers),
              1 + ((w + 1) * width / workers) );
          ])
      (List.init workers Fun.id)
  in
  let gen =
    let open QCheck.Gen in
    let* g = gen_grid and* workers = int_range 1 4 in
    let* order = shuffle_l (pieces ~rows:g.rows ~ncols:g.cols ~workers) in
    return (g, workers, order)
  in
  let print (g, workers, order) =
    Printf.sprintf "%s, %d workers, pieces [%s]" (pp_grid g) workers
      (String.concat "; "
         (List.map
            (fun (a, b, c, d) -> Printf.sprintf "r%d..%d c%d..%d" a b c d)
            order))
  in
  QCheck.Test.make ~name:"relax_block is split-invariant" ~count:300
    (QCheck.make ~print gen) (fun (g, _, order) ->
      let whole = Array.copy g.cells and split = Array.copy g.cells in
      let acc_whole = { W.Sor_core.max_change = 0.0 } in
      let n_whole =
        relax g whole ~r_from:1 ~r_to:g.rows ~c_from:1 ~c_to:g.cols acc_whole
      in
      let acc_split = { W.Sor_core.max_change = 0.0 } in
      let n_split =
        List.fold_left
          (fun n (r_from, r_to, c_from, c_to) ->
            n + relax g split ~r_from ~r_to ~c_from ~c_to acc_split)
          0 order
      in
      if n_split <> n_whole then
        QCheck.Test.fail_reportf "%d points split, %d whole" n_split n_whole
      else if not (same_cells split whole) then
        QCheck.Test.fail_report "cells differ"
      else
        same_bits acc_split.W.Sor_core.max_change
          acc_whole.W.Sor_core.max_change
        || QCheck.Test.fail_reportf "largest change %h split, %h whole"
             acc_split.W.Sor_core.max_change acc_whole.W.Sor_core.max_change)

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
    QCheck_alcotest.to_alcotest prop_kernel_matches_naive;
    Alcotest.test_case "kernel: one-column block" `Quick
      test_kernel_one_column;
    Alcotest.test_case "kernel: no point of the color" `Quick
      test_kernel_no_point_of_color;
    Alcotest.test_case "kernel: empty ranges" `Quick test_kernel_empty_ranges;
    Alcotest.test_case "kernel: block touching the ghost ring" `Quick
      test_kernel_touches_ring;
    Alcotest.test_case "kernel: out-of-grid blocks raise" `Quick
      test_kernel_rejects_out_of_grid;
    QCheck_alcotest.to_alcotest prop_split_invariance;
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
