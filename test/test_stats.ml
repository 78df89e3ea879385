(* Stats accumulators against closed-form oracles. *)

let feq = Alcotest.(check (float 1e-9))

let test_summary_basic () =
  let s = Sim.Stats.Summary.create () in
  List.iter (Sim.Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Sim.Stats.Summary.count s);
  feq "mean" 2.5 (Sim.Stats.Summary.mean s);
  feq "variance" 1.25 (Sim.Stats.Summary.variance s);
  feq "min" 1.0 (Sim.Stats.Summary.min s);
  feq "max" 4.0 (Sim.Stats.Summary.max s);
  feq "total" 10.0 (Sim.Stats.Summary.total s)

let test_summary_single () =
  let s = Sim.Stats.Summary.create () in
  Sim.Stats.Summary.add s 7.0;
  feq "mean" 7.0 (Sim.Stats.Summary.mean s);
  feq "variance is 0" 0.0 (Sim.Stats.Summary.variance s)

(* Percentiles come from the log histogram: each lands within half a
   bucket (sqrt growth - 1, ~2.5%) of the exact nearest-rank value. *)
let half_bucket = sqrt Sim.Stats.Log_histogram.default_growth -. 1.0

let near name want got =
  if Float.abs (got -. want) > half_bucket *. want then
    Alcotest.failf "%s: wanted %g within half a bucket, got %g" name want got

let test_percentiles () =
  let s = Sim.Stats.Summary.create () in
  for i = 1 to 100 do
    Sim.Stats.Summary.add s (float_of_int i)
  done;
  near "p50" 50.0 (Sim.Stats.Summary.percentile s 50.0);
  near "p100" 100.0 (Sim.Stats.Summary.percentile s 100.0);
  near "p1" 1.0 (Sim.Stats.Summary.percentile s 1.0)

(* Any multiset spanning several decades, any p: the estimate is at
   most half a bucket from the exact nearest-rank sample. *)
let prop_percentile_half_bucket =
  QCheck.Test.make ~name:"percentile within half a bucket of nearest rank"
    ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 300)
           (map (fun u -> 10.0 ** u) (float_range (-6.0) 1.0)))
        (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let s = Sim.Stats.Summary.create () in
      List.iter (Sim.Stats.Summary.add s) xs;
      let sorted = Array.of_list xs in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let rank =
        max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))
      in
      let exact = sorted.(rank - 1) in
      Float.abs (Sim.Stats.Summary.percentile s p -. exact)
      <= half_bucket *. exact *. (1.0 +. 1e-9))

let test_percentile_interleaved_with_add () =
  let s = Sim.Stats.Summary.create () in
  List.iter (Sim.Stats.Summary.add s) [ 5.0; 1.0 ];
  near "p100 before" 5.0 (Sim.Stats.Summary.percentile s 100.0);
  Sim.Stats.Summary.add s 9.0;
  near "p100 after" 9.0 (Sim.Stats.Summary.percentile s 100.0)

let test_percentile_empty_raises () =
  let s = Sim.Stats.Summary.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Summary.percentile: empty")
    (fun () -> ignore (Sim.Stats.Summary.percentile s 50.0))

let prop_mean_matches_naive =
  QCheck.Test.make ~name:"streaming mean equals naive mean" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 100) (float_bound_inclusive 1e6))
    (fun xs ->
      let s = Sim.Stats.Summary.create () in
      List.iter (Sim.Stats.Summary.add s) xs;
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Sim.Stats.Summary.mean s -. naive)
      <= 1e-6 *. (1.0 +. Float.abs naive))

(* --- log-bucketed histogram ---------------------------------------------- *)

module L = Sim.Stats.Log_histogram

let test_log_histogram_basics () =
  let h = L.create () in
  List.iter (L.add h) [ 1e-3; 2e-3; 4e-3; 8e-3 ];
  Alcotest.(check int) "count" 4 (L.count h);
  feq "total" 15e-3 (L.total h);
  feq "mean" 3.75e-3 (L.mean h);
  feq "min" 1e-3 (L.min h);
  feq "max" 8e-3 (L.max h);
  Alcotest.(check int) "no underflow" 0 (L.underflow h);
  Alcotest.(check int) "no overflow" 0 (L.overflow h)

(* Bucket boundaries are authoritative: for any bucket i, values at
   [blo], just below [bhi], and the geometric midpoint all index back
   to i — including exact boundary values, where naive float log/exp
   rounding is most likely to be off by one. *)
let test_log_bucket_boundaries () =
  let h = L.create ~lo:1e-6 ~growth:1.05 ~buckets:400 () in
  List.iter
    (fun i ->
      let blo, bhi = L.bucket_bounds h i in
      Alcotest.(check int)
        (Printf.sprintf "bucket %d lower bound" i)
        i (L.bucket_index h blo);
      Alcotest.(check int)
        (Printf.sprintf "bucket %d upper bound opens %d" i (i + 1))
        (i + 1)
        (L.bucket_index h bhi);
      let mid = Float.sqrt (blo *. bhi) in
      Alcotest.(check int)
        (Printf.sprintf "bucket %d midpoint" i)
        i (L.bucket_index h mid))
    [ 0; 1; 17; 100; 255; 399 ];
  (* Out-of-range values land in the sentinel pseudo-buckets. *)
  Alcotest.(check int) "underflow index" (-1) (L.bucket_index h 0.5e-6);
  let top = snd (L.bucket_bounds h 399) in
  Alcotest.(check int) "overflow index" 400 (L.bucket_index h (top *. 2.0))

let test_log_percentiles () =
  let h = L.create ~lo:1e-6 ~growth:1.05 ~buckets:640 () in
  for i = 1 to 1000 do
    L.add h (float_of_int i *. 1e-3)
  done;
  near "p50" 0.5 (L.percentile h 50.0);
  near "p99" 0.99 (L.percentile h 99.0);
  feq "p0 is exact min" 1e-3 (L.percentile h 0.0);
  feq "p100 is exact max" 1.0 (L.percentile h 100.0);
  (* A single sample reports exactly, any percentile. *)
  let one = L.create () in
  L.add one 42.0;
  feq "single p50" 42.0 (L.percentile one 50.0);
  feq "single p99" 42.0 (L.percentile one 99.0)

let test_log_merge_and_clear () =
  let a = L.create () and b = L.create () in
  List.iter (L.add a) [ 1.0; 2.0 ];
  List.iter (L.add b) [ 3.0; 4.0 ];
  L.merge a b;
  Alcotest.(check int) "merged count" 4 (L.count a);
  feq "merged max" 4.0 (L.max a);
  Alcotest.check_raises "geometry mismatch"
    (Invalid_argument "Log_histogram.merge: geometry mismatch") (fun () ->
      L.merge a (L.create ~lo:1e-3 ()));
  L.clear a;
  Alcotest.(check int) "cleared" 0 (L.count a)

let test_log_bad_args () =
  List.iter
    (fun (msg, f) -> Alcotest.check_raises "create" (Invalid_argument msg) f)
    [
      ("Log_histogram.create: lo", fun () -> ignore (L.create ~lo:0.0 ()));
      ("Log_histogram.create: growth", fun () -> ignore (L.create ~growth:1.0 ()));
      ("Log_histogram.create: buckets", fun () -> ignore (L.create ~buckets:0 ()));
    ]

let suite =
  [
    Alcotest.test_case "summary basics" `Quick test_summary_basic;
    Alcotest.test_case "single sample" `Quick test_summary_single;
    Alcotest.test_case "percentiles" `Quick test_percentiles;
    Alcotest.test_case "percentile after more adds" `Quick
      test_percentile_interleaved_with_add;
    Alcotest.test_case "empty percentile raises" `Quick
      test_percentile_empty_raises;
    QCheck_alcotest.to_alcotest prop_percentile_half_bucket;
    QCheck_alcotest.to_alcotest prop_mean_matches_naive;
    Alcotest.test_case "log histogram basics" `Quick test_log_histogram_basics;
    Alcotest.test_case "log histogram bucket boundaries" `Quick
      test_log_bucket_boundaries;
    Alcotest.test_case "log histogram percentiles" `Quick test_log_percentiles;
    Alcotest.test_case "log histogram merge and clear" `Quick
      test_log_merge_and_clear;
    Alcotest.test_case "log histogram bad args" `Quick test_log_bad_args;
  ]
