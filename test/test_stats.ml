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

(* --- the windowed histogram against a dense one --------------------------- *)

(* The dense histogram the windowed one replaced: all 640 buckets of the
   default geometry held from creation.  The windowed histogram must
   answer every query with the same bits. *)
module Dense = struct
  type t = {
    lo : float;
    inv_log_growth : float;
    edges : float array;
    counts : int array;
    mutable underflow : int;
    mutable overflow : int;
    mutable n : int;
    mutable total : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    let lo = L.default_lo and growth = L.default_growth in
    let buckets = L.default_buckets in
    {
      lo;
      inv_log_growth = 1.0 /. log growth;
      edges =
        Array.init (buckets + 1) (fun i -> lo *. (growth ** float_of_int i));
      counts = Array.make buckets 0;
      underflow = 0;
      overflow = 0;
      n = 0;
      total = 0.0;
      min = Float.infinity;
      max = Float.neg_infinity;
    }

  let bucket_index t x =
    if not (x >= t.lo) then -1
    else begin
      let i =
        int_of_float (Float.floor (log (x /. t.lo) *. t.inv_log_growth))
      in
      let nb = Array.length t.counts in
      let i = Stdlib.max 0 (Stdlib.min nb i) in
      let i = if x < t.edges.(i) then i - 1 else i in
      let i = if i < nb && x >= t.edges.(i + 1) then i + 1 else i in
      Stdlib.min nb i
    end

  let add t x =
    t.n <- t.n + 1;
    t.total <- t.total +. x;
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    let i = bucket_index t x in
    if i < 0 then t.underflow <- t.underflow + 1
    else if i >= Array.length t.counts then t.overflow <- t.overflow + 1
    else t.counts.(i) <- t.counts.(i) + 1

  let mean t = if t.n = 0 then 0.0 else t.total /. float_of_int t.n

  let percentile t p =
    let rank =
      Stdlib.max 1
        (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)))
    in
    let clamp v = Stdlib.max t.min (Stdlib.min t.max v) in
    if rank <= t.underflow then clamp t.lo
    else begin
      let seen = ref t.underflow in
      let result = ref None in
      let nb = Array.length t.counts in
      let i = ref 0 in
      while !result = None && !i < nb do
        seen := !seen + t.counts.(!i);
        if rank <= !seen then
          result := Some (clamp (sqrt (t.edges.(!i) *. t.edges.(!i + 1))));
        incr i
      done;
      match !result with Some v -> v | None -> t.max
    end

  let merge dst src =
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.underflow <- dst.underflow + src.underflow;
    dst.overflow <- dst.overflow + src.overflow;
    dst.n <- dst.n + src.n;
    dst.total <- dst.total +. src.total;
    if src.min < dst.min then dst.min <- src.min;
    if src.max > dst.max then dst.max <- src.max

  let clear t =
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.underflow <- 0;
    t.overflow <- 0;
    t.n <- 0;
    t.total <- 0.0;
    t.min <- Float.infinity;
    t.max <- Float.neg_infinity
end

(* Values of every kind a histogram meets: log-uniform over its range
   and past both ends, exact bucket edges and their float neighbours,
   and zeros of both signs, negatives, infinities and NaN. *)
let gen_value =
  let dense = Dense.create () in
  let top = Array.length dense.Dense.edges - 1 in
  QCheck.Gen.(
    frequency
      [
        (4, map (fun u -> 10.0 ** u) (float_range (-11.0) 6.0));
        ( 3,
          map2
            (fun i nudge ->
              let e = dense.Dense.edges.(i) in
              match nudge with 0 -> Float.pred e | 1 -> e | _ -> Float.succ e)
            (int_range 0 top) (int_range 0 2) );
        ( 1,
          oneofl
            [
              0.0; -0.0; -1.0; 1e-12; 5e4; 1e9; Float.infinity;
              Float.neg_infinity; Float.nan;
            ] );
      ])

let arb_values =
  QCheck.make
    ~print:QCheck.Print.(list float)
    QCheck.Gen.(list_size (int_range 0 120) gen_value)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Every query the two answer, compared by bits; [QCheck.Test.fail_reportf]
   names the first that differs. *)
let agree what (w : L.t) (d : Dense.t) =
  let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) what in
  let float name a b =
    if not (same_bits a b) then fail "%s %h (dense %h)" name a b
  in
  if L.count w <> d.Dense.n then
    fail "count %d (dense %d)" (L.count w) d.Dense.n;
  if L.underflow w <> d.Dense.underflow || L.overflow w <> d.Dense.overflow
  then fail "underflow or overflow";
  float "total" (L.total w) d.Dense.total;
  float "min" (L.min w) d.Dense.min;
  float "max" (L.max w) d.Dense.max;
  float "mean" (L.mean w) (Dense.mean d);
  if d.Dense.n > 0 then
    List.iter
      (fun p ->
        float (Printf.sprintf "p%g" p) (L.percentile w p)
          (Dense.percentile d p))
      [ 0.0; 1.0; 50.0; 99.0; 99.9; 100.0 ];
  true

let both xs =
  let w = L.create () and d = Dense.create () in
  List.iter
    (fun x ->
      if L.bucket_index w x <> Dense.bucket_index d x then
        QCheck.Test.fail_reportf "bucket_index %h: %d (dense %d)" x
          (L.bucket_index w x) (Dense.bucket_index d x);
      L.add w x;
      Dense.add d x)
    xs;
  (w, d)

let prop_window_matches_dense =
  QCheck.Test.make ~name:"windowed histogram answers as the dense one"
    ~count:300 (QCheck.pair arb_values arb_values) (fun (xs, ys) ->
      let w, d = both xs in
      ignore (agree "adds" w d : bool);
      (* Overlapping ranges, as the generator draws them. *)
      let w2, d2 = both ys in
      L.merge w2 w;
      Dense.merge d2 d;
      ignore (agree "overlapping merge" w2 d2 : bool);
      (* Disjoint ranges: the values below a cut into those above it, and
         the other way round. *)
      let cut = 1e-3 in
      let below = List.filter (fun x -> x < cut) xs
      and above = List.filter (fun x -> x >= cut) xs in
      let wb, db = both below and wa, da = both above in
      L.merge wb wa;
      Dense.merge db da;
      ignore (agree "merge of a higher range" wb db : bool);
      let wb, db = both below in
      L.merge wa wb;
      Dense.merge da db;
      ignore (agree "merge of a lower range" wa da : bool);
      (* Clear, then reuse. *)
      L.clear w;
      Dense.clear d;
      ignore (agree "cleared" w d : bool);
      List.iter
        (fun y ->
          L.add w y;
          Dense.add d y)
        ys;
      agree "reused after clear" w d)

(* Bucket bounds are the dense table's, bit for bit, over the whole
   geometry. *)
let test_window_bounds_match_dense () =
  let w = L.create () and d = Dense.create () in
  Alcotest.(check int) "buckets" (Array.length d.Dense.counts) (L.buckets w);
  for i = 0 to L.buckets w - 1 do
    let lo, hi = L.bucket_bounds w i in
    let e = d.Dense.edges in
    if not (same_bits lo e.(i) && same_bits hi e.(i + 1)) then
      Alcotest.failf "bucket %d bounds differ" i
  done

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
    QCheck_alcotest.to_alcotest prop_window_matches_dense;
    Alcotest.test_case "window bounds match the dense table" `Quick
      test_window_bounds_match_dense;
  ]
