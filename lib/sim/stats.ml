module Counter = struct
  type t = { mutable n : int }

  let create () = { n = 0 }
  let incr t = t.n <- t.n + 1
  let value t = t.n
end

(* [Stdlib.min] and [Stdlib.max] written out on floats: the same result,
   signed zeros and NaNs included, without the polymorphic compare. *)
let fmin (a : float) b = if a <= b then a else b
let fmax (a : float) b = if a >= b then a else b

module Log_histogram = struct
  (* An all-float record is stored flat, so [add] updates it in place:
     no float is boxed and no write barrier runs. *)
  type floats = {
    mutable total : float;
    mutable min : float;
    mutable max : float;
  }

  type t = {
    lo : float;
    growth : float;
    inv_log_growth : float;
    edges : float array;
        (* [edges.(i)] is [lo *. growth ** i], for [i] in [0, buckets]:
           tabulated once per geometry, so [add] raises no power *)
    buckets : int;
    mutable base : int;
    mutable counts : int array;
        (* [counts.(j)] counts bucket [base + j]: a window over the buckets
           seen so far, grown on demand.  Every bucket outside it is
           empty. *)
    mutable underflow : int;
    mutable overflow : int;
    mutable n : int;
    f : floats;
  }

  let default_lo = 1e-9
  let default_growth = 1.05
  let default_buckets = 640

  (* The first window.  A decade of values spans 47 buckets, so the
     window of one latency ends at tens of buckets, not [buckets]. *)
  let min_window = 8

  let tabulate ~lo ~growth ~buckets =
    Array.init (buckets + 1) (fun i -> lo *. (growth ** float_of_int i))

  (* Every histogram of the default geometry shares one table. *)
  let default_edges =
    lazy
      (tabulate ~lo:default_lo ~growth:default_growth
         ~buckets:default_buckets)

  let create ?(lo = default_lo) ?(growth = default_growth)
      ?(buckets = default_buckets) () =
    if not (lo > 0.0) then invalid_arg "Log_histogram.create: lo";
    if not (growth > 1.0) then invalid_arg "Log_histogram.create: growth";
    if buckets <= 0 then invalid_arg "Log_histogram.create: buckets";
    let default =
      lo = default_lo && growth = default_growth && buckets = default_buckets
    in
    {
      lo;
      growth;
      inv_log_growth = 1.0 /. log growth;
      edges =
        (if default then Lazy.force default_edges
         else tabulate ~lo ~growth ~buckets);
      buckets;
      base = 0;
      counts = [||];
      underflow = 0;
      overflow = 0;
      n = 0;
      f = { total = 0.0; min = Float.infinity; max = Float.neg_infinity };
    }

  let buckets t = t.buckets

  (* Bucket [i] covers [lo*growth^i, lo*growth^(i+1)).  [-1] is the
     underflow range (everything below [lo], including non-positive
     values) and [buckets] the overflow range. *)
  let bucket_index t x =
    if not (x >= t.lo) then -1
    else begin
      let i = int_of_float (Float.floor (log (x /. t.lo) *. t.inv_log_growth)) in
      (* Float.floor(log ...) can land one bucket off right at a
         boundary; nudge so [bucket_bounds] stays authoritative. *)
      let nb = t.buckets in
      let i = Int.max 0 (Int.min nb i) in
      let i = if x < t.edges.(i) then i - 1 else i in
      let i = if i < nb && x >= t.edges.(i + 1) then i + 1 else i in
      Int.min nb i
    end

  let bucket_bounds t i =
    if i < 0 || i >= t.buckets then invalid_arg "Log_histogram.bucket_bounds";
    (t.edges.(i), t.edges.(i + 1))

  (* Make the window cover buckets [lo, hi).  A window that must grow at
     least doubles, towards the new buckets, so a run of adds reallocates
     it a logarithmic number of times. *)
  let cover t lo hi =
    let len = Array.length t.counts in
    if len = 0 || lo < t.base || hi > t.base + len then begin
      let lo' = if len = 0 then lo else Int.min lo t.base in
      let hi' = if len = 0 then hi else Int.max hi (t.base + len) in
      let w =
        Int.min t.buckets (Int.max (hi' - lo') (Int.max min_window (2 * len)))
      in
      let base =
        if len > 0 && lo < t.base then Int.max 0 (hi' - w)
        else Int.min lo' (t.buckets - w)
      in
      let counts = Array.make w 0 in
      if len > 0 then Array.blit t.counts 0 counts (t.base - base) len;
      t.base <- base;
      t.counts <- counts
    end

  let add t x =
    t.n <- t.n + 1;
    let f = t.f in
    f.total <- f.total +. x;
    if x < f.min then f.min <- x;
    if x > f.max then f.max <- x;
    let i = bucket_index t x in
    if i < 0 then t.underflow <- t.underflow + 1
    else if i >= t.buckets then t.overflow <- t.overflow + 1
    else begin
      cover t i (i + 1);
      let j = i - t.base in
      t.counts.(j) <- t.counts.(j) + 1
    end

  let count t = t.n
  let total t = t.f.total
  let min t = t.f.min
  let max t = t.f.max
  let mean t = if t.n = 0 then 0.0 else t.f.total /. float_of_int t.n
  let underflow t = t.underflow
  let overflow t = t.overflow

  let percentile t p =
    if t.n = 0 then invalid_arg "Log_histogram.percentile: empty";
    if p < 0.0 || p > 100.0 then invalid_arg "Log_histogram.percentile: range";
    let rank =
      Int.max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)))
    in
    let f = t.f in
    let clamp v = fmax f.min (fmin f.max v) in
    if rank <= t.underflow then clamp t.lo
    else begin
      (* The buckets outside the window are empty, so the window alone
         holds the rank, if any bucket does. *)
      let rec scan seen j =
        if j >= Array.length t.counts then f.max
        else
          let seen = seen + t.counts.(j) in
          if rank <= seen then
            let i = t.base + j in
            clamp (sqrt (t.edges.(i) *. t.edges.(i + 1)))
          else scan seen (j + 1)
      in
      scan t.underflow 0
    end

  let merge dst src =
    if
      dst.lo <> src.lo || dst.growth <> src.growth
      || dst.buckets <> src.buckets
    then invalid_arg "Log_histogram.merge: geometry mismatch";
    let len = Array.length src.counts in
    if len > 0 then begin
      cover dst src.base (src.base + len);
      let off = src.base - dst.base in
      for j = 0 to len - 1 do
        dst.counts.(off + j) <- dst.counts.(off + j) + src.counts.(j)
      done
    end;
    dst.underflow <- dst.underflow + src.underflow;
    dst.overflow <- dst.overflow + src.overflow;
    dst.n <- dst.n + src.n;
    let d = dst.f and s = src.f in
    d.total <- d.total +. s.total;
    if s.min < d.min then d.min <- s.min;
    if s.max > d.max then d.max <- s.max

  let clear t =
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.underflow <- 0;
    t.overflow <- 0;
    t.n <- 0;
    t.f.total <- 0.0;
    t.f.min <- Float.infinity;
    t.f.max <- Float.neg_infinity

  let pp ppf t =
    if t.n = 0 then Format.fprintf ppf "(empty)"
    else
      Format.fprintf ppf "n=%d mean=%.6g min=%.6g max=%.6g p50=%.6g p99=%.6g"
        t.n (mean t) t.f.min t.f.max (percentile t 50.0) (percentile t 99.0)
end

module Summary = struct
  (* Exact Welford moments, flat like the histogram's floats; everything
     else (count, min, max, total and the percentile buckets) lives in the
     histogram. *)
  type moments = { mutable mean : float; mutable m2 : float }
  type t = { w : moments; hist : Log_histogram.t }

  let create () =
    { w = { mean = 0.0; m2 = 0.0 }; hist = Log_histogram.create () }

  let add t x =
    Log_histogram.add t.hist x;
    let w = t.w in
    let delta = x -. w.mean in
    w.mean <- w.mean +. (delta /. float_of_int (Log_histogram.count t.hist));
    w.m2 <- w.m2 +. (delta *. (x -. w.mean))

  let copy t =
    let hist = Log_histogram.create () in
    Log_histogram.merge hist t.hist;
    { w = { mean = t.w.mean; m2 = t.w.m2 }; hist }

  let count t = Log_histogram.count t.hist
  let mean t = t.w.mean

  let variance t =
    let n = count t in
    if n < 2 then 0.0 else t.w.m2 /. float_of_int n

  let stddev t = sqrt (variance t)
  let min t = Log_histogram.min t.hist
  let max t = Log_histogram.max t.hist
  let total t = Log_histogram.total t.hist

  let percentile t p =
    if count t = 0 then invalid_arg "Summary.percentile: empty";
    if p < 0.0 || p > 100.0 then invalid_arg "Summary.percentile: range";
    Log_histogram.percentile t.hist p

  let pp ppf t =
    if count t = 0 then Format.fprintf ppf "(empty)"
    else
      Format.fprintf ppf "n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g" (count t)
        t.w.mean (stddev t) (min t) (max t)
end
