module Counter = struct
  type t = { name : string; mutable n : int }

  let create ?(name = "") () = { name; n = 0 }
  let incr t = t.n <- t.n + 1

  let add t k =
    if k < 0 then invalid_arg "Counter.add: negative increment";
    t.n <- t.n + k

  let value t = t.n
  let name t = t.name
  let reset t = t.n <- 0

  let pp ppf t =
    if t.name = "" then Format.fprintf ppf "%d" t.n
    else Format.fprintf ppf "%s=%d" t.name t.n
end

module Log_histogram = struct
  type t = {
    lo : float;
    growth : float;
    inv_log_growth : float;
    counts : int array;
    mutable underflow : int;
    mutable overflow : int;
    mutable n : int;
    mutable total : float;
    mutable min : float;
    mutable max : float;
  }

  let default_lo = 1e-9
  let default_growth = 1.05
  let default_buckets = 640

  let create ?(lo = default_lo) ?(growth = default_growth)
      ?(buckets = default_buckets) () =
    if not (lo > 0.0) then invalid_arg "Log_histogram.create: lo";
    if not (growth > 1.0) then invalid_arg "Log_histogram.create: growth";
    if buckets <= 0 then invalid_arg "Log_histogram.create: buckets";
    {
      lo;
      growth;
      inv_log_growth = 1.0 /. log growth;
      counts = Array.make buckets 0;
      underflow = 0;
      overflow = 0;
      n = 0;
      total = 0.0;
      min = Float.infinity;
      max = Float.neg_infinity;
    }

  let buckets t = Array.length t.counts

  (* Bucket [i] covers [lo*growth^i, lo*growth^(i+1)).  [-1] is the
     underflow range (everything below [lo], including non-positive
     values) and [buckets] the overflow range. *)
  let bucket_index t x =
    if not (x >= t.lo) then -1
    else begin
      let i = int_of_float (Float.floor (log (x /. t.lo) *. t.inv_log_growth)) in
      (* Float.floor(log ...) can land one bucket off right at a
         boundary; nudge so [bucket_bounds] stays authoritative. *)
      let nb = Array.length t.counts in
      let i = Stdlib.max 0 (Stdlib.min nb i) in
      let lo_i = t.lo *. (t.growth ** float_of_int i) in
      let i = if x < lo_i then i - 1 else i in
      let i =
        if i < nb && x >= t.lo *. (t.growth ** float_of_int (i + 1)) then i + 1
        else i
      in
      Stdlib.min nb i
    end

  let bucket_bounds t i =
    if i < 0 || i >= Array.length t.counts then
      invalid_arg "Log_histogram.bucket_bounds";
    ( t.lo *. (t.growth ** float_of_int i),
      t.lo *. (t.growth ** float_of_int (i + 1)) )

  let add t x =
    t.n <- t.n + 1;
    t.total <- t.total +. x;
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    let i = bucket_index t x in
    if i < 0 then t.underflow <- t.underflow + 1
    else if i >= Array.length t.counts then t.overflow <- t.overflow + 1
    else t.counts.(i) <- t.counts.(i) + 1

  let count t = t.n
  let total t = t.total
  let min t = t.min
  let max t = t.max
  let mean t = if t.n = 0 then 0.0 else t.total /. float_of_int t.n
  let underflow t = t.underflow
  let overflow t = t.overflow

  let percentile t p =
    if t.n = 0 then invalid_arg "Log_histogram.percentile: empty";
    if p < 0.0 || p > 100.0 then invalid_arg "Log_histogram.percentile: range";
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
        if rank <= !seen then begin
          let blo, bhi = bucket_bounds t !i in
          result := Some (clamp (sqrt (blo *. bhi)))
        end;
        incr i
      done;
      match !result with Some v -> v | None -> t.max
    end

  let merge dst src =
    if
      dst.lo <> src.lo || dst.growth <> src.growth
      || Array.length dst.counts <> Array.length src.counts
    then invalid_arg "Log_histogram.merge: geometry mismatch";
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

  let pp ppf t =
    if t.n = 0 then Format.fprintf ppf "(empty)"
    else
      Format.fprintf ppf "n=%d mean=%.6g min=%.6g max=%.6g p50=%.6g p99=%.6g"
        t.n (mean t) t.min t.max (percentile t 50.0) (percentile t 99.0)
end

module Summary = struct
  (* Exact Welford moments; everything else (count, min, max, total and
     the percentile buckets) lives in the histogram. *)
  type t = { mutable mean : float; mutable m2 : float; hist : Log_histogram.t }

  let create () = { mean = 0.0; m2 = 0.0; hist = Log_histogram.create () }

  let add t x =
    Log_histogram.add t.hist x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int (Log_histogram.count t.hist));
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = Log_histogram.count t.hist
  let mean t = t.mean

  let variance t =
    let n = count t in
    if n < 2 then 0.0 else t.m2 /. float_of_int n

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
        t.mean (stddev t) (min t) (max t)
end
