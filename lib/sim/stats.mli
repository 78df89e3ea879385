(** Streaming statistics accumulators, used by the runtime, the serving
    layer and the benchmark harness to summarize latencies.  There is one
    percentile estimator, {!Log_histogram}; {!Summary} adds exact
    moments on top of it. *)

(** Named monotonic event counter — the unit of protocol accounting used
    by the RPC reliability layer (retries, timeouts, suppressed
    duplicates) and surfaced through [Stats_report]. *)
module Counter : sig
  type t

  val create : ?name:string -> unit -> t
  val incr : t -> unit

  (** Raises [Invalid_argument] on a negative increment. *)
  val add : t -> int -> unit

  val value : t -> int
  val name : t -> string
  val reset : t -> unit
  val pp : Format.formatter -> t -> unit
end

(** Exact log-bucketed histogram: bucket [i] covers
    [\[lo*growth^i, lo*growth^(i+1))], so percentile queries carry a
    bounded {e relative} error (half a bucket, ~2.5% at the default 5%
    growth) at fixed memory, with no sampling and no randomness: results are
    an exact function of the multiset of added values, independent of
    add order.  Count, total, mean, min
    and max are exact.  Non-positive and sub-[lo] values land in an
    underflow counter (reported as [min]); values beyond the last bucket
    in overflow (reported as [max]). *)
module Log_histogram : sig
  type t

  val default_lo : float
  val default_growth : float
  val default_buckets : int

  val create : ?lo:float -> ?growth:float -> ?buckets:int -> unit -> t
  (** Defaults span ~1ns to ~3.6e4 s of latency-shaped data in 640
      buckets (5KiB).  Raises [Invalid_argument] on [lo <= 0],
      [growth <= 1] or [buckets <= 0]. *)

  val add : t -> float -> unit
  val count : t -> int
  val total : t -> float
  val mean : t -> float
  val min : t -> float
  val max : t -> float
  val underflow : t -> int
  val overflow : t -> int
  val buckets : t -> int

  val bucket_index : t -> float -> int
  (** [-1] for underflow, [buckets t] for overflow; always consistent
      with [bucket_bounds] ([bucket_bounds t i = (blo, bhi)] implies
      values in [\[blo, bhi)] index to [i]). *)

  val bucket_bounds : t -> int -> float * float
  (** [(lo, hi)] bounds of bucket [i]. *)

  val percentile : t -> float -> float
  (** Nearest-rank percentile, [p] in [\[0, 100\]]: the geometric
      midpoint of the bucket holding the rank, clamped into the exact
      observed [\[min, max\]] (so single-sample and single-bucket
      histograms report exactly).  Raises [Invalid_argument] when empty
      or [p] out of range. *)

  val merge : t -> t -> unit
  (** [merge dst src] adds [src]'s counts into [dst].  Raises
      [Invalid_argument] unless both share the same geometry. *)

  val clear : t -> unit
  val pp : Format.formatter -> t -> unit
end

(** Streaming latency summary: exact Welford mean and variance over a
    {!Log_histogram}, which supplies count, min, max, total and the
    percentiles.

    Count, mean, variance, min, max and total are exact.  Percentiles
    carry the histogram's bounded relative error (at most half a bucket,
    ~2.5%); a summary of one repeated value reports it exactly.  Memory
    is fixed (640 buckets) whatever the sample count, and results depend
    only on the multiset of added values.  Values below 1 ns, including
    zero and negatives, share the underflow bucket and report as the
    exact minimum. *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float

  (** Population variance; 0 for fewer than 2 samples. *)
  val variance : t -> float

  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val total : t -> float

  (** [percentile t p] with [p] in [\[0, 100\]]: {!Log_histogram.percentile}
      of the added samples.  Raises [Invalid_argument] on an empty summary
      or out-of-range [p]. *)
  val percentile : t -> float -> float

  val pp : Format.formatter -> t -> unit
end
