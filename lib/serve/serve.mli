(** Amber-Serve: open-loop traffic serving with per-class SLOs, admission
    control and backpressure.

    A run drives a seeded {!Trafficgen} arrival schedule against a farm
    of service objects spread round-robin over the cluster, through
    per-node worker pools fed by the RPC server pools.  Optional
    admission control (token bucket + queue-depth cutoff, one controller
    per node, installed via [Topaz.Rpc.set_admission]) sheds overload as
    typed [Amber.Overload.Overloaded] rejections that flow back to the
    generator — shed load, not hangs.  Per-class latency percentiles,
    goodput and reject rate are reported through a gated ["serve"]
    report section; admitted requests carry class-tagged
    [Serve_request] spans, so an attached profiler breaks service time
    down per class for free.

    Determinism: one [Sim.Rng.split] off the engine stream at {!run}
    entry is the only global-stream interaction; a run without serving
    draws nothing, registers nothing, and its report stays
    byte-identical.  Composes with replication ([replicate]), the
    balancer, crash injection (stranded requests resolve as failures at
    the drain deadline), fault injection and the sanitizer. *)

module Trafficgen = Trafficgen
module Admission = Admission

type admission_cfg = {
  admit_rate : float;
      (** aggregate per-node token rate (req/s), split across classes by
          mix weight; [0.0] derives ~1.05x the node's nominal service
          capacity *)
  admit_burst : float;  (** per-class bucket capacity, tokens *)
  cutoff : int;  (** per-node admitted-but-unfinished request cutoff *)
}

val default_admission : admission_cfg

type cfg = {
  arrival : Trafficgen.arrival;
  duration : float;  (** generator window, virtual seconds *)
  keys : int;  (** service objects (key [k] homes on node [k mod nodes]) *)
  skew : float;  (** Zipf exponent over the keyspace *)
  mix : Trafficgen.mix;
  workers_per_node : int;
  replicate : bool;  (** replicate every service object on every node *)
  admission : admission_cfg option;  (** [None]: admit everything *)
}
(** Service costs and message sizes are constants: a read, write and
    compute request cost 4, 12 and 40 ms of service CPU, a request
    carries 128 bytes and its completion notice 64.  A run waits 2
    virtual seconds after [duration] for stragglers and counts whatever
    is still unresolved then as failed. *)

val default_cfg : cfg

val validate : cfg -> unit
(** Raise [Invalid_argument] naming the first rule [cfg] breaks: a
    positive, finite arrival rate and duration; a positive key count and
    worker count; a finite burst factor of at least 1 and positive phase
    means; a non-negative skew; finite, non-negative class weights, not
    all zero; and, with admission, a non-negative token rate (0 derives
    it), a positive bucket and a positive cutoff.  {!run} checks these
    first. *)

val capacity_rps : cfg -> nodes:int -> float
(** Nominal service capacity of the cluster, requests/second — the knob
    benches and the CLI use to dial moderate vs 2x-overload rates. *)

type class_stats = {
  cls : Trafficgen.cls;
  mutable issued : int;
  mutable rejected : int;  (** shed by admission control *)
  mutable completed : int;
  mutable failed : int;  (** lost to a crash or the drain deadline *)
  latency : Sim.Stats.Summary.t;  (** completed requests, issue to notice *)
}

type result = {
  per_class : class_stats list;
  issued : int;
  completed : int;
  rejected : int;
  failed : int;
  duration : float;
  elapsed : float;  (** first issue to drain end *)
  goodput_rps : float;  (** completions per second of [duration] *)
  reject_frac : float;  (** rejected / issued *)
  latency : Sim.Stats.Summary.t;  (** all completed requests *)
  sample_rejection : exn option;
      (** first shed request's typed [Overloaded], for tests and logs *)
}

val run : Amber.Runtime.t -> cfg -> result
(** Run one serving session.  Must be called from the main Amber thread;
    returns after the drain deadline with every issued request accounted
    for (completed + rejected + failed = issued). *)

val report_lines :
  class_stats list ->
  goodput:float ->
  reject_frac:float ->
  failed:int ->
  unit ->
  string list
(** The lines of the ["serve"] report section. *)
