(** Seeded open-loop traffic generation: Poisson and bursty (on/off
    Markov-modulated) arrival processes over a Zipf-skewed keyspace with
    a mixed read/write/compute class distribution.

    Pure with respect to the simulation: generation touches only the
    [Sim.Rng.t] it is handed — no virtual time, no events — so arrival
    schedules are bit-reproducible per seed and testable without a
    cluster. *)

type cls = Read | Write | Compute

val cls_name : cls -> string
val all_classes : cls list

(** Relative class weights; {!stream} normalizes them. *)
type mix = { read : float; write : float; compute : float }

val default_mix : mix
(** 70% read / 20% write / 10% compute. *)

val weight : mix -> cls -> float
val normalize : mix -> mix

type arrival =
  | Poisson of float  (** mean arrival rate, requests per virtual second *)
  | Bursty of {
      rate : float;  (** base (off-phase) Poisson rate *)
      factor : float;  (** on-phase rate multiplier, [>= 1] *)
      on_mean : float;  (** mean on-phase length, seconds *)
      off_mean : float;  (** mean off-phase length, seconds *)
    }
      (** Markov-modulated Poisson: alternating exponential on/off phases
          (starting on), arrival rate [rate *. factor] while on and
          [rate] while off. *)

val mean_rate : arrival -> float
(** Long-run mean arrival rate of the process. *)

type request = { at : float; cls : cls; key : int }

val stream :
  rng:Sim.Rng.t ->
  arrival:arrival ->
  mix:mix ->
  keys:int ->
  skew:float ->
  duration:float ->
  request Seq.t
(** The arrival schedule over [\[0, duration)], in time order, drawn from
    [rng] as the sequence is forced.  Keys follow Zipf([skew]) over
    [\[0, keys)]: [P(k)] proportional to [1/(k+1)^skew], uniform at
    [skew = 0].  Per request the rng draw order is fixed (gap, class,
    key), so the requests are a pure function of the rng state.  Because
    forcing draws, traverse the sequence once.  The arguments are not
    checked here; [Serve.validate] holds the rules. *)

val generate :
  rng:Sim.Rng.t ->
  arrival:arrival ->
  mix:mix ->
  keys:int ->
  skew:float ->
  duration:float ->
  request list
(** The whole of {!stream}, as a list. *)

val to_string : request list -> string
(** Canonical rendering (one request per line), for determinism
    digests. *)
