(** Deterministic, splittable pseudo-random number generator (SplitMix64).

    Every stochastic choice in the simulator draws from an [Rng.t] so that a
    whole-cluster simulation is reproducible from a single seed.  [split]
    derives an independent stream, used to give each node/component its own
    generator without cross-coupling event orders. *)

type t

val make : int64 -> t

(** Derive an independent child stream.  The parent advances by one draw. *)
val split : t -> t

(** Uniform in [\[0, 2^64)]. *)
val bits64 : t -> int64

(** Uniform integer in [\[0, bound)].  Raises [Invalid_argument] if
    [bound <= 0]. *)
val int : t -> int -> int

(** Uniform float in [\[0, 1)]. *)
val float : t -> float

(** Uniform float in [\[lo, hi)]. *)
val uniform : t -> lo:float -> hi:float -> float

(** Exponentially distributed with the given mean. *)
val exponential : t -> mean:float -> float

(** Fisher–Yates in-place shuffle. *)
val shuffle_in_place : t -> 'a array -> unit
