(** Red/Black Successive Over-Relaxation — the numerical core shared by
    the sequential, Amber, and Ivy implementations (paper §6).

    The problem: steady-state temperature over a rectangular plate with
    fixed boundary temperatures, governed by Laplace's equation.  The grid
    is updated checkerboard-style: all red points (r+c even), then all
    black points.  Updates within one color are independent, so any
    execution order gives bit-identical results — which is what lets the
    tests require exact agreement between the three implementations. *)

type params = {
  rows : int;  (** interior rows (the paper's experiment: 122) *)
  cols : int;  (** interior columns (the paper's experiment: 842) *)
  omega : float;  (** over-relaxation factor *)
  top : float;  (** boundary temperature along the top edge *)
  bottom : float;
  left : float;
  right : float;
  point_cpu : float;
      (** simulated CPU seconds to update one point (CVAX-era flops) *)
}

(** The paper's 122×842 grid with a 100-degree top edge. *)
val default : params

val with_size : params -> rows:int -> cols:int -> params

(** Interior points ([rows * cols]). *)
val interior_points : params -> int

type color = Red | Black

val color_of : r:int -> c:int -> color

(** The largest absolute change a {!relax_block} call has seen, folded
    across calls.  An all-float record, so storing into it allocates
    nothing. *)
type acc = { mutable max_change : float }

(** [relax_block cells ~stride ~omega ~col0 color ~r_from ~r_to ~c_from
    ~c_to acc] updates, in place, every point of [color] in rows
    [r_from..r_to] and columns [c_from..c_to] of a row-major grid with a
    ghost ring: [cells] holds [Array.length cells / stride] rows of
    [stride] cells, and rows [1 .. length/stride - 2] and columns
    [1 .. stride - 2] are the interior.  Local column [c] is global column
    [col0 + c - 1], which fixes its color ({!color_of}).

    Each point becomes [old +. omega *. (avg -. old)], where [avg] is
    [(((left +. right) +. up) +. down) *. 0.25], bit-identical to dividing
    by 4.  The largest [abs (new -. old)] is folded into
    [acc.max_change]; the result is the number of points updated.

    Points of one color read only points of the other, so splitting a
    color's block into pieces and relaxing them in any order gives the
    same cells and the same largest change.

    An empty range updates nothing and returns 0.
    @raise Invalid_argument before touching any cell if the block is
    non-empty and leaves the interior. *)
val relax_block :
  float array ->
  stride:int ->
  omega:float ->
  col0:int ->
  color ->
  r_from:int ->
  r_to:int ->
  c_from:int ->
  c_to:int ->
  acc ->
  int

(** A full grid including the boundary ring: [(rows+2) × (cols+2)],
    row-major.  Interior coordinates are 1-based. *)
module Full_grid : sig
  type t

  val create : params -> t
  val get : t -> r:int -> c:int -> float
  val set : t -> r:int -> c:int -> float -> unit

  (** Update every interior point of [color]; returns the maximum absolute
      change. *)
  val sweep : t -> params -> color -> float

  (** One red+black iteration; returns the max change over both sweeps. *)
  val iterate : t -> params -> float

  (** Sum of interior values — a cheap fingerprint for comparing
      implementations. *)
  val checksum : t -> float

  (** Copy of the interior as a [rows*cols] row-major array. *)
  val interior : t -> float array
end

(** Pure host-side reference solution (no simulation):
    [reference params ~iters] runs [iters] iterations and returns the
    grid. *)
val reference : params -> iters:int -> Full_grid.t

(** Iterations needed until the max change drops below [eps] (capped at
    [max_iters]). *)
val iterations_to_converge :
  params -> eps:float -> max_iters:int -> int * Full_grid.t
