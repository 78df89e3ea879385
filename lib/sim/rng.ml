(* The 64-bit state lives in 8 bytes, which a draw reads and writes as
   a raw int64: a [mutable] int64 field would box every new state and
   pay the write barrier to store it. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let make seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let[@inline] bits64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix64 state

let split t =
  let seed = bits64 t in
  (* Re-mix with a distinct constant so child streams starting from nearby
     seeds do not overlap the parent's sequence. *)
  make (mix64 (Int64.logxor seed 0xA0761D6478BD642FL))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (bits64 t) mask) in
  v mod bound

let float t =
  (* 53 high-quality bits into the mantissa. *)
  let v = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float v /. 9007199254740992.0

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let exponential t ~mean =
  let u = float t in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-300 else u in
  -.mean *. log u

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
