(* A table picks its bucket from the low bits of the hash, and the low
   bits of a product depend only on the low bits of the factors.  Folding
   the product's high half onto its low half lets every address bit
   reach the bucket index. *)
let hash a =
  let h = a * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 32)) land max_int

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = hash
end)
