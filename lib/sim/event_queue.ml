(* An indexed binary heap over parallel arrays.  Heap position [i] holds
   the entry with timestamp [times.(i)], insertion number [seqs.(i)] and
   value [values.(slots.(i))].  [add] writes each value once into a free
   slot of [values], unless the slot holds it already; sifting then moves
   only unboxed floats and ints, so it allocates nothing and never runs
   the write barrier.

   [slots] is a permutation of [0, capacity): positions [0, size) name the
   live entries' slots and positions [size, capacity) the free ones, so
   the free list needs no storage of its own.  A popped value stays in its
   slot until an [add] reuses the slot, so the queue keeps at most its
   capacity of values reachable. *)
type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable slots : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let initial_capacity = 64

let create () =
  {
    times = Float.Array.create 0;
    seqs = [||];
    slots = [||];
    values = [||];
    size = 0;
    next_seq = 0;
  }

(* Called on a full queue; [witness] fills the new value slots until
   [add] writes them. *)
let grow q witness =
  let cap = Array.length q.slots in
  let cap' = max initial_capacity (2 * cap) in
  let times = Float.Array.create cap' in
  Float.Array.blit q.times 0 times 0 cap;
  let seqs = Array.make cap' 0 in
  Array.blit q.seqs 0 seqs 0 cap;
  let slots = Array.init cap' Fun.id in
  Array.blit q.slots 0 slots 0 cap;
  let values = Array.make cap' witness in
  Array.blit q.values 0 values 0 cap;
  q.times <- times;
  q.seqs <- seqs;
  q.slots <- slots;
  q.values <- values

(* The sift loops below index only positions below [size], which never
   exceeds the arrays' common length. *)

let add q ~time value =
  if Float.is_nan time then invalid_arg "Event_queue.add: NaN time";
  if q.size = Array.length q.slots then grow q value;
  let times = q.times and seqs = q.seqs and slots = q.slots in
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let slot = Array.unsafe_get slots q.size in
  (* The free slot taken is the one the latest pop parked, so a record
     re-armed by the event it fired finds itself there: storing it again
     would only pay the write barrier. *)
  if Array.unsafe_get q.values slot != value then q.values.(slot) <- value;
  (* Sift the hole at the new last position up.  [seq] is larger than
     every queued one, so the new entry precedes a parent only on a
     strictly earlier time. *)
  let i = ref q.size in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    if time < Float.Array.unsafe_get times parent then begin
      Float.Array.unsafe_set times !i (Float.Array.unsafe_get times parent);
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set slots !i (Array.unsafe_get slots parent);
      i := parent
    end
    else moving := false
  done;
  Float.Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot;
  q.size <- q.size + 1

let check_nonempty q =
  if q.size = 0 then invalid_arg "Event_queue: empty queue"

let min_time q =
  check_nonempty q;
  Float.Array.unsafe_get q.times 0

let min_value q =
  check_nonempty q;
  Array.unsafe_get q.values (Array.unsafe_get q.slots 0)

let pop_min q =
  check_nonempty q;
  let times = q.times and seqs = q.seqs and slots = q.slots in
  let top = Array.unsafe_get slots 0 in
  let size = q.size - 1 in
  q.size <- size;
  if size > 0 then begin
    (* Lift the last entry out, park the popped slot in the freed
       position, and sift the hole at the root down. *)
    let time = Float.Array.unsafe_get times size in
    let seq = Array.unsafe_get seqs size in
    let slot = Array.unsafe_get slots size in
    Array.unsafe_set slots size top;
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= size then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < size then begin
            let tl = Float.Array.unsafe_get times l
            and tr = Float.Array.unsafe_get times r in
            if
              tr < tl
              || (tr = tl && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
            then r
            else l
          end
          else l
        in
        let tc = Float.Array.unsafe_get times c in
        if tc < time || (tc = time && Array.unsafe_get seqs c < seq) then begin
          Float.Array.unsafe_set times !i tc;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set slots !i (Array.unsafe_get slots c);
          i := c
        end
        else moving := false
      end
    done;
    Float.Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i slot
  end;
  Array.unsafe_get q.values top

let pop q =
  if q.size = 0 then None
  else
    let time = min_time q in
    Some (time, pop_min q)

let is_empty q = q.size = 0
let length q = q.size

let clear q =
  q.times <- Float.Array.create 0;
  q.seqs <- [||];
  q.slots <- [||];
  q.values <- [||];
  q.size <- 0

let times q = q.times

let value_at q i =
  if i < 0 || i >= q.size then invalid_arg "Event_queue.value_at";
  Array.unsafe_get q.values (Array.unsafe_get q.slots i)
