type 'a entry = { time : float; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let initial_capacity = 64

let create () = { heap = [||]; size = 0; next_seq = 0 }

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow q needed =
  let cap = max initial_capacity (max needed (2 * Array.length q.heap)) in
  if cap > Array.length q.heap then begin
    match q.heap with
    | [||] ->
      (* Delay allocation until we have a witness element. *)
      ()
    | heap ->
      let bigger = Array.make cap heap.(0) in
      Array.blit heap 0 bigger 0 q.size;
      q.heap <- bigger
  end

let rec sift_up heap i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier heap.(i) heap.(parent) then begin
      let tmp = heap.(i) in
      heap.(i) <- heap.(parent);
      heap.(parent) <- tmp;
      sift_up heap parent
    end
  end

let rec sift_down heap size i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < size && earlier heap.(l) heap.(i) then l else i in
  let smallest =
    if r < size && earlier heap.(r) heap.(smallest) then r else smallest
  in
  if smallest <> i then begin
    let tmp = heap.(i) in
    heap.(i) <- heap.(smallest);
    heap.(smallest) <- tmp;
    sift_down heap size smallest
  end

let add q ~time value =
  if Float.is_nan time then invalid_arg "Event_queue.add: NaN time";
  let entry = { time; seq = q.next_seq; value } in
  q.next_seq <- q.next_seq + 1;
  if q.size >= Array.length q.heap then begin
    if Array.length q.heap = 0 then q.heap <- Array.make initial_capacity entry
    else grow q (q.size + 1)
  end;
  q.heap.(q.size) <- entry;
  q.size <- q.size + 1;
  sift_up q.heap (q.size - 1)

let top q =
  if q.size = 0 then invalid_arg "Event_queue: empty queue";
  q.heap.(0)

let min_time q = (top q).time
let min_value q = (top q).value

let pop_min q =
  let e = top q in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    q.heap.(0) <- q.heap.(q.size);
    sift_down q.heap q.size 0
  end;
  (* Overwrite the vacated slot so it does not pin the entry that was
     moved to the root; the popped value is returned anyway. *)
  q.heap.(q.size) <- e;
  e.value

let pop q =
  if q.size = 0 then None
  else
    let time = min_time q in
    Some (time, pop_min q)

let is_empty q = q.size = 0
let length q = q.size

let clear q =
  q.heap <- [||];
  q.size <- 0

let fold q ~init ~f =
  let acc = ref init in
  for i = 0 to q.size - 1 do
    let e = q.heap.(i) in
    acc := f !acc e.time e.value
  done;
  !acc
