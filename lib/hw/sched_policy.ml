type 'a t = {
  name : string;
  enqueue : 'a -> unit;
  pop : unit -> 'a;
  remove : ('a -> bool) -> int;
  length : unit -> int;
}

let empty () = invalid_arg "Sched_policy.pop: empty queue"

(* A growable ring: [len] entries from [head], wrapping.  A free slot
   keeps an entry it held before (or the one the ring grew for), so the
   array needs no placeholder value.  Once the ring has grown, enqueue
   and pop allocate nothing and move no other entry, and [length] is a
   field read. *)
type 'a ring = { mutable buf : 'a array; mutable head : int; mutable len : int }

let fifo () =
  let r = { buf = [||]; head = 0; len = 0 } in
  let slot i =
    let j = r.head + i and cap = Array.length r.buf in
    if j >= cap then j - cap else j
  in
  let enqueue x =
    let cap = Array.length r.buf in
    if r.len = cap then begin
      let buf = Array.make (max 8 (2 * cap)) x in
      for i = 0 to r.len - 1 do
        buf.(i) <- r.buf.(slot i)
      done;
      r.buf <- buf;
      r.head <- 0
    end;
    (* A thread that cycles through a short queue finds itself in the
       slot: storing it again would only pay the write barrier. *)
    let i = slot r.len in
    if r.buf.(i) != x then r.buf.(i) <- x;
    r.len <- r.len + 1
  in
  let pop () =
    if r.len = 0 then empty ()
    else begin
      let x = r.buf.(r.head) in
      r.head <- slot 1;
      r.len <- r.len - 1;
      x
    end
  in
  (* Compact the kept entries towards the head, in order. *)
  let remove pred =
    let kept = ref 0 in
    for i = 0 to r.len - 1 do
      let x = r.buf.(slot i) in
      if not (pred x) then begin
        r.buf.(slot !kept) <- x;
        incr kept
      end
    done;
    let removed = r.len - !kept in
    r.len <- !kept;
    removed
  in
  let length () = r.len in
  { name = "fifo"; enqueue; pop; remove; length }

(* [lifo] and [by_priority] keep lists, simple enough to support
   mid-queue removal, which the machine model needs when a thread is
   destroyed or explicitly migrated while runnable. *)

let lifo () =
  let stack = ref [] in
  let enqueue x = stack := x :: !stack in
  let pop () =
    match !stack with
    | [] -> empty ()
    | x :: rest ->
      stack := rest;
      x
  in
  let remove pred =
    let before = List.length !stack in
    stack := List.filter (fun x -> not (pred x)) !stack;
    before - List.length !stack
  in
  let length () = List.length !stack in
  { name = "lifo"; enqueue; pop; remove; length }

let by_priority ~priority_of () =
  (* Sorted association list: highest priority first, FIFO among equals. *)
  let items = ref [] in
  let enqueue x =
    let p = priority_of x in
    let rec insert = function
      | [] -> [ (p, x) ]
      | (p', _) :: _ as rest when p > p' -> (p, x) :: rest
      | entry :: rest -> entry :: insert rest
    in
    items := insert !items
  in
  let pop () =
    match !items with
    | [] -> empty ()
    | (_, x) :: rest ->
      items := rest;
      x
  in
  let remove pred =
    let before = List.length !items in
    items := List.filter (fun (_, x) -> not (pred x)) !items;
    before - List.length !items
  in
  let length () = List.length !items in
  { name = "priority"; enqueue; pop; remove; length }
