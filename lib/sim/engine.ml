(* An event is its own handle: [event_id] is this record, so [cancel] and
   [is_pending] are one field access.  A cancelled event (under a chooser,
   a fired one too) stays in the heap with [live = false] until it reaches
   the top and is reaped.  The event's time is its queue entry's, which
   the queue keeps unboxed.  Under a chooser an event may fire "late"
   (after the clock has been advanced past it by another branch of the
   exploration); the clock never moves backwards. *)
type event = {
  mutable id : int;
  key : Choice.key;
  label : string Lazy.t option;
      (* forced only when a schedule is written; [None] reads [ev<id>] *)
  mutable live : bool;
  (* [true] from [add] until the entry leaves the heap: a record only
     [rearm] may reuse, and only once it is out. *)
  mutable queued : bool;
  thunk : unit -> unit;
}

type event_id = event

(* All floats, so OCaml stores the record flat: advancing the clock or
   setting the horizon writes a float in place, with no box and no write
   barrier. *)
type clock = { mutable now : float; mutable until : float }

type t = {
  queue : event Event_queue.t;
  clock : clock;
  mutable next_id : int;
  mutable executed : int;
  root_rng : Rng.t;
  (* Controlled nondeterminism (see {!Choice}): [None] in normal
     operation — every decision point takes its single normal answer and
     this field costs one dead branch per step. *)
  mutable chooser : Choice.t option;
  (* [clock.until] is [run]'s [until] (infinity without one) while it
     drains the queue with no chooser, and [neg_infinity] otherwise: no
     event completes in place past it. *)
  mutable in_place : int;
  (* The chooser step's scratch: the live entries' heap positions and
     ids, sorted by (time, id).  Grown when the queue outgrows them. *)
  mutable live_pos : int array;
  mutable live_ids : int array;
}

let create ?(seed = 0x5EEDL) () =
  {
    queue = Event_queue.create ();
    clock = { now = 0.0; until = Float.neg_infinity };
    next_id = 0;
    executed = 0;
    root_rng = Rng.make seed;
    chooser = None;
    in_place = 0;
    live_pos = [||];
    live_ids = [||];
  }

let now t = t.clock.now
let clock t = t.clock
let rng t = t.root_rng
let set_chooser t c = t.chooser <- c
let chooser t = t.chooser
let chooser_active t = t.chooser <> None

let note_access t k =
  match t.chooser with None -> () | Some c -> c.Choice.note_access k

let schedule_at t ?(key = Choice.unknown) ?label ~time thunk =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time";
  let now = t.clock.now in
  let time =
    if time >= now then time
    else if t.chooser <> None then
      (* A replayed schedule may have run the scheduling event later than
         its nominal timestamp; absolute-time follow-ups land "now". *)
      now
    else
      invalid_arg
        (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time
           now)
  in
  let id = t.next_id in
  t.next_id <- id + 1;
  let ev = { id; key; label; live = true; queued = true; thunk } in
  Event_queue.add t.queue ~time ev;
  ev

let check_delay delay =
  if Float.is_nan delay || delay < 0.0 then
    invalid_arg "Engine.schedule: negative or NaN delay"

let schedule t ?key ?label ~delay thunk =
  check_delay delay;
  schedule_at t ?key ?label ~time:(t.clock.now +. delay) thunk

let idle_event thunk =
  {
    id = -1;
    key = Choice.unknown;
    label = None;
    live = false;
    queued = false;
    thunk;
  }

(* A record out of the queue is armed again in place, with the id a fresh
   one would get.  One still queued, even dead, keeps its heap entry, and
   re-arming it would revive that entry at its old time: it gets a fresh
   record instead. *)
let rearm t ev ~delay =
  if ev.queued then schedule t ~key:ev.key ?label:ev.label ~delay ev.thunk
  else begin
    check_delay delay;
    let id = t.next_id in
    t.next_id <- id + 1;
    ev.id <- id;
    ev.live <- true;
    ev.queued <- true;
    Event_queue.add t.queue ~time:(t.clock.now +. delay) ev;
    ev
  end

(* The event that would end at [time] is the next one [run] pops, so
   its thunk may run now, inside the current event, with the clock, its
   id and the executed count advanced as if it had been scheduled and
   popped.  The queue's own insertion numbers only break ties among
   queued entries, so skipping one changes no order.  A queued entry at
   [time] was inserted earlier and goes first; a dead one is counted
   too, as [run]'s horizon test counts it.  Under a chooser [run] steps
   instead and leaves the horizon at [neg_infinity]. *)
let[@inline] advance_in_place t ~time =
  time <= t.clock.until
  && (Event_queue.is_empty t.queue
     || time < Float.Array.unsafe_get (Event_queue.times t.queue) 0)
  && begin
       t.clock.now <- time;
       t.next_id <- t.next_id + 1;
       t.executed <- t.executed + 1;
       t.in_place <- t.in_place + 1;
       true
     end

let cancel _ ev = ev.live <- false
let is_pending _ ev = ev.live

(* [time] is the time of [ev]'s queue entry, which [run] and [step] have
   popped and [checked_step] leaves queued. *)
let[@inline] fire t ~time ev =
  if time > t.clock.now then t.clock.now <- time;
  ev.live <- false;
  t.executed <- t.executed + 1;
  ev.thunk ()

let[@inline] pop t =
  let ev = Event_queue.pop_min t.queue in
  ev.queued <- false;
  ev

(* Chooser-driven step: any pending event may fire next, not just the
   earliest — the chooser explores relative orderings of deliveries and
   timers that the timestamps of one particular run would fix.  Fired
   events are marked dead in place, so the heap holds them until they
   reach the top: reap those first.  One pass then insertion-sorts the
   live entries' positions by (time, id) into the engine's scratch
   arrays, which allocates nothing.  Most decisions leave one live
   event, which fires at once; only a real choice builds candidates. *)
let candidate ev =
  {
    Choice.dom = Choice.Event;
    ident = Choice.Event_id ev.id;
    key = ev.key;
    label =
      (match ev.label with
      | Some label -> label
      | None -> lazy ("ev" ^ string_of_int ev.id));
  }

let checked_step (c : Choice.t) t =
  let q = t.queue in
  while (not (Event_queue.is_empty q)) && not (Event_queue.min_value q).live do
    ignore (pop t : event)
  done;
  let n = Event_queue.length q in
  if Array.length t.live_pos < n then begin
    t.live_pos <- Array.make (2 * n) 0;
    t.live_ids <- Array.make (2 * n) 0
  end;
  let times = Event_queue.times q and pos = t.live_pos and ids = t.live_ids in
  let live = ref 0 in
  for i = 0 to n - 1 do
    let ev = Event_queue.value_at q i in
    if ev.live then begin
      let time = Float.Array.get times i in
      let k = ref !live in
      while
        !k > 0
        &&
        let tk = Float.Array.get times pos.(!k - 1) in
        tk > time || (tk = time && ids.(!k - 1) > ev.id)
      do
        pos.(!k) <- pos.(!k - 1);
        ids.(!k) <- ids.(!k - 1);
        decr k
      done;
      pos.(!k) <- i;
      ids.(!k) <- ev.id;
      incr live
    end
  done;
  !live > 0
  && begin
       let chosen =
         if !live = 1 then pos.(0)
         else begin
           let cands =
             Array.make !live (candidate (Event_queue.value_at q pos.(0)))
           in
           for k = 1 to !live - 1 do
             cands.(k) <- candidate (Event_queue.value_at q pos.(k))
           done;
           (* [pick] reads the candidates only, so the positions hold. *)
           pos.(c.Choice.pick Choice.Event cands)
         end
       in
       let ev = Event_queue.value_at q chosen in
       fire t ~time:(Float.Array.get times chosen) ev;
       true
     end

let step t =
  match t.chooser with
  | Some c -> checked_step c t
  | None ->
    let rec loop q =
      if Event_queue.is_empty q then false
      else
        let time = Float.Array.unsafe_get (Event_queue.times q) 0 in
        let ev = pop t in
        if ev.live then begin
          fire t ~time ev;
          true
        end
        else loop q
    in
    loop t.queue

let run ?until t =
  let start = t.executed in
  (match t.chooser with
  | Some _ ->
    (* Under a chooser virtual timestamps no longer bound execution
       order, so a time horizon is meaningless: run to quiescence. *)
    while step t do
      ()
    done
  | None ->
    let horizon = match until with None -> Float.infinity | Some u -> u in
    t.clock.until <- horizon;
    let q = t.queue in
    (* The horizon is checked on every entry, dead ones included, so a
       cancelled event inside it cannot pull a live one from beyond.
       Each entry's time is read once. *)
    let draining = ref true in
    (match
       while !draining do
         if Event_queue.is_empty q then draining := false
         else
           let time = Float.Array.unsafe_get (Event_queue.times q) 0 in
           if time <= horizon then begin
             let ev = pop t in
             if ev.live then fire t ~time ev
           end
           else draining := false
       done
     with
    | () -> t.clock.until <- Float.neg_infinity
    | exception e ->
      t.clock.until <- Float.neg_infinity;
      raise e);
    (match until with
    | Some u when u > t.clock.now && Float.is_finite u -> t.clock.now <- u
    | Some _ | None -> ()));
  t.executed - start

let events_executed t = t.executed
let in_place_completions t = t.in_place
let pending t = Event_queue.length t.queue
