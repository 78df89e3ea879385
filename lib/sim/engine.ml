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

(* A record whose only field is a float, which OCaml stores unboxed, so
   [run] sets it without allocating. *)
type horizon = { mutable until : float }

type t = {
  queue : event Event_queue.t;
  mutable clock : float;
  mutable next_id : int;
  mutable executed : int;
  root_rng : Rng.t;
  (* Controlled nondeterminism (see {!Choice}): [None] in normal
     operation — every decision point takes its single normal answer and
     this field costs one dead branch per step. *)
  mutable chooser : Choice.t option;
  (* [run]'s [until] (infinity without one) while it drains the queue
     with no chooser, and [neg_infinity] otherwise: no event completes in
     place past it. *)
  horizon : horizon;
  mutable in_place : int;
}

let create ?(seed = 0x5EEDL) () =
  {
    queue = Event_queue.create ();
    clock = 0.0;
    next_id = 0;
    executed = 0;
    root_rng = Rng.make seed;
    chooser = None;
    horizon = { until = Float.neg_infinity };
    in_place = 0;
  }

let now t = t.clock
let rng t = t.root_rng
let set_chooser t c = t.chooser <- c
let chooser t = t.chooser
let chooser_active t = t.chooser <> None

let note_access t k =
  match t.chooser with None -> () | Some c -> c.Choice.note_access k

let schedule_at t ?(key = Choice.unknown) ?label ~time thunk =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time";
  let time =
    if time >= t.clock then time
    else if t.chooser <> None then
      (* A replayed schedule may have run the scheduling event later than
         its nominal timestamp; absolute-time follow-ups land "now". *)
      t.clock
    else
      invalid_arg
        (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time
           t.clock)
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
  schedule_at t ?key ?label ~time:(t.clock +. delay) thunk

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
    Event_queue.add t.queue ~time:(t.clock +. delay) ev;
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
  time <= t.horizon.until
  && (Event_queue.is_empty t.queue || time < Event_queue.min_time t.queue)
  && begin
       t.clock <- time;
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
  if time > t.clock then t.clock <- time;
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
   reach the top: reap those first, then list the live rest, reading the
   time of live entries only. *)
let checked_step (c : Choice.t) t =
  let q = t.queue in
  while (not (Event_queue.is_empty q)) && not (Event_queue.min_value q).live do
    ignore (pop t : event)
  done;
  let evs = ref [] in
  for i = Event_queue.length q - 1 downto 0 do
    let ev = Event_queue.value_at q i in
    if ev.live then evs := (Event_queue.time_at q i, ev) :: !evs
  done;
  (* Sorted in place: a list sort would allocate each merge. *)
  let evs = Array.of_list !evs in
  Array.stable_sort
    (fun (ta, a) (tb, b) ->
      match Float.compare ta tb with 0 -> Int.compare a.id b.id | n -> n)
    evs;
  match evs with
  | [||] -> false
  | [| (time, ev) |] ->
    fire t ~time ev;
    true
  | evs ->
    let cands =
      Array.map
        (fun (_, ev) ->
          {
            Choice.dom = Choice.Event;
            ident = Choice.Event_id ev.id;
            key = ev.key;
            label =
              (match ev.label with
              | Some label -> label
              | None -> lazy ("ev" ^ string_of_int ev.id));
          })
        evs
    in
    let time, ev = evs.(c.Choice.pick Choice.Event cands) in
    fire t ~time ev;
    true

let step t =
  match t.chooser with
  | Some c -> checked_step c t
  | None ->
    let rec loop q =
      if Event_queue.is_empty q then false
      else
        let time = Event_queue.min_time q in
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
    t.horizon.until <- horizon;
    let q = t.queue in
    (* The horizon is checked on every entry, dead ones included, so a
       cancelled event inside it cannot pull a live one from beyond.
       Each entry's time is read once. *)
    let draining = ref true in
    (match
       while !draining do
         if Event_queue.is_empty q then draining := false
         else
           let time = Event_queue.min_time q in
           if time <= horizon then begin
             let ev = pop t in
             if ev.live then fire t ~time ev
           end
           else draining := false
       done
     with
    | () -> t.horizon.until <- Float.neg_infinity
    | exception e ->
      t.horizon.until <- Float.neg_infinity;
      raise e);
    (match until with
    | Some u when u > t.clock && Float.is_finite u -> t.clock <- u
    | Some _ | None -> ()));
  t.executed - start

let events_executed t = t.executed
let in_place_completions t = t.in_place
let pending t = Event_queue.length t.queue
