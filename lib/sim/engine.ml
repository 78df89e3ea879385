(* An event is its own handle: [event_id] is this record, so [cancel] and
   [is_pending] are one field access.  A cancelled event (under a chooser,
   a fired one too) stays in the heap with [live = false] until it reaches
   the top and is reaped. *)
type event = {
  id : int;
  time : float;
      (* nominal timestamp.  Under a chooser an event may fire "late"
         (after the clock has been advanced past it by another branch of
         the exploration); the clock never moves backwards. *)
  key : string;
  label : string;
  mutable live : bool;
  thunk : unit -> unit;
}

type event_id = event

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
}

let create ?(seed = 0x5EEDL) () =
  {
    queue = Event_queue.create ();
    clock = 0.0;
    next_id = 0;
    executed = 0;
    root_rng = Rng.make seed;
    chooser = None;
  }

let now t = t.clock
let rng t = t.root_rng
let set_chooser t c = t.chooser <- c
let chooser t = t.chooser
let chooser_active t = t.chooser <> None

let note_access t k =
  match t.chooser with None -> () | Some c -> c.Choice.note_access k

let schedule_at t ?(key = "") ?(label = "") ~time thunk =
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
  let ev = { id; time; key; label; live = true; thunk } in
  Event_queue.add t.queue ~time ev;
  ev

let schedule t ?key ?label ~delay thunk =
  if Float.is_nan delay || delay < 0.0 then
    invalid_arg "Engine.schedule: negative or NaN delay";
  schedule_at t ?key ?label ~time:(t.clock +. delay) thunk

let cancel _ ev = ev.live <- false
let is_pending _ ev = ev.live

let fire t ev =
  if ev.time > t.clock then t.clock <- ev.time;
  ev.live <- false;
  t.executed <- t.executed + 1;
  ev.thunk ()

(* Chooser-driven step: any pending event may fire next, not just the
   earliest — the chooser explores relative orderings of deliveries and
   timers that the timestamps of one particular run would fix.  Fired
   events are marked dead in place, so the heap holds them until they
   reach the top: reap those first, then list the live rest. *)
let checked_step (c : Choice.t) t =
  let q = t.queue in
  while (not (Event_queue.is_empty q)) && not (Event_queue.min_value q).live do
    ignore (Event_queue.pop_min q : event)
  done;
  let evs =
    Event_queue.fold q ~init:[] ~f:(fun acc _ ev ->
        if ev.live then ev :: acc else acc)
    |> List.sort (fun a b ->
           match Float.compare a.time b.time with
           | 0 -> Int.compare a.id b.id
           | n -> n)
  in
  match evs with
  | [] -> false
  | [ ev ] ->
    fire t ev;
    true
  | evs ->
    let arr = Array.of_list evs in
    let cands =
      Array.map
        (fun ev ->
          {
            Choice.dom = Choice.Event;
            ident = "e" ^ string_of_int ev.id;
            key = ev.key;
            label =
              (if ev.label = "" then lazy ("ev" ^ string_of_int ev.id)
               else Lazy.from_val ev.label);
          })
        arr
    in
    let idx = c.Choice.pick Choice.Event cands in
    fire t arr.(idx);
    true

let step t =
  match t.chooser with
  | Some c -> checked_step c t
  | None ->
    let rec loop q =
      if Event_queue.is_empty q then false
      else
        let ev = Event_queue.pop_min q in
        if ev.live then begin
          fire t ev;
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
    let q = t.queue in
    (* The horizon is checked on every entry, dead ones included, so a
       cancelled event inside it cannot pull a live one from beyond. *)
    while (not (Event_queue.is_empty q)) && Event_queue.min_time q <= horizon do
      let ev = Event_queue.pop_min q in
      if ev.live then fire t ev
    done;
    (match until with
    | Some u when u > t.clock && Float.is_finite u -> t.clock <- u
    | Some _ | None -> ()));
  t.executed - start

let events_executed t = t.executed
let pending t = Event_queue.length t.queue
