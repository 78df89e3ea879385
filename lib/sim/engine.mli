(** Deterministic discrete-event simulation engine.

    The engine owns a virtual clock and a queue of timestamped events
    (thunks).  Running the engine repeatedly pops the earliest event,
    advances the clock to its timestamp, and executes it.  Events scheduled
    for the same instant run in scheduling order, which makes whole-system
    runs reproducible.

    All simulated state lives in a single OS thread; event thunks must not
    block the host.

    When a {!Choice.t} chooser is installed (see {!set_chooser}), "the
    earliest event" becomes a decision point instead: any pending event
    may be selected to fire next, the clock only ever moves forward, and
    [run]'s [until] horizon is ignored.  With no chooser the behaviour is
    bit-identical to an engine without the seam. *)

type t

(** A scheduled event, usable for cancellation.  The handle is the event
    record itself, not a key into a table: holding one keeps the event's
    thunk reachable until the handle is dropped. *)
type event_id

val create : ?seed:int64 -> unit -> t

(** Current virtual time, in seconds. *)
val now : t -> float

(** The clock, read in place: [now] is the virtual time and [until] the
    horizon of the running {!run} ([neg_infinity] outside one, and under
    a chooser).  The engine writes both without allocating, because a
    record whose fields are all floats is stored flat.  A function that
    returns a float returns it boxed unless the call is inlined, and
    dune's dev profile compiles with [-opaque], which inlines nothing
    across modules: so a module on the event path keeps this record and
    reads [(clock t).now] itself, where a call to {!now} would allocate
    a box per read. *)
type clock = private { mutable now : float; mutable until : float }

(** The engine's clock record; one per engine, for its whole life. *)
val clock : t -> clock

(** Root random state for this simulation (see {!Rng}). *)
val rng : t -> Rng.t

(** Install (or remove) a controlled-nondeterminism chooser.  Normal
    operation never installs one. *)
val set_chooser : t -> Choice.t option -> unit

val chooser : t -> Choice.t option
val chooser_active : t -> bool

(** Report a dynamic conflict key (object address, lock, descriptor,
    future id) touched by the currently-executing decision.  A no-op
    unless a chooser is installed. *)
val note_access : t -> Choice.key -> unit

(** [schedule t ~delay f] runs [f ()] at [now t +. delay].
    Raises [Invalid_argument] if [delay] is negative or NaN.
    [key] is the static conflict key a chooser reads
    ({!Choice.unknown}, the default, conflicts with everything).  [label] describes the event in a
    schedule file; it is forced only when a schedule is written, so a
    call site formats it inside [lazy].  Without one the file reads
    [ev<id>].  Both are dead weight when no chooser is installed. *)
val schedule :
  t ->
  ?key:Choice.key ->
  ?label:string Lazy.t ->
  delay:float ->
  (unit -> unit) ->
  event_id

(** [schedule_at t ~time f] runs [f ()] at absolute virtual time [time],
    which must not be in the past.  (Under a chooser, a past [time] is
    clamped to the current clock instead: replayed schedules may run the
    scheduling event later than its nominal timestamp.) *)
val schedule_at :
  t ->
  ?key:Choice.key ->
  ?label:string Lazy.t ->
  time:float ->
  (unit -> unit) ->
  event_id

(** An event record built once by its owner and scheduled again and
    again with {!rearm}: it fires [thunk], with the default key and no
    label.  It starts idle, never pending, and cancelling it is a
    no-op. *)
val idle_event : (unit -> unit) -> event_id

(** [rearm t ev ~delay] schedules [ev]'s thunk at [now t +. delay] under
    the id a fresh {!schedule} would take, so ids and
    {!events_executed} stay as they would be with fresh records.  When
    [ev] has left the queue (never scheduled, fired, or cancelled and
    reaped) it is armed again in place and returned: no record is
    built.  A record still in the queue, live or cancelled but not yet
    reaped, is never re-armed, since its entry would then fire at its
    old time: a fresh record with [ev]'s thunk, key and label is
    scheduled instead and returned.  So the owner keeps the handle it
    gets back.  Raises [Invalid_argument] as {!schedule} does. *)
val rearm : t -> event_id -> delay:float -> event_id

(** Cancel a pending event in constant time, by clearing its live flag;
    its queue entry is reaped when it reaches the front.  Cancelling an
    already-fired or already-cancelled event is a no-op. *)
val cancel : t -> event_id -> unit

(** [true] until the event fires or is cancelled.  Constant time. *)
val is_pending : t -> event_id -> bool

(** Run events until the queue is empty, or until [until] (if given) —
    events strictly after [until] remain queued and the clock is left at
    [until].  Returns the number of events executed.  Under a chooser,
    [until] is ignored and the engine runs to quiescence.

    An exception raised by an event thunk aborts the run and propagates;
    the clock stays at the failing event's timestamp. *)
val run : ?until:float -> t -> int

(** Execute exactly one event if one is pending.  Returns [false] when the
    queue is empty. *)
val step : t -> bool

(** [advance_in_place t ~time] is called from inside an event, by the
    executor of an event that it would otherwise schedule at [time] (not
    before [now t]).  When that event would be the next one {!run} fires
    — [run] is draining the queue with no chooser installed, [time] is
    at or before its [until], and strictly before every queued entry,
    dead ones included — it advances the clock to [time], counts the
    event as executed, spends its id and returns [true]: the caller then
    runs the event's work itself, in place.  Otherwise it changes nothing
    and returns [false], and the caller schedules the event.  Always
    [false] outside [run], so in a {!step} too, and under a chooser. *)
val advance_in_place : t -> time:float -> bool

(** Number of events executed so far, those completed in place included. *)
val events_executed : t -> int

(** How many of them {!advance_in_place} completed in place. *)
val in_place_completions : t -> int

(** Number of entries in the queue.  This counts dead entries not yet
    reaped as well as live events: cancelled ones, and under a chooser
    fired ones too, which stay queued until they reach the front. *)
val pending : t -> int
