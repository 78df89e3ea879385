type outcome = Completed | Failed of exn

type resumption = { resume : unit -> paused; abort : exn -> paused }

and paused =
  | Done of outcome
  | Consumed of float * resumption
  | Blocked of ((unit -> unit) -> unit) * resumption
  | Yielded of resumption

open Effect.Deep

(* [Consume] carries no payload: {!consume} leaves its duration in
   [duration], an all-float record (so the write boxes nothing), and the
   handler reads it back before any other fiber can run. *)
type _ Effect.t +=
  | Consume : unit Effect.t
  | Block : ((unit -> unit) -> unit) -> unit Effect.t
  | Yield : unit Effect.t

type duration = { mutable dt : float }

let duration = { dt = 0.0 }

(* The executor's offer to account for a consume without a pause; see
   {!set_in_place}.  Arming and disarming write the immediate [armed];
   the hook itself is stored only when a different one is installed, so
   an executor that installs the same hook event after event pays no
   write barrier. *)
type in_place = { mutable armed : bool; mutable hook : float -> bool }

let in_place = { armed = false; hook = (fun _ -> false) }

let set_in_place f =
  if in_place.hook != f then in_place.hook <- f;
  in_place.armed <- true

let clear_in_place () = in_place.armed <- false

let consume dt =
  if Float.is_nan dt || dt < 0.0 then
    invalid_arg "Fiber.consume: negative or NaN duration";
  if dt > 0.0 && not (in_place.armed && in_place.hook dt) then begin
    duration.dt <- dt;
    Effect.perform Consume
  end

let block register = Effect.perform (Block register)
let yield () = Effect.perform Yield

(* A continuation that has already been continued: a fiber's slot holds
   it until the first pause. *)
let spent : (unit, paused) continuation =
  let captured : (unit, paused) continuation option ref = ref None in
  ignore
    (match_with Effect.perform Yield
       {
         retc = (fun () -> Done Completed);
         exnc = (fun e -> Done (Failed e));
         effc =
           (fun (type a) (eff : a Effect.t) ->
             match eff with
             | Yield ->
               Some
                 (fun (k : (a, paused) continuation) ->
                   captured := Some k;
                   continue k ())
             | _ -> None);
       }
      : paused);
  Option.get !captured

(* [register] holds a [Block]'s argument from the effect's match to its
   handler, which reads it before any other fiber can run. *)
type fiber = {
  mutable latest : (unit, paused) continuation;
  mutable register : (unit -> unit) -> unit;
}

let no_register (_ : unit -> unit) = ()

(* Continuing leaves the slot as it is: OCaml's continuations are
   one-shot, so the runtime empties the one continued, and continuing it
   again raises [Effect.Continuation_already_resumed].  That check guards a
   resumption without a store of its own.  The exception can only come
   from the continue itself: one raised inside the fiber reaches its
   [exnc] first. *)
let no_pause () = invalid_arg "Fiber: no pause to resume"

(* One resumption and one set of handlers per fiber: a pause stores its
   continuation in [latest], and the resumption continues whichever
   continuation that is. *)
let start body =
  let f = { latest = spent; register = no_register } in
  let r =
    {
      resume =
        (fun () ->
          match continue f.latest () with
          | p -> p
          | exception Effect.Continuation_already_resumed -> no_pause ());
      abort =
        (fun e ->
          match discontinue f.latest e with
          | p -> p
          | exception Effect.Continuation_already_resumed -> no_pause ());
    }
  in
  let on_consume =
    Some
      (fun k ->
        f.latest <- k;
        Consumed (duration.dt, r))
  in
  let on_yield =
    Some
      (fun k ->
        f.latest <- k;
        Yielded r)
  in
  let on_block =
    Some
      (fun k ->
        f.latest <- k;
        let register = f.register in
        f.register <- no_register;
        Blocked (register, r))
  in
  match_with body ()
    {
      retc = (fun () -> Done Completed);
      exnc = (fun e -> Done (Failed e));
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, paused) continuation -> paused) option ->
          match eff with
          | Consume -> on_consume
          | Yield -> on_yield
          | Block register ->
            f.register <- register;
            on_block
          | _ -> None);
    }
