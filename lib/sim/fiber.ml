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
   {!set_in_place}. *)
let never (_ : float) = false
let in_place = ref never
let set_in_place f = in_place := f
let clear_in_place () = in_place := never

let consume dt =
  if Float.is_nan dt || dt < 0.0 then
    invalid_arg "Fiber.consume: negative or NaN duration";
  if dt > 0.0 && not (!in_place dt) then begin
    duration.dt <- dt;
    Effect.perform Consume
  end

let block register = Effect.perform (Block register)
let yield () = Effect.perform Yield

(* The slot of a fiber with no pause pending: a continuation that has
   already been continued.  A fiber's slot holds it before the first
   pause and again from each resumption until the next pause. *)
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

let take f =
  let k = f.latest in
  if k == spent then invalid_arg "Fiber: no pause to resume";
  f.latest <- spent;
  k

(* One resumption and one set of handlers per fiber: a pause stores its
   continuation in [latest], and the resumption continues whichever
   continuation that is. *)
let start body =
  let f = { latest = spent; register = no_register } in
  let r =
    {
      resume = (fun () -> continue (take f) ());
      abort = (fun e -> discontinue (take f) e);
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
