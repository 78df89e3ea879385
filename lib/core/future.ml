(* Futures over the invocation fabric (Amber-Async).

   [invoke_async] runs an ordinary [Invoke.invoke] — full semantics:
   frame, chase, coherence, sanitizer hooks — on a helper thread, and
   returns immediately with a first-class future.  The issuer keeps
   computing; [await] parks its fiber until the invocation's outcome has
   landed back on the future's home node.

   Resolution visibility is physical, not teleported: a helper that
   finishes on another node ships a small "future-notify" datagram (the
   outcome tag plus a marshalled scalar, [Cost_model.future_notify_bytes])
   back to the home node, and the future only becomes observable there
   when that datagram lands.  A helper that finishes at home resolves in
   place with no wire traffic.

   Causality: the helper's whole execution sits under an [Async_invoke]
   span parented to the issuer's open span and marked [async] — causally
   linked but overlapping the issuer's continued compute.  [await] opens
   a [Future_wait] span whose [arg] names that span, so the critical-path
   analyzer charges the awaiting path only with the un-overlapped
   remainder of the async work. *)

type 'a outcome = ('a, exn) result

type 'a t = {
  id : int;
  home : int;  (* node where the future was created and is awaited *)
  mutable state : 'a outcome option;
  mutable waiters : (unit -> unit) list;  (* parked awaiters, LIFO *)
  mutable span : int;  (* the helper's Async_invoke span, 0 until it runs *)
}

let notify_kind = Hw.Packet.Kind.v "future-notify"
let id f = f.id
let is_resolved f = f.state <> None
let peek f = f.state

let invoke_async rt ?(payload = 0) ?(return_payload = 0)
    ?(mode = San_hooks.Atomic) obj op =
  let ctrs = Runtime.counters rt in
  ctrs.Runtime.async_invocations <- ctrs.Runtime.async_invocations + 1;
  let id = ctrs.Runtime.async_invocations in
  let fut =
    {
      id;
      home = Runtime.current_node rt;
      state = None;
      waiters = [];
      span = 0;
    }
  in
  let spans = Runtime.spans rt in
  let issuer_span = Sim.Span.current spans in
  (* Publishing the outcome and waking awaiters always happens at the
     future's home node — either directly (helper finished there) or
     from the notify datagram's delivery callback. *)
  let publish outcome () =
    fut.state <- Some outcome;
    let ws = List.rev fut.waiters in
    fut.waiters <- [];
    List.iter (fun wake -> wake ()) ws
  in
  let helper () =
    let sp =
      Sim.Span.start spans Sim.Span.Async_invoke ~label:obj.Aobject.name
        ~obj:obj.Aobject.addr ~arg:id ~async:true ~parent:issuer_span ()
    in
    fut.span <- sp;
    let outcome =
      match Invoke.invoke rt ~payload ~return_payload ~mode obj op with
      | v -> Ok v
      | exception e -> Error e
    in
    (* The invocation's effects are in place; publish the resolution.
       The happens-before edge recorded here (helper clock at resolve)
       joins into every awaiter that observes it. *)
    Runtime.with_san rt (fun h ->
        h (San_hooks.Event.Future_resolve { tid = San_hooks.self_tid (); id }));
    let here = Runtime.current_node rt in
    if here = fut.home then publish outcome ()
    else begin
      ctrs.Runtime.future_notifies <- ctrs.Runtime.future_notifies + 1;
      (* If the notify's sender node fail-stops with the datagram un-acked
         (or the home dies — in which case nobody is left to observe), the
         awaiter still learns the helper's fate: crash detection resolves
         the future with the death instead of leaving it parked forever. *)
      Topaz.Rpc.send_reliable (Runtime.rpc rt)
        ~on_dead:(fun e -> if fut.state = None then publish (Error e) ())
        ~src:here ~dst:fut.home
        ~size:(Runtime.cost rt).Cost_model.future_notify_bytes
        ~kind:notify_kind (publish outcome)
    end;
    Sim.Span.finish spans sp
  in
  let th = Athread.start rt ~name:(Printf.sprintf "async-%d" id) helper in
  (* A helper killed by a fail-stop crash never reaches its publish;
     resolve the future with the failure so [await] raises [Node_dead]
     rather than hanging.  Organic failures are caught inside [helper]
     and publish normally, so this hook only ever fires for kills. *)
  Hw.Machine.on_finish (Athread.tcb th) (fun outcome ->
      match outcome with
      | Sim.Fiber.Failed e
        when fut.state = None && Hw.Machine.was_killed (Athread.tcb th) ->
        publish (Error e) ()
      | _ -> ());
  fut

let await rt fut =
  let spans = Runtime.spans rt in
  (* Probing the future cell is a lock-fast-path-sized operation. *)
  Sim.Fiber.consume (Runtime.cost rt).Cost_model.lock_fast_cpu;
  (match fut.state with
  | Some _ -> ()
  | None ->
    let wsp =
      Sim.Span.start spans Sim.Span.Future_wait
        ~label:(Printf.sprintf "future-%d" fut.id) ()
    in
    Sim.Fiber.block (fun wake -> fut.waiters <- wake :: fut.waiters);
    (* Now that the helper has run, its span id is known: point the wait
       at it so the critical-path analyzer can descend. *)
    Sim.Span.set_arg spans wsp fut.span;
    Sim.Span.finish spans wsp);
  Runtime.with_san rt (fun h ->
      h
        (San_hooks.Event.Future_await
           { tid = San_hooks.self_tid (); id = fut.id }));
  match fut.state with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> assert false

(* Await every future — a failed one does not abort the sweep, so every
   async invocation is observed — then surface the first failure (by
   list position), or all results in order. *)
let await_all rt futs =
  let outcomes =
    List.map
      (fun f -> match await rt f with v -> Ok v | exception e -> Error e)
      futs
  in
  List.map (function Ok v -> v | Error e -> raise e) outcomes
