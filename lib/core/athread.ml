type 'r t = {
  ts : Runtime.tstate;
  result : 'r option ref;
  rt : Runtime.t;
}

exception Join_error of { thread : string; tid : int; reason : string }

exception
  Join_failed of { thread : string; tid : int; index : int; error : exn }

let () =
  Printexc.register_printer (function
    | Join_error { thread; tid; reason } ->
      Some
        (Printf.sprintf "Athread.Join_error(thread %s#%d: %s)" thread tid
           reason)
    | Join_failed { thread; tid; index; error } ->
      Some
        (Printf.sprintf "Athread.Join_failed(thread %s#%d at index %d: %s)"
           thread tid index (Printexc.to_string error))
    | _ -> None)

(* Size of a thread object plus its runtime stack in the global address
   space (the paper reserves a distinct segment per thread, §3.1). *)
let thread_segment_bytes = 8192

let join_notify_kind = Hw.Packet.Kind.v "join-notify"

let start_on rt ~node ?(name = "thread") ?priority body =
  let result = ref None in
  let body_wrapped () =
    let r = body () in
    result := Some r
  in
  (* Allocate the thread segment before the child exists: an allocation
     that grows the heap blocks on an address-space-server RPC, and a
     child spawned first would run unregistered meanwhile. *)
  let taddr = Vaspace.Heap.alloc (Runtime.heap rt node) thread_segment_bytes in
  Descriptor.set_resident (Runtime.descriptors rt node) taddr;
  let tcb =
    Hw.Machine.spawn (Runtime.machine rt node) ~name ?priority body_wrapped
  in
  let rec ts =
    {
      Runtime.tcb;
      taddr;
      frames = [];
      carry_bytes = 0;
      migrations = 0;
      chase_path = ref [];
      chase_step = (fun ~node -> Invoke.chase_step rt ts ~node);
      chase_moves = 0;
      result_box = None;
    }
  in
  Runtime.register_thread rt ts;
  Runtime.with_san rt (fun h ->
      h
        (San_hooks.Event.Thread_start
           { parent = San_hooks.self_tid (); child = Hw.Machine.tcb_id tcb }));
  Runtime.install_resume_check rt ts;
  Hw.Machine.on_finish tcb (fun _ -> Runtime.unregister_thread rt ts);
  let ctrs = Runtime.counters rt in
  ctrs.Runtime.threads_started <- ctrs.Runtime.threads_started + 1;
  { ts; result; rt }

let start rt ?(name = "thread") ?priority body =
  let c = Runtime.cost rt in
  (* Creating + scheduling the thread object is work done by the parent. *)
  Sim.Fiber.consume c.Cost_model.thread_create_cpu;
  start_on rt ~node:(Runtime.current_node rt) ~name ?priority body

let start_invoke rt ?(name = "thread") ?(payload = 0) obj op =
  start rt ~name (fun () -> Invoke.invoke rt ~payload obj op)

let join rt t =
  let c = Runtime.cost rt in
  (* The span's [arg] names the joined thread, which lets the critical-path
     analyzer descend into the joined timeline instead of booking the whole
     wait as queueing. *)
  Sim.Span.with_span (Runtime.spans rt) Sim.Span.Join_wait
    ~label:(Hw.Machine.tcb_name t.ts.Runtime.tcb)
    ~arg:(Hw.Machine.tcb_id t.ts.Runtime.tcb)
  @@ fun () ->
  Sim.Fiber.consume c.Cost_model.thread_join_cpu;
  (* Join is an operation on the thread object (§3.4): locate it first —
     a thread that migrated leaves a forwarding chain, making Join on a
     travelled thread more expensive (the trade-off the paper states).  A
     thread killed by a fail-stop crash has no thread object left to
     locate (its address is registered lost); the outcome lives on the
     surviving tcb, so the locate is skipped — and one that dies while
     the locate is already chasing surfaces the same way. *)
  (try
     if not (Hw.Machine.was_killed t.ts.Runtime.tcb) then
       ignore (Runtime.resolve_location rt ~addr:t.ts.Runtime.taddr : int)
   with Aobject.Object_lost _ when Hw.Machine.was_killed t.ts.Runtime.tcb ->
     ());
  let outcome = Topaz.Kthread.join t.ts.Runtime.tcb in
  (* If the thread finished on another node, the completion notification
     crosses the network — unless it was killed there: a corpse sends
     nothing, and the joiner already holds the outcome via the crash
     detector. *)
  let finished_on = Hw.Machine.id (Hw.Machine.home t.ts.Runtime.tcb) in
  let here = Runtime.current_node rt in
  if finished_on <> here && not (Hw.Machine.was_killed t.ts.Runtime.tcb) then
    Sim.Fiber.block (fun wake ->
        (* Reliable: a lost completion notification must not hang Join. *)
        Topaz.Rpc.send_reliable (Runtime.rpc rt) ~src:finished_on ~dst:here
          ~size:64 ~kind:join_notify_kind wake);
  Runtime.with_san rt (fun h ->
      h
        (San_hooks.Event.Thread_join
           {
             parent = San_hooks.self_tid ();
             child = Hw.Machine.tcb_id t.ts.Runtime.tcb;
           }));
  match outcome with
  | Sim.Fiber.Completed -> (
    match !(t.result) with
    | Some r -> r
    | None ->
      (* A completed fiber whose result slot is empty means the body was
         unwound without either producing a value or recording a failure
         (e.g. an exception swallowed by lower-level machinery).  Surface
         a typed error naming the thread instead of a bare [Failure]. *)
      raise
        (Join_error
           {
             thread = Hw.Machine.tcb_name t.ts.Runtime.tcb;
             tid = Hw.Machine.tcb_id t.ts.Runtime.tcb;
             reason = "thread finished without a result";
           }))
  | Sim.Fiber.Failed e ->
    (* The failure is handled here; it must not re-surface when the
       cluster checks for unhandled thread failures. *)
    Hw.Machine.forget_failures t.ts.Runtime.tcb;
    raise e

let parallel rt ?(name = "par") bodies =
  let threads =
    List.mapi
      (fun i body -> start rt ~name:(Printf.sprintf "%s-%d" name i) body)
      bodies
  in
  List.map (fun t -> join rt t) threads

(* Unlike a naive [List.map (join rt)], a failed thread must not abort
   the sweep mid-list: every sibling is still joined (so none is left
   running and unobserved), and the error that surfaces names exactly
   which thread failed and where it sat in the list. *)
let join_all rt threads =
  let outcomes =
    List.mapi
      (fun index t ->
        match join rt t with
        | r -> Ok r
        | exception e ->
          Error
            (Join_failed
               {
                 thread = Hw.Machine.tcb_name t.ts.Runtime.tcb;
                 tid = Hw.Machine.tcb_id t.ts.Runtime.tcb;
                 index;
                 error = e;
               }))
      threads
  in
  List.map
    (fun o -> match o with Ok r -> r | Error e -> raise e)
    outcomes

let result_exn t =
  match !(t.result) with
  | Some r -> r
  | None ->
    raise
      (Join_error
         {
           thread = Hw.Machine.tcb_name t.ts.Runtime.tcb;
           tid = Hw.Machine.tcb_id t.ts.Runtime.tcb;
           reason = "thread has no result";
         })

let tcb t = t.ts.Runtime.tcb
let tstate t = t.ts
let node t = Hw.Machine.id (Hw.Machine.home t.ts.Runtime.tcb)

let is_finished t =
  match Hw.Machine.state t.ts.Runtime.tcb with
  | Hw.Machine.Finished _ -> true
  | Hw.Machine.Ready | Hw.Machine.Running _ | Hw.Machine.Blocked -> false

let migrations t = t.ts.Runtime.migrations
let set_priority t p = Hw.Machine.set_priority t.ts.Runtime.tcb p
