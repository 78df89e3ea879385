(* One visit of a thread's settle or return chase: trap and fly to
   [node], then read [node]'s descriptor of the top frame's object, which
   is the object both chases look for.  Each thread builds this closure
   once ({!Athread}), and it finds the payload in the thread's
   [carry_bytes].  The trap comes before the payload is packed: a flight
   that interrupts it (a switch-in check, a steal) carries none.  A visit
   away from the thread counts one move in [chase_moves]. *)
let chase_step rt ts ~node =
  if node <> Runtime.current_node rt then begin
    let payload = ts.Runtime.carry_bytes in
    ts.Runtime.carry_bytes <- 0;
    Sim.Fiber.consume (Runtime.cost rt).Cost_model.trap_cpu;
    ts.Runtime.carry_bytes <- payload;
    Runtime.migrate_self rt ~payload ~dest:node ();
    ts.Runtime.chase_moves <- ts.Runtime.chase_moves + 1
  end;
  match ts.Runtime.frames with
  | top :: _ ->
    Descriptor.get (Runtime.descriptors rt node)
      (Aobject.addr_of_any top.Runtime.fobj)
  | [] -> assert false

(* Settle the calling thread at a node where the object at [addr], its
   top frame's, is usable, migrating along the forwarding chain
   ({!Runtime.chase} supplies hop budgeting, the bounce to the home node
   and dangling detection).  Every node left behind goes on the thread's
   chase path, so §3.3 compression repairs its descriptor once the object
   is found.  A [Read]-mode chase also settles on a node holding a read
   replica of a mutable object; any other mode chases a replica's master
   hint.  Returns whether the thread settled on a replica rather than the
   master; the thread's [chase_moves] count its moves. *)
let chase_to_object rt ts ~what ~mode ~addr ~payload =
  ts.Runtime.carry_bytes <- payload;
  match
    Runtime.chase rt ~read:(mode = San_hooks.Read) ~path:ts.Runtime.chase_path
      ~what ~addr ~start:(Runtime.current_node rt) ~step:ts.Runtime.chase_step
  with
  | found ->
    ts.Runtime.carry_bytes <- 0;
    found < 0
  | exception e ->
    ts.Runtime.carry_bytes <- 0;
    raise e

(* The sanitizer sees an access only when one is attached; without one
   no event and no closure is built. *)
let emit_access rt obj mode =
  match Runtime.sanitizer rt with
  | None -> ()
  | Some h ->
    h
      (San_hooks.Event.Access
         { tid = San_hooks.self_tid (); addr = obj.Aobject.addr; mode })

let emit_access_end rt obj =
  match Runtime.sanitizer rt with
  | None -> ()
  | Some h ->
    h
      (San_hooks.Event.Access_end
         { tid = San_hooks.self_tid (); addr = obj.Aobject.addr })

(* Pop the call's frame, then make the return-time check (§3.5): the
   object we are returning into may have moved while we executed here.
   It is the same chase as settling, so the return trip also records its
   path and compresses the chain it walked.  The enclosing frame's own
   access mode applies: a Read frame may return to a replica. *)
let return_path rt ts ~return_payload =
  Sim.Fiber.consume (Runtime.cost rt).Cost_model.invoke_return_cpu;
  (match ts.Runtime.frames with
  | _ :: rest -> ts.Runtime.frames <- rest
  | [] -> assert false);
  match ts.Runtime.frames with
  | [] -> ()
  | enclosing :: _ ->
    ignore
      (chase_to_object rt ts ~what:"Invoke.return" ~mode:enclosing.Runtime.fmode
         ~addr:(Aobject.addr_of_any enclosing.Runtime.fobj)
         ~payload:return_payload
        : bool)

(* The call is over, returned or raised.  The write is complete (or
   abandoned with whatever mutation it made): bump the epoch {e now}, so
   any replica snapshot captured before or during the operation is stale
   by the epoch check — delivery discards in-flight ones, and
   Audit/AmberSan flag any that already landed.  The write guard and
   [Access_end] come before the return chase, so the guard is balanced
   even when the thread cannot make it home. *)
let end_call rt ts obj ~writes ~return_payload =
  if writes then begin
    obj.Aobject.writers <- obj.Aobject.writers - 1;
    obj.Aobject.epoch <- obj.Aobject.epoch + 1
  end;
  emit_access_end rt obj;
  return_path rt ts ~return_payload

let invoke rt ?(payload = 0) ?(return_payload = 0) ?(mode = San_hooks.Atomic)
    obj op =
  (* An object whose only copy died with a fail-stop node fails crisply
     before any frame is pushed or packet sent. *)
  Aobject.check_lost obj;
  let ts = Runtime.current rt in
  let ctrs = Runtime.counters rt in
  (* §3.5: the frame is pushed before the check so that a concurrent move
     sees this thread as bound to the object. *)
  ts.Runtime.frames <-
    { Runtime.fobj = Aobject.Any obj; fmode = mode } :: ts.Runtime.frames;
  (* Span opens optimistically as local; once settling resolves where the
     call actually ran it is reclassified (remote / replica-served). *)
  let spans = Runtime.spans rt in
  let sp =
    if Sim.Span.enabled spans then
      Sim.Span.start spans Sim.Span.Invoke_local ~label:obj.Aobject.name
        ~obj:obj.Aobject.addr ()
    else 0
  in
  let clock = Runtime.clock rt in
  let entered_at = clock.Sim.Engine.now in
  (* Where the call was issued from — captured before settling migrates
     the thread, so the balancer's window counters attribute the
     invocation to the caller's node, not the object's. *)
  let origin = Runtime.current_node rt in
  Sim.Fiber.consume (Runtime.cost rt).Cost_model.invoke_entry_cpu;
  (* Write/Atomic on a replicated mutable object: reach the master, then
     run the invalidation round; the round blocks (one acked RPC per
     replica), so the master may move meanwhile — re-settle and re-check
     until the thread sits at the master with an empty replica set. *)
  let writes = mode <> San_hooks.Read && not obj.Aobject.immutable_ in
  let hops = ref 0 and via_replica = ref false and settled = ref false in
  (match
     while not !settled do
       let moves = ts.Runtime.chase_moves in
       let v =
         chase_to_object rt ts ~what:"Invoke" ~mode ~addr:obj.Aobject.addr
           ~payload
       in
       hops := !hops + (ts.Runtime.chase_moves - moves);
       if (not v) && writes && obj.Aobject.replicas <> [] then
         Coherence.invalidate rt obj
       else begin
         via_replica := v;
         settled := true
       end
     done
   with
  | () -> ()
  | exception e ->
    (* The invocation never started (e.g. dangling reference): unwind
       the frame we pushed before re-raising. *)
    (match ts.Runtime.frames with
    | _ :: rest -> ts.Runtime.frames <- rest
    | [] -> ());
    Sim.Span.finish spans sp;
    raise e);
  let hops = !hops and via_replica = !via_replica in
  if via_replica then Sim.Span.set_kind spans sp Sim.Span.Replica_read
  else if hops > 0 then Sim.Span.set_kind spans sp Sim.Span.Invoke_remote;
  Sim.Span.set_arg spans sp hops;
  (* The thread now sits at the master with an empty replica set.  Mark
     the write as in progress: [Coherence.install] refuses to capture a
     snapshot while [writers] is non-zero, because a capture taken while
     [op] runs (it may suspend mid-mutation) would ship a torn state.
     The epoch is bumped only once [op] completes ({!end_call}), so a
     capture that slips in around the operation still carries the
     pre-write epoch and is rejected at delivery. *)
  if writes then obj.Aobject.writers <- obj.Aobject.writers + 1;
  if hops = 0 then
    ctrs.Runtime.local_invocations <- ctrs.Runtime.local_invocations + 1
  else begin
    ctrs.Runtime.remote_invocations <- ctrs.Runtime.remote_invocations + 1;
    Sim.Stats.Summary.add
      (Runtime.remote_invoke_latency rt)
      (clock.Sim.Engine.now -. entered_at)
  end;
  Aobject.record_call obj ~origin ~local:(hops = 0);
  (* A Read settled on a replica runs against the local snapshot — served
     as installed, without consulting the master, which is exactly what
     makes a protocol bug (an unacknowledged invalidation) observable as
     a stale read.  The sanitizer cross-checks via [Replica_read]. *)
  let view =
    if via_replica then begin
      let node = Runtime.current_node rt in
      match Aobject.snapshot obj ~node with
      | Some (ep, v) ->
        ctrs.Runtime.replica_reads <- ctrs.Runtime.replica_reads + 1;
        (match Runtime.sanitizer rt with
        | None -> ()
        | Some h ->
          h
            (San_hooks.Event.Replica_read
               {
                 tid = San_hooks.self_tid ();
                 addr = obj.Aobject.addr;
                 node;
                 epoch = ep;
               }));
        v
      | None ->
        (* Descriptor said replica but the snapshot is gone (sabotaged
           state): degrade to the master's representation. *)
        obj.Aobject.state
    end
    else obj.Aobject.state
  in
  emit_access rt obj mode;
  (* The span is finished on every exit: if the return trip itself raises
     (the enclosing frame's object became dangling while [op] ran), the
     exception must not leave an open span on the profiler's stack. *)
  match
    match op view with
    | result ->
      end_call rt ts obj ~writes ~return_payload;
      result
    | exception e ->
      end_call rt ts obj ~writes ~return_payload;
      raise e
  with
  | result ->
    Sim.Span.finish spans sp;
    result
  | exception e ->
    Sim.Span.finish spans sp;
    raise e

let executing_within rt obj =
  match Runtime.current_opt rt with
  | None -> false
  | Some ts ->
    List.exists
      (fun f ->
        match f.Runtime.fobj with
        | Aobject.Any o -> o.Aobject.addr = obj.Aobject.addr)
      ts.Runtime.frames

let invoke_member rt ?(mode = San_hooks.Atomic) obj op =
  Aobject.check_lost obj;
  let ts = Runtime.current rt in
  let guaranteed =
    match ts.Runtime.frames with
    | [] -> false
    | top :: _ ->
      (* Walk to the attachment root of the executing frame, then check
         membership of the whole closure. *)
      let rec root (Aobject.Any o as node) =
        match o.Aobject.parent with None -> node | Some p -> root p
      in
      List.exists
        (fun (Aobject.Any o) -> o.Aobject.addr = obj.Aobject.addr)
        (Aobject.attachment_closure (root top.Runtime.fobj))
  in
  if not guaranteed then
    invalid_arg
      "Invoke.invoke_member: co-residency is not guaranteed (the object is \
       not attached to the executing frame's closure)";
  Sim.Fiber.consume (Runtime.cost rt).Cost_model.lock_fast_cpu;
  emit_access rt obj mode;
  match op obj.Aobject.state with
  | result ->
    emit_access_end rt obj;
    result
  | exception e ->
    emit_access_end rt obj;
    raise e
