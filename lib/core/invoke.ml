(* Settle the calling thread at a node where the object at [addr] is
   usable, migrating along the forwarding chain ({!Runtime.chase} supplies
   hop budgeting, the bounce to the home node and dangling detection).
   Every node left behind goes on the thread's chase path, so §3.3
   compression repairs its descriptor once the object is found.  A
   [Read]-mode chase also settles on a node holding a read replica of a
   mutable object; any other mode chases a replica's master hint.
   Returns the number of migrations taken and whether the thread settled
   on a replica rather than the master. *)
let chase_to_object rt ts ~what ~mode ~addr ~payload =
  let c = Runtime.cost rt in
  let moved = ref 0 in
  let _, via_replica =
    Runtime.chase ~read:(mode = San_hooks.Read) ~path:ts.Runtime.chase_path rt
      ~what ~addr ~start:(Runtime.current_node rt) ~step:(fun ~node ->
        if node <> Runtime.current_node rt then begin
          Sim.Fiber.consume c.Cost_model.trap_cpu;
          ts.Runtime.carry_bytes <- payload;
          Runtime.migrate_self rt ~payload ~dest:node ();
          ts.Runtime.carry_bytes <- 0;
          incr moved
        end;
        Descriptor.get (Runtime.descriptors rt node) addr)
  in
  (!moved, via_replica)

let settle rt ts (obj : 'a Aobject.t) ~mode ~payload =
  chase_to_object rt ts ~what:"Invoke" ~mode ~addr:obj.Aobject.addr ~payload

let emit_access rt obj mode =
  Runtime.with_san rt (fun h ->
      h
        (San_hooks.Event.Access
           { tid = San_hooks.self_tid (); addr = obj.Aobject.addr; mode }))

let emit_access_end rt obj =
  Runtime.with_san rt (fun h ->
      h
        (San_hooks.Event.Access_end
           { tid = San_hooks.self_tid (); addr = obj.Aobject.addr }))

let invoke rt ?(payload = 0) ?(return_payload = 0) ?(mode = San_hooks.Atomic)
    obj op =
  (* An object whose only copy died with a fail-stop node fails crisply
     before any frame is pushed or packet sent. *)
  Aobject.check_lost obj;
  let ts = Runtime.current rt in
  let c = Runtime.cost rt in
  let ctrs = Runtime.counters rt in
  (* §3.5: the frame is pushed before the check so that a concurrent move
     sees this thread as bound to the object. *)
  ts.Runtime.frames <-
    { Runtime.fobj = Aobject.Any obj; fmode = mode } :: ts.Runtime.frames;
  (* Span opens optimistically as local; once settling resolves where the
     call actually ran it is reclassified (remote / replica-served). *)
  let spans = Runtime.spans rt in
  let sp =
    Sim.Span.start spans Sim.Span.Invoke_local ~label:obj.Aobject.name
      ~obj:obj.Aobject.addr ()
  in
  let entered_at = Runtime.now rt in
  (* Where the call was issued from — captured before settling migrates
     the thread, so the balancer's window counters attribute the
     invocation to the caller's node, not the object's. *)
  let origin = Runtime.current_node rt in
  Sim.Fiber.consume c.Cost_model.invoke_entry_cpu;
  (* Write/Atomic on a replicated mutable object: reach the master, then
     run the invalidation round; the round blocks (one acked RPC per
     replica), so the master may move meanwhile — re-settle and re-check
     until the thread sits at the master with an empty replica set. *)
  let writes = mode <> San_hooks.Read && not obj.Aobject.immutable_ in
  let rec settle_quiesced acc =
    let hops, via_replica = settle rt ts obj ~mode ~payload in
    if (not via_replica) && writes && obj.Aobject.replicas <> [] then begin
      Coherence.invalidate rt obj;
      settle_quiesced (acc + hops)
    end
    else (acc + hops, via_replica)
  in
  let hops, via_replica =
    try settle_quiesced 0
    with e ->
      (* The invocation never started (e.g. dangling reference): unwind
         the frame we pushed before re-raising. *)
      (match ts.Runtime.frames with
      | _ :: rest -> ts.Runtime.frames <- rest
      | [] -> ());
      Sim.Span.finish spans sp;
      raise e
  in
  if via_replica then Sim.Span.set_kind spans sp Sim.Span.Replica_read
  else if hops > 0 then Sim.Span.set_kind spans sp Sim.Span.Invoke_remote;
  Sim.Span.set_arg spans sp hops;
  (* The thread now sits at the master with an empty replica set.  Mark
     the write as in progress: [Coherence.install] refuses to capture a
     snapshot while [writers] is non-zero, because a capture taken while
     [op] runs (it may suspend mid-mutation) would ship a torn state.
     The epoch is bumped only once [op] completes, below, so a capture
     that slips in around the operation still carries the pre-write epoch
     and is rejected at delivery. *)
  if writes then obj.Aobject.writers <- obj.Aobject.writers + 1;
  if hops = 0 then
    ctrs.Runtime.local_invocations <- ctrs.Runtime.local_invocations + 1
  else begin
    ctrs.Runtime.remote_invocations <- ctrs.Runtime.remote_invocations + 1;
    Sim.Stats.Summary.add
      (Runtime.remote_invoke_latency rt)
      (Runtime.now rt -. entered_at)
  end;
  Aobject.record_call obj ~origin ~local:(hops = 0);
  if mode = San_hooks.Read then Aobject.record_read obj;
  let return_path () =
    Sim.Fiber.consume c.Cost_model.invoke_return_cpu;
    (match ts.Runtime.frames with
    | _ :: rest -> ts.Runtime.frames <- rest
    | [] -> assert false);
    (* Return-time check (§3.5): the object we are returning into may have
       moved while we executed here. *)
    match ts.Runtime.frames with
    | [] -> ()
    | enclosing :: _ ->
      let encl_addr =
        match enclosing.Runtime.fobj with Aobject.Any o -> o.Aobject.addr
      in
      (* Same chase as settling, so the return trip also records its path
         and compresses the chain it walked.  The enclosing frame's own
         access mode applies: a Read frame may return to a replica. *)
      ignore
        (chase_to_object rt ts ~what:"Invoke.return"
           ~mode:enclosing.Runtime.fmode ~addr:encl_addr
           ~payload:return_payload
          : int * bool)
  in
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
        Runtime.with_san rt (fun h ->
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
  (* The write is complete (or abandoned with whatever mutation it made):
     bump the epoch {e now}, so any replica snapshot captured before or
     during [op] is stale by the epoch check — delivery discards in-flight
     ones, and Audit/AmberSan flag any that already landed. *)
  let complete_write () =
    if writes then begin
      obj.Aobject.writers <- obj.Aobject.writers - 1;
      obj.Aobject.epoch <- obj.Aobject.epoch + 1
    end
  in
  (* The span is finished in a [finally]: if the return trip itself
     raises (the enclosing frame's object became dangling while [op]
     ran), the exception must not leave an open span on the profiler's
     stack.  [complete_write]/[Access_end] run before the return
     chase in both outcomes, exactly as before, so the write guard is
     balanced even when the thread cannot make it home. *)
  Fun.protect
    ~finally:(fun () -> Sim.Span.finish spans sp)
    (fun () ->
      match op view with
      | result ->
        complete_write ();
        emit_access_end rt obj;
        return_path ();
        result
      | exception e ->
        complete_write ();
        emit_access_end rt obj;
        return_path ();
        raise e)

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
  Fun.protect
    ~finally:(fun () ->
      emit_access_end rt obj)
    (fun () -> op obj.Aobject.state)
