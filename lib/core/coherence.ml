(* Write-invalidate read replicas for mutable objects.

   Protocol invariants, relied on by Invoke, Audit and AmberSan:

   - [obj.replicas] lists every node that holds (or has been granted and
     is about to hold) a read replica; the master's node is never listed.
     [obj.grants] mirrors it with the generation of each node's live
     grant (fresh from [obj.repl_gen] at capture time).
   - A node in [obj.replicas] with an installed copy holds a
     [Descriptor.Replica master] descriptor and a snapshot in
     [obj.rcopies] tagged with the epoch it was taken at.
   - [obj.epoch] is bumped at the master when a Write/Atomic invocation
     {e completes} (after the invalidation round and the user operation),
     so a snapshot is fresh iff its epoch equals the object's.  While the
     operation itself runs, [obj.writers] is non-zero and capture refuses
     to snapshot — a mid-write capture would ship a torn state that the
     epoch check alone cannot reject until the write finishes.
   - Snapshot capture and replica registration happen on the master's
     node with no suspension in between; the in-flight copy carries its
     grant generation and is re-validated at delivery: it is installed
     only if it still matches the node's live grant and no write
     intervened, and a {e stale} delivery deregisters the grant only when
     the generations match (reliable-mode datagrams are retransmitted
     independently, so a lost copy from a recalled grant can arrive after
     a successful re-grant to the same node — it must not tear down the
     newer grant's registration). *)

let copy_kind = Hw.Packet.Kind.v "repl-copy"
let ack_kind = Hw.Packet.Kind.v "repl-ack"
let req_kind = Hw.Packet.Kind.v "repl-req"
let inval_kind = Hw.Packet.Kind.v "inval"

let install rt ~copy (obj : 'a Aobject.t) ~dest =
  Aobject.check_lost obj;
  if dest < 0 || dest >= Runtime.nodes rt then
    invalid_arg "Coherence.install: bad destination node";
  if obj.Aobject.immutable_ then
    invalid_arg "Coherence.install: object is immutable (use move_to)";
  if obj.Aobject.parent <> None || obj.Aobject.attached <> [] then
    invalid_arg "Coherence.install: attached objects cannot take read replicas";
  let c = Runtime.cost rt in
  let ctrs = Runtime.counters rt in
  let addr = obj.Aobject.addr in
  let bytes = obj.Aobject.size in
  if
    dest = obj.Aobject.location
    || List.mem dest obj.Aobject.replicas
    (* Installing onto a down node would park the copy on a wire that
       drops it; give up (advisory, like the torn-write refusal below). *)
    || not (Runtime.node_is_up rt dest)
  then ()
  else
    Sim.Span.with_span (Runtime.spans rt) Sim.Span.Replica_install
      ~label:obj.Aobject.name ~obj:addr ~arg:dest
    @@ fun () ->
    begin
    let here = Runtime.current_node rt in
    let master = Runtime.resolve_location rt ~addr in
    if dest = master then ()
    else begin
      (* Runs on the master's node.  Capture and registration are one
         atomic (suspension-free) step so the snapshot matches [ep]. *)
      let capture () =
        if
          dest = obj.Aobject.location
          || List.mem dest obj.Aobject.replicas
          (* A Write/Atomic is executing the user operation right now:
             the state may be torn, and the post-write epoch bump would
             not reject a snapshot taken here.  Give up (advisory). *)
          || obj.Aobject.writers > 0
        then None
        else begin
          let ep = obj.Aobject.epoch in
          let snap = copy obj.Aobject.state in
          obj.Aobject.repl_gen <- obj.Aobject.repl_gen + 1;
          let gen = obj.Aobject.repl_gen in
          obj.Aobject.replicas <- dest :: obj.Aobject.replicas;
          obj.Aobject.grants <-
            (dest, gen) :: List.remove_assoc dest obj.Aobject.grants;
          Some (gen, ep, snap)
        end
      in
      let ship_cpu =
        c.Cost_model.move_fixed_cpu
        +. (c.Cost_model.move_per_byte_cpu *. float_of_int bytes)
      in
      (* Runs on [src], the master's node: package the snapshot, ship it
         and wait for the ack.  A give-up is absorbed here — the install
         is advisory — after [on_dead] has deregistered the grant. *)
      let ship ~src (gen, ep, snap) =
        Sim.Fiber.consume ship_cpu;
        try
          Topaz.Rpc.post_acked (Runtime.rpc rt) ~src ~dst:dest
            ~kind:copy_kind ~size:bytes ~ack_kind:ack_kind
            ~ack_size:c.Cost_model.move_ack_bytes
            ~on_dead:(fun _ ->
              (* The transport gave up on the copy: deregister the grant
                 registered at capture time — unless fail-stop recovery
                 (or a racing recall/re-grant) already did, or the copy in
                 fact installed and only the ack is outstanding.  The
                 budget is a failure {e detector}: it can trip on a live
                 destination whose acks are merely starved, and tearing
                 down the registration then would leave an installed copy
                 served to readers but registered nowhere. *)
              if
                List.assoc_opt dest obj.Aobject.grants = Some gen
                && Aobject.snapshot obj ~node:dest = None
              then begin
                obj.Aobject.replicas <-
                  List.filter (fun n -> n <> dest) obj.Aobject.replicas;
                obj.Aobject.grants <- List.remove_assoc dest obj.Aobject.grants
              end)
            (fun () ->
              (* Delivery-time guard: a write (or a recall) may have raced
                 the copy onto the wire; installing it now would hand out
                 stale state, so drop it instead.  The generation check
                 also rejects a retransmitted copy from a grant that was
                 since recalled and re-issued — only the copy carrying the
                 node's live grant may install. *)
              if
                obj.Aobject.epoch = ep
                && List.assoc_opt dest obj.Aobject.grants = Some gen
              then begin
                ctrs.Runtime.replica_installs <-
                  ctrs.Runtime.replica_installs + 1;
                ctrs.Runtime.object_copies <- ctrs.Runtime.object_copies + 1;
                ctrs.Runtime.move_bytes <- ctrs.Runtime.move_bytes + bytes;
                Aobject.set_snapshot obj ~node:dest ~epoch:ep snap;
                Descriptor.set_replica
                  (Runtime.descriptors rt dest)
                  addr obj.Aobject.location;
                (* A stale §3.3 hint laid down while the master lived at
                   [dest] still names it; forwarding chains must never
                   point at a replica, so the grant rewrites such hints
                   to name the master (piggybacked like the flushes, no
                   extra packets).  No later write re-creates one: hints
                   always name a node observed Resident, and a moving
                   master recalls its replicas first. *)
                ignore
                  (Runtime.retarget rt ~addr ~from:dest
                     ~onto:obj.Aobject.location
                    : int);
                (* Touching every node's table from one server fiber is a
                   simulator shortcut (a real kernel would piggyback the
                   rewrites); charge one descriptor lookup per scanned
                   node so the scrub is not free.  Charged after the
                   guard+install+scrub step so that step stays
                   suspension-free. *)
                Sim.Fiber.consume
                  (c.Cost_model.forward_lookup_cpu
                  *. float_of_int (Runtime.nodes rt - 1))
              end
              else if List.assoc_opt dest obj.Aobject.grants = Some gen then
              begin
                (* Stale delivery of the node's live grant: the grant
                   failed, deregister it.  A stale copy from an {e older}
                   grant (the node was since recalled and re-granted) must
                   leave the newer grant's registration alone. *)
                obj.Aobject.replicas <-
                  List.filter (fun n -> n <> dest) obj.Aobject.replicas;
                obj.Aobject.grants <- List.remove_assoc dest obj.Aobject.grants
              end;
              true)
        with Topaz.Rpc.Node_dead _ -> ()
      in
      if master = here && obj.Aobject.location = here then
        Option.iter (ship ~src:here) (capture ())
      else
        Topaz.Rpc.call (Runtime.rpc rt) ~dst:master ~kind:req_kind
          ~req_size:64 ~work:(fun () ->
            ( c.Cost_model.move_ack_bytes,
              (* The master may have moved between resolve and arrival;
                 treat the install as advisory and give up rather than
                 chase. *)
              if obj.Aobject.location = master then
                Option.iter (ship ~src:master) (capture ()) ))
    end
  end

let invalidate rt (obj : 'a Aobject.t) =
  let ctrs = Runtime.counters rt in
  let addr = obj.Aobject.addr in
  let span_if_live f =
    if obj.Aobject.replicas = [] then f ()
    else
      Sim.Span.with_span (Runtime.spans rt) Sim.Span.Invalidate
        ~label:obj.Aobject.name ~obj:addr f
  in
  let rec drain () =
    match obj.Aobject.replicas with
    | [] -> ()
    | targets ->
      (* Capture each target's grant generation before the round: the
         round may only deregister the grants it actually recalled. *)
      let recalled =
        List.map
          (fun node -> (node, List.assoc_opt node obj.Aobject.grants))
          targets
      in
      List.iter
        (fun (node, _) ->
          (* One acknowledged control RPC per replica: under fault
             injection the reliable transport retransmits until the
             recall is acknowledged — a lost invalidation is retried,
             never silently dropped. *)
          try
            Topaz.Rpc.call (Runtime.rpc rt) ~dst:node ~kind:inval_kind
              ~req_size:32 ~work:(fun () ->
                Aobject.drop_snapshot obj ~node;
                if Descriptor.is_replica (Runtime.descriptors rt node) addr
                then
                  Descriptor.set_forwarded
                    (Runtime.descriptors rt node)
                    addr obj.Aobject.location;
                ctrs.Runtime.replica_invalidations <-
                  ctrs.Runtime.replica_invalidations + 1;
                (16, ()))
          with Topaz.Rpc.Node_dead _ ->
            (* A replica node that fail-stopped mid-recall holds no
               usable copy (its snapshot dies with it); treat the recall
               as achieved and let the bookkeeping below deregister the
               grant this round captured. *)
            Aobject.drop_snapshot obj ~node)
        recalled;
      (* Deregister only grants still at the generation this round
         recalled.  A racing install can re-grant a target under a fresh
         generation — and land its new snapshot — between our inval
         reaching that node and this bookkeeping; removing the node by
         name would then tear down the {e new} grant's registration
         while its snapshot stays installed, leaving a copy that is
         registered nowhere yet still served to readers (found by the
         model checker: grant/recall vs. re-grant on the replica
         fixture).  Leave the newer grant alone; the next pass recalls
         it at its own generation. *)
      let still_recalled node =
        match List.assoc_opt node recalled with
        | Some gen0 -> List.assoc_opt node obj.Aobject.grants = gen0
        | None -> false
      in
      obj.Aobject.replicas <-
        List.filter (fun n -> not (still_recalled n)) obj.Aobject.replicas;
      obj.Aobject.grants <-
        List.filter (fun (n, _) -> not (still_recalled n)) obj.Aobject.grants;
      (* A replica granted while the round was in flight is recalled by
         the next pass; the round is only over when a full pass finds the
         set empty. *)
      drain ()
  in
  span_if_live drain
