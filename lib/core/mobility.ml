let contents_kind = Hw.Packet.Kind.v "obj-contents"
let move_ack_kind = Hw.Packet.Kind.v "move-ack"
let move_req_kind = Hw.Packet.Kind.v "move-req"
let copy_kind = Hw.Packet.Kind.v "obj-copy"
let copy_ack_kind = Hw.Packet.Kind.v "copy-ack"
let copy_req_kind = Hw.Packet.Kind.v "copy-req"

(* Perform the §3.4/§3.5 move protocol for a mutable object whose master
   copy is resident on the calling fiber's node.  Returns after the
   contents are installed at [dest] and acknowledged. *)
let do_move_here rt (root : Aobject.any) ~dest =
  let c = Runtime.cost rt in
  let here = Runtime.current_node rt in
  if here = dest then ()
  else begin
  let closure = Aobject.attachment_closure root in
  let bytes = Aobject.closure_size root in
  let ctrs = Runtime.counters rt in
  (* A moving master drops its replica set first (an acknowledged recall
     per copy): replicas must never be left pointing at a master that is
     about to forward, and forwarding chains must never point at them. *)
  List.iter
    (fun (Aobject.Any o) ->
      if (not o.Aobject.immutable_) && o.Aobject.replicas <> [] then
        Coherence.invalidate rt o)
    closure;
  (* Mark every moving object forwarded before anything is copied, then
     force all running threads through a residency check (§3.5). *)
  List.iter
    (fun (Aobject.Any o) ->
      Descriptor.set_forwarded (Runtime.descriptors rt here) o.Aobject.addr
        dest)
    closure;
  let except = Hw.Machine.self () in
  ignore (Hw.Machine.preempt_all ?except (Runtime.machine rt here) : int);
  Sim.Fiber.consume
    (c.Cost_model.move_fixed_cpu
    +. (c.Cost_model.move_per_byte_cpu *. float_of_int bytes));
  ctrs.Runtime.object_moves <- ctrs.Runtime.object_moves + 1;
  ctrs.Runtime.move_bytes <- ctrs.Runtime.move_bytes + bytes;
  (* A destination that fail-stops while the contents (or the ack) are in
     flight must not park the mover forever: the handshake raises
     [Node_dead] here.  The object state itself is covered either way —
     contents never installed leave the master where it was; contents
     installed on the corpse are re-mastered by fail-stop recovery. *)
  let aborted = ref false in
  Topaz.Rpc.post_acked (Runtime.rpc rt) ~src:here ~dst:dest
    ~kind:contents_kind ~size:bytes ~ack_kind:move_ack_kind
    ~ack_size:c.Cost_model.move_ack_bytes
    ~on_dead:(fun _ ->
      (* If the contents never installed, the master stays where it was:
         un-forward the descriptors flipped before the ship — leaving them
         would strand the survivors' chains pointing at a corpse that
         never held the object.  (If they did install, [location] is
         [dest] and fail-stop recovery owns the cleanup.)  [aborted] also
         revokes a delivered-but-unrun install: the failure detector can
         trip spuriously with the contents sitting in a {e live}
         destination's server queue — the budget exhausts on a starved
         ack — and installing after this rollback would leave two nodes
         claiming residency. *)
      aborted := true;
      List.iter
        (fun (Aobject.Any o) ->
          if o.Aobject.location = here then
            Descriptor.set_resident
              (Runtime.descriptors rt here)
              o.Aobject.addr)
        closure)
    (fun () ->
      (* Server fiber on [dest]: install the contents — unless the mover
         already gave up and rolled the master back, in which case the
         shipped copy is dead on arrival and goes unacked. *)
      if not !aborted then
        List.iter
          (fun (Aobject.Any o) ->
            o.Aobject.location <- dest;
            Descriptor.set_resident
              (Runtime.descriptors rt dest)
              o.Aobject.addr)
          closure;
      not !aborted)
  end

(* Chase the forwarding chain with the move request itself: each hop is
   one control RPC, and the node that actually holds the object executes
   the move before replying (so a one-hop-accurate hint costs a single
   round trip, the paper's Table-1 scenario).  {!Runtime.chase} supplies
   the hop budget, the bounce to the home node and dangling detection,
   and tells every node whose stale pointer the request chased that the
   object now lives at [dest]. *)
let move_mutable rt (obj_addr : int) (root : Aobject.any) ~dest =
  let c = Runtime.cost rt in
  let visit node =
    Sim.Fiber.consume c.Cost_model.forward_lookup_cpu;
    let d = Descriptor.get (Runtime.descriptors rt node) obj_addr in
    (match d with
    | Some Descriptor.Resident -> do_move_here rt root ~dest
    | Some (Descriptor.Forwarded _ | Descriptor.Replica _) | None -> ());
    d
  in
  ignore
    (Runtime.chase ~moving_to:dest rt ~read:false ~path:(ref [])
       ~what:"Mobility" ~addr:obj_addr ~start:(Runtime.current_node rt)
       ~step:(fun ~node ->
         if node = Runtime.current_node rt then visit node
         else
           Topaz.Rpc.call (Runtime.rpc rt) ~dst:node ~kind:move_req_kind
             ~req_size:64 ~work:(fun () -> (32, visit node)))
      : int)

(* Immutable replication: ship a copy of the closure to [dest] from some
   node that holds one; existing copies stay valid. *)
let replicate rt (obj : 'a Aobject.t) ~dest =
  let c = Runtime.cost rt in
  let ctrs = Runtime.counters rt in
  if Aobject.usable_on obj dest then ()
  else begin
    let root = Aobject.Any obj in
    let bytes = Aobject.closure_size root in
    let source = Runtime.resolve_location rt ~addr:obj.Aobject.addr in
    (* Runs on [source]: ship the copy and wait for [dest]'s ack.  A copy
       whose endpoint fail-stops mid-flight raises [Node_dead] instead of
       parking a fiber forever. *)
    let copy () =
      Sim.Fiber.consume
        (c.Cost_model.move_fixed_cpu
        +. (c.Cost_model.move_per_byte_cpu *. float_of_int bytes));
      Topaz.Rpc.post_acked (Runtime.rpc rt) ~src:source ~dst:dest
        ~kind:copy_kind ~size:bytes ~ack_kind:copy_ack_kind
        ~ack_size:c.Cost_model.move_ack_bytes ~on_dead:ignore (fun () ->
          (* Count the copy only once it is installed at the destination:
             a copy request that dies on the wire is not a copy. *)
          ctrs.Runtime.object_copies <- ctrs.Runtime.object_copies + 1;
          ctrs.Runtime.move_bytes <- ctrs.Runtime.move_bytes + bytes;
          List.iter
            (fun (Aobject.Any o) ->
              if not (List.mem dest o.Aobject.replicas) then
                o.Aobject.replicas <- dest :: o.Aobject.replicas;
              Descriptor.set_resident (Runtime.descriptors rt dest)
                o.Aobject.addr)
            (Aobject.attachment_closure root);
          true)
    in
    if source = Runtime.current_node rt then copy ()
    else
      (* A remote source relays the copy; its failure comes back in the
         reply and is raised here. *)
      match
        Topaz.Rpc.call (Runtime.rpc rt) ~dst:source ~kind:copy_req_kind
          ~req_size:64 ~work:(fun () ->
            ( c.Cost_model.move_ack_bytes,
              match copy () with
              | () -> None
              | exception (Topaz.Rpc.Node_dead _ as e) -> Some e ))
      with
      | None -> ()
      | Some e -> raise e
  end

(* AmberSan's move bracket.  [Move_end] closes it on every exit — a move
   that raises too — or the sanitizer's in-flight move count would never
   return to zero and every later move-quiescence audit would wait for
   [finalize]. *)
let bracketed rt addr f =
  Runtime.with_san rt (fun h -> h (San_hooks.Event.Move_begin { addr }));
  Fun.protect f ~finally:(fun () ->
      Runtime.with_san rt (fun h -> h (San_hooks.Event.Move_end { addr })))

let move_to rt obj ~dest =
  Aobject.check_lost obj;
  if dest < 0 || dest >= Runtime.nodes rt then
    invalid_arg "Mobility.move_to: bad destination node";
  if obj.Aobject.parent <> None then
    invalid_arg "Mobility.move_to: object is attached; move its root";
  let clock = Runtime.clock rt in
  let t0 = clock.Sim.Engine.now in
  bracketed rt obj.Aobject.addr (fun () ->
      Sim.Span.with_span (Runtime.spans rt) Sim.Span.Object_move
        ~label:obj.Aobject.name ~obj:obj.Aobject.addr ~arg:dest (fun () ->
          if obj.Aobject.immutable_ then replicate rt obj ~dest
          else move_mutable rt obj.Aobject.addr (Aobject.Any obj) ~dest));
  Sim.Stats.Summary.add (Runtime.move_latency rt) (clock.Sim.Engine.now -. t0);
  (* If the caller was bound to the moved object, force it through the
     context-switch-in check so it follows the object (§3.5). *)
  Sim.Fiber.yield ()

let locate rt obj =
  let ctrs = Runtime.counters rt in
  ctrs.Runtime.locates <- ctrs.Runtime.locates + 1;
  Runtime.resolve_location rt ~addr:obj.Aobject.addr

let rec is_ancestor (candidate : Aobject.any) (node : Aobject.any) =
  Aobject.addr_of_any candidate = Aobject.addr_of_any node
  ||
  match node with
  | Aobject.Any o -> (
    match o.Aobject.parent with
    | None -> false
    | Some p -> is_ancestor candidate p)

let attach rt ~parent ~child =
  if child.Aobject.parent <> None then
    invalid_arg "Mobility.attach: child is already attached";
  if child.Aobject.addr = parent.Aobject.addr then
    invalid_arg "Mobility.attach: cannot attach an object to itself";
  if is_ancestor (Aobject.Any child) (Aobject.Any parent) then
    invalid_arg "Mobility.attach: attachment would create a cycle";
  let c = Runtime.cost rt in
  Sim.Fiber.consume c.Cost_model.forward_lookup_cpu;
  (* Attachment guarantees co-residency from now on, so co-locate first. *)
  let parent_loc = locate rt parent in
  if child.Aobject.location <> parent_loc then
    bracketed rt child.Aobject.addr (fun () ->
        if child.Aobject.immutable_ then replicate rt child ~dest:parent_loc
        else
          move_mutable rt child.Aobject.addr (Aobject.Any child)
            ~dest:parent_loc);
  child.Aobject.parent <- Some (Aobject.Any parent);
  parent.Aobject.attached <- Aobject.Any child :: parent.Aobject.attached

let unattach rt ~child =
  match child.Aobject.parent with
  | None -> invalid_arg "Mobility.unattach: child is not attached"
  | Some (Aobject.Any p) ->
    let c = Runtime.cost rt in
    Sim.Fiber.consume c.Cost_model.forward_lookup_cpu;
    p.Aobject.attached <-
      List.filter
        (fun a -> Aobject.addr_of_any a <> child.Aobject.addr)
        p.Aobject.attached;
    child.Aobject.parent <- None

let set_immutable rt obj =
  let closure = Aobject.attachment_closure (Aobject.Any obj) in
  List.iter
    (fun (Aobject.Any o) ->
      if (not o.Aobject.immutable_) && o.Aobject.addr <> obj.Aobject.addr then
        invalid_arg
          "Mobility.set_immutable: attachment closure contains mutable \
           objects")
    closure;
  (* Recall any read replicas first: after the flip, [replicas] means
     permanent immutable copies with Resident descriptors, which a
     write-invalidate replica is not. *)
  if obj.Aobject.replicas <> [] then Coherence.invalidate rt obj;
  Sim.Fiber.consume (Runtime.cost rt).Cost_model.forward_lookup_cpu;
  obj.Aobject.immutable_ <- true
