type frame = { fobj : Aobject.any; fmode : San_hooks.mode }

let grant_kind = Hw.Packet.Kind.v "as-grant"
let thread_kind = Hw.Packet.Kind.v "thread"
let locate_kind = Hw.Packet.Kind.v "locate"

type tstate = {
  tcb : Hw.Machine.tcb;
  taddr : int;
  mutable frames : frame list;
  mutable carry_bytes : int;
  mutable migrations : int;
  chase_path : int list ref;
      (* nodes left behind while chasing the current frame's object *)
  chase_step : node:int -> Descriptor.state option;
  mutable chase_moves : int;
  mutable result_box : exn option;
}

type counters = {
  mutable local_invocations : int;
  mutable remote_invocations : int;
  mutable thread_migrations : int;
  mutable migration_bytes : int;
  mutable object_moves : int;
  mutable object_copies : int;
  mutable move_bytes : int;
  mutable locates : int;
  mutable forward_hops : int;
  mutable home_fallbacks : int;
  mutable objects_created : int;
  mutable threads_started : int;
  mutable replica_installs : int;
  mutable replica_reads : int;
  mutable replica_invalidations : int;
  mutable gossip_rounds : int;
  mutable steal_requests : int;
  mutable threads_stolen : int;
  mutable balance_moves : int;
  mutable async_invocations : int;
  mutable future_notifies : int;
  mutable node_crashes : int;
  mutable node_restarts : int;
  mutable recovery_promotions : int;
  mutable objects_lost : int;
  mutable crash_chain_repairs : int;
}

type t = {
  cfg : Config.t;
  eng : Sim.Engine.t;
  clock : Sim.Engine.clock;
  net : Hw.Ethernet.t;
  machines : Hw.Machine.t array;
  vms : Topaz.Vm.t array;
  rpc_fabric : Topaz.Rpc.t;
  tables : Descriptor.table array;
  heaps : Vaspace.Heap.t array;
  server : Vaspace.Space_server.t;
  mutable threads : tstate option array;
      (* registered threads by tcb id; grown by doubling *)
  objs : Aobject.any Vaspace.Addr_table.t;  (* live objects, keyed by addr *)
  lost_addrs : string Vaspace.Addr_table.t;
      (* addr -> name of addresses whose only copy died with a fail-stop
         node (objects and thread objects alike); a chase that dangles on
         one of these raises [Aobject.Object_lost] instead of the generic
         dangling failure.  Empty unless a crash happened. *)
  spans : Sim.Span.t;
  ctrs : counters;
  remote_invoke_latency : Sim.Stats.Summary.t;
  move_latency : Sim.Stats.Summary.t;
  metrics : Sim.Series.t;
      (* Telemetry registry shared by every layer that wants to publish
         time series (serve pushes latency/shed windows, watch registers
         gauges and the sampling tick).  Created disabled; stays inert —
         no points, no clock reads — unless a watcher enables it. *)
  mutable failure_hooks : (kind:string -> node:int -> detail:string -> unit) list;
  mutable san : San_hooks.t option;
  mutable report_sections : (string * (unit -> string list)) list;
}

let fresh_counters () =
  {
    local_invocations = 0;
    remote_invocations = 0;
    thread_migrations = 0;
    migration_bytes = 0;
    object_moves = 0;
    object_copies = 0;
    move_bytes = 0;
    locates = 0;
    forward_hops = 0;
    home_fallbacks = 0;
    objects_created = 0;
    threads_started = 0;
    replica_installs = 0;
    replica_reads = 0;
    replica_invalidations = 0;
    gossip_rounds = 0;
    steal_requests = 0;
    threads_stolen = 0;
    balance_moves = 0;
    async_invocations = 0;
    future_notifies = 0;
    node_crashes = 0;
    node_restarts = 0;
    recovery_promotions = 0;
    objects_lost = 0;
    crash_chain_repairs = 0;
  }

(* Everything except arming the crash injector, which needs the crash and
   recovery machinery defined at the bottom of this file.  [create] (the
   public constructor) is [create_raw] plus [schedule_crashes]. *)
let create_raw cfg =
  Config.validate cfg;
  Hw.Machine.reset_tids ();
  let eng = Sim.Engine.create ~seed:cfg.Config.seed () in
  let spans =
    Sim.Span.create
      ~clock:(fun () -> Sim.Engine.now eng)
      ~current_tid:(fun () ->
        match Hw.Machine.self () with
        | Some tcb -> Hw.Machine.tcb_id tcb
        | None -> -1)
      ~current_node:(fun () ->
        match Hw.Machine.self () with
        | Some tcb -> Hw.Machine.id (Hw.Machine.home tcb)
        | None -> -1)
      ~current_cpu:(fun () ->
        match Option.map Hw.Machine.state (Hw.Machine.self ()) with
        | Some (Hw.Machine.Running c) -> c
        | _ -> -1)
      ()
  in
  let machines =
    Array.init cfg.Config.nodes (fun id ->
        Hw.Machine.create ~engine:eng ~id ~cpus:cfg.Config.cpus_per_node
          ~ctx_switch:Cost_model.ctx_switch ~quantum:Cost_model.quantum
          ~preempt_cost:cfg.Config.cost.Cost_model.preempt_victim_cpu
          ~spans ())
  in
  let net =
    Hw.Ethernet.create ~engine:eng
      ~bandwidth_bps:cfg.Config.ether_bandwidth_bps ~mac:cfg.Config.ether_mac
      ~faults:cfg.Config.faults ~spans ()
  in
  let rpc_fabric =
    (* A lossy wire needs an end-to-end transport: retransmission kicks in
       exactly when fault injection is on, so fault-free runs keep the
       original at-most-once packet pattern bit for bit.  Crash injection
       implies reliability too — peer-death detection lives in the
       retransmit protocol. *)
    Topaz.Rpc.create ~ether:net ~machines
      ~servers_per_node:cfg.Config.rpc_servers_per_node
      ~reliable:
        (cfg.Config.rpc_reliable
        || Hw.Ethernet.faults_enabled cfg.Config.faults
        || Config.crashes_enabled cfg)
      ~max_retransmits:cfg.Config.rpc_max_retransmits
      ~rto:cfg.Config.rpc_rto ~retire_window:cfg.Config.rpc_retire_window
      ~unsafe_count_window_dedup:cfg.Config.rpc_unsafe_dedup
      ?coalesce:cfg.Config.rpc_coalesce ~spans ()
  in
  let server =
    Vaspace.Space_server.create ~nodes:cfg.Config.nodes
      ~initial_per_node:cfg.Config.initial_regions_per_node ()
  in
  let tables =
    Array.init cfg.Config.nodes (fun node -> Descriptor.create_table ~node)
  in
  let rt =
    {
      cfg;
      eng;
      clock = Sim.Engine.clock eng;
      net;
      machines;
      vms =
        Array.init cfg.Config.nodes (fun _ ->
            Topaz.Vm.create ~page_size:cfg.Config.vm_page_size ());
      rpc_fabric;
      tables;
      heaps = [||];
      server;
      threads = Array.make 64 None;
      objs = Vaspace.Addr_table.create 64;
      lost_addrs = Vaspace.Addr_table.create 8;
      spans;
      ctrs = fresh_counters ();
      remote_invoke_latency = Sim.Stats.Summary.create ();
      move_latency = Sim.Stats.Summary.create ();
      metrics = Sim.Series.create ~clock:(fun () -> Sim.Engine.now eng) ();
      failure_hooks = [];
      san = None;
      report_sections = [];
    }
  in
  (* Heaps grow by asking the address-space server (an RPC when the
     requester is not the server's node). *)
  let heaps =
    Array.init cfg.Config.nodes (fun node ->
        let initial = ref (Vaspace.Space_server.initial_regions server node) in
        let grow () =
          match !initial with
          | r :: rest ->
            initial := rest;
            r
          | [] ->
            let dst = Vaspace.Space_server.server_node server in
            Topaz.Rpc.call rpc_fabric ~dst ~kind:grant_kind ~req_size:32
              ~work:(fun () ->
                (48, Vaspace.Space_server.grant server ~node))
        in
        Vaspace.Heap.create ~node ~grow ())
  in
  { rt with heaps }

let config t = t.cfg
let cost t = t.cfg.Config.cost
let engine t = t.eng
let ether t = t.net
let rpc t = t.rpc_fabric
let spans t = t.spans
let nodes t = Array.length t.machines

let machine t i =
  if i < 0 || i >= Array.length t.machines then
    invalid_arg "Runtime.machine: bad node";
  t.machines.(i)

let vm t i =
  if i < 0 || i >= Array.length t.vms then invalid_arg "Runtime.vm: bad node";
  t.vms.(i)

let descriptors t i =
  if i < 0 || i >= Array.length t.tables then
    invalid_arg "Runtime.descriptors: bad node";
  t.tables.(i)

let heap t i =
  if i < 0 || i >= Array.length t.heaps then
    invalid_arg "Runtime.heap: bad node";
  t.heaps.(i)

let clock t = t.clock
let now t = t.clock.now
let counters t = t.ctrs
let remote_invoke_latency t = t.remote_invoke_latency
let move_latency t = t.move_latency
let metrics t = t.metrics

(* Typed-failure notification seam: the flight recorder (lib/watch)
   subscribes here so postmortem dumps need no dependency from the crash
   machinery on the observability layer.  With no hooks registered the
   notify sites cost one list match. *)
let on_failure t f = t.failure_hooks <- t.failure_hooks @ [ f ]

let notify_failure t ~kind ~node ~detail =
  match t.failure_hooks with
  | [] -> ()
  | hooks -> List.iter (fun f -> f ~kind ~node ~detail) hooks

let emit t category detail = Sim.Span.mark t.spans ~category detail

(* --- sanitizer hooks ----------------------------------------------------- *)

let set_sanitizer t h = t.san <- Some h
let sanitizer t = t.san

(* Disabled sanitizer = one branch, like marks that are off. *)
let with_san t f = match t.san with None -> () | Some h -> f h

let add_report_section t ~name f =
  t.report_sections <- t.report_sections @ [ (name, f) ]

let report_sections t = t.report_sections

(* --- thread bookkeeping ------------------------------------------------- *)

let register_thread t ts =
  let tid = Hw.Machine.tcb_id ts.tcb in
  let n = Array.length t.threads in
  if tid >= n then begin
    let bigger = Array.make (max (2 * n) (tid + 1)) None in
    Array.blit t.threads 0 bigger 0 n;
    t.threads <- bigger
  end;
  t.threads.(tid) <- Some ts

let unregister_thread t ts =
  let tid = Hw.Machine.tcb_id ts.tcb in
  if tid < Array.length t.threads then t.threads.(tid) <- None

let tstate_of_tcb t tcb =
  let tid = Hw.Machine.tcb_id tcb in
  if tid < Array.length t.threads then t.threads.(tid) else None

let current_opt t =
  match Hw.Machine.self () with None -> None | Some tcb -> tstate_of_tcb t tcb

let current t =
  match current_opt t with
  | Some ts -> ts
  | None -> failwith "Runtime.current: caller is not an Amber thread"

let current_node _t = Hw.Machine.id (Hw.Machine.self_machine ())

let iter_threads t f =
  Array.iter (function Some ts -> f ts | None -> ()) t.threads

(* --- address space ------------------------------------------------------ *)

let home_node t ~addr =
  match Vaspace.Space_server.owner_of_addr t.server addr with
  | Some node -> node
  | None ->
    invalid_arg (Printf.sprintf "Runtime.home_node: 0x%x is not a heap address" addr)

(* --- location protocol -------------------------------------------------- *)

let probe t ~node ~addr =
  match Descriptor.get (descriptors t node) addr with
  | Some Descriptor.Resident -> `Resident
  | Some (Descriptor.Forwarded n) -> `Hop n
  | Some (Descriptor.Replica m) -> `Replica m
  | None -> `Hop (home_node t ~addr)

(* What the descriptor [d], read at [node], means to a chase for [addr].
   A read replica ends the chase only when [read]; otherwise its master
   hint is followed like a forwarding address.  An uninitialized
   descriptor bounces the chase to the home node, which it follows like
   a forwarding address too — or, at the home node itself, means the
   object was destroyed there.  A self-loop is dangling too. *)
let classify t ~read ~addr ~node d =
  match d with
  | Some Descriptor.Resident -> `Found
  | Some (Descriptor.Replica master) when read -> `Replica master
  | Some (Descriptor.Forwarded next | Descriptor.Replica next) ->
    if next = node then `Dangling else `Follow next
  | None ->
    let home = home_node t ~addr in
    if node = home then `Dangling else `Follow home

(* §3.3: when a chase ends, every node it left behind learns where the
   object is (piggybacked on the protocol, no extra packets), so later
   references take a single hop.  Never overwrite a replica descriptor
   (the node still holds a usable read-only copy; only an invalidation
   may retire it) or a resident one (a concurrent move may have landed
   the object on a node this chase visited while it was still stale —
   clobbering residency would orphan the object; only the move protocol
   retires Resident).  Most chases stop where they start; their empty
   path costs no allocation. *)
let learn t ~addr ~found path =
  match !path with
  | [] -> ()
  | left ->
    List.iter
      (fun v ->
        let tbl = descriptors t v in
        if
          v <> found
          && (not (Descriptor.is_replica tbl addr))
          && not (Descriptor.is_resident tbl addr)
        then Descriptor.set_forwarded tbl addr found)
      left;
    path := []

let retarget t ~addr ~from ~onto =
  let rewritten = ref 0 in
  Array.iteri
    (fun n tbl ->
      if n <> from then
        match Descriptor.get tbl addr with
        | Some (Descriptor.Forwarded f) when f = from ->
          incr rewritten;
          Descriptor.set_forwarded tbl addr onto
        | _ -> ())
    t.tables;
  !rewritten

(* Fail-stop death of one Amber thread: close its open spans, drop its
   invocation frames (the work died with the node), and turn its thread
   object into a permanently lost address so a later Join's chase fails
   crisply with [Object_lost] instead of wandering the descriptor web —
   the outcome itself is read off the tcb, which survives.  Idempotent;
   used both by the crash handler's sweep and by a thread-state flight
   whose endpoint died mid-air. *)
let crash_kill_thread t ts e =
  if not (Hw.Machine.was_killed ts.tcb) then begin
    let tid = Hw.Machine.tcb_id ts.tcb in
    Sim.Span.finish_all_for t.spans ~tid;
    ts.frames <- [];
    ts.chase_path := [];
    Vaspace.Addr_table.replace t.lost_addrs ts.taddr
      (Hw.Machine.tcb_name ts.tcb);
    Array.iter (fun tbl -> Descriptor.clear tbl ts.taddr) t.tables;
    Hw.Machine.kill ts.tcb e
  end

(* The one thread-state flight, behind explicit migration, the
   context-switch-in residency check and the stealer.  The departure
   bookkeeping — counters, forwarding address, mark, flight span — runs
   now, in the caller's context; the returned function puts the state on
   the wire and runs [arrive] once it has landed.  The thread object
   itself moves through the object space (§3.4): it leaves a forwarding
   address like any other object, which is what a later Join has to
   chase.  Thread state must survive packet loss — a dropped flight would
   strand the thread forever — so it rides the reliable datagram service
   (a plain send when faults are off).  A flight whose endpoint
   fail-stops mid-air kills the thread: its state died with the wire. *)
let thread_flight t ts ~src ~dest ~size ~explicit =
  t.ctrs.thread_migrations <- t.ctrs.thread_migrations + 1;
  t.ctrs.migration_bytes <- t.ctrs.migration_bytes + size;
  ts.migrations <- ts.migrations + 1;
  Descriptor.set_forwarded (descriptors t src) ts.taddr dest;
  (* With marks, the sanitizer and spans off, a flight builds nothing
     for them. *)
  if Sim.Span.marking t.spans then
    emit t "migrate"
      (lazy
        (Printf.sprintf "%s: node%d -> node%d (%dB%s)"
           (Hw.Machine.tcb_name ts.tcb) src dest size
           (if explicit then ", explicit" else "")));
  (match t.san with
  | None -> ()
  | Some h ->
    h
      (San_hooks.Event.Migrate
         { tid = Hw.Machine.tcb_id ts.tcb; src; dst = dest }));
  let sp =
    if Sim.Span.enabled t.spans then
      Sim.Span.start_flow t.spans Sim.Span.Thread_flight
        ~label:(Hw.Machine.tcb_name ts.tcb)
        ~tid:(Hw.Machine.tcb_id ts.tcb) ~arg:dest ()
    else 0
  in
  fun arrive ->
    Topaz.Rpc.send_reliable t.rpc_fabric
      ~on_dead:(fun e ->
        Sim.Span.finish t.spans sp;
        crash_kill_thread t ts e)
      ~src ~dst:dest ~size ~kind:thread_kind
      (fun () ->
        if not (Hw.Machine.was_killed ts.tcb) then begin
          Sim.Span.finish t.spans sp;
          Descriptor.set_resident (descriptors t dest) ts.taddr;
          Hw.Machine.transfer ts.tcb ~dest:(machine t dest);
          arrive ()
        end)

(* Ship a parked thread from outside its fiber: CPU costs are charged to
   the thread's own pending-work account.  The balancer's stealer uses it
   too. *)
let migrate_thread t ts ~dest =
  let c = cost t in
  Hw.Machine.add_pending_work ts.tcb
    (c.Cost_model.thread_send_cpu +. c.Cost_model.thread_recv_cpu);
  thread_flight t ts
    ~src:(Hw.Machine.id (Hw.Machine.home ts.tcb))
    ~dest
    ~size:(c.Cost_model.thread_state_bytes + ts.carry_bytes)
    ~explicit:false
    (fun () -> Hw.Machine.wake ts.tcb)

let max_forward_hops = 64

(* §3.5's context-switch-in check, one hop per switch-in: a callback
   cannot block, so it cannot run {!chase}, but it reads descriptors the
   same way and leaves the same trail on [chase_path].  The invocation's
   chase continues that path, so the two walkers spend one hop budget. *)
let install_resume_check t ts =
  Hw.Machine.set_on_resume ts.tcb
    (Some
       (fun tcb ->
         match ts.frames with
         | [] -> true
         | top :: _ ->
           let here = Hw.Machine.id (Hw.Machine.home tcb) in
           let addr = Aobject.addr_of_any top.fobj in
           let follow next =
             if List.length !(ts.chase_path) >= max_forward_hops then
               (* The thread has followed as many hops as the forwarding
                  budget allows without finding the object — stale
                  descriptors may form a loop here.  Let the thread run:
                  its in-fiber chase, on the same path, raises
                  [Chain_exhausted] at its next hop or reports a dangling
                  reference, which this callback cannot. *)
               true
             else begin
               (* The object moved while we were descheduled: chase it. *)
               ts.chase_path := here :: !(ts.chase_path);
               Hw.Machine.park tcb;
               migrate_thread t ts ~dest:next;
               false
             end
           in
           match
             classify t ~read:(top.fmode = San_hooks.Read) ~addr ~node:here
               (Descriptor.get (descriptors t here) addr)
           with
           | `Found ->
             learn t ~addr ~found:here ts.chase_path;
             true
           | `Replica master ->
             learn t ~addr ~found:master ts.chase_path;
             true
           | `Follow next -> follow next
           | `Dangling ->
             (* Let the thread run so the protocol path inside the fiber
                raises properly. *)
             true))

let migrate_self t ?(payload = 0) ~dest () =
  let ts = current t in
  let c = cost t in
  let src = current_node t in
  if src <> dest then begin
    Sim.Fiber.consume c.Cost_model.thread_send_cpu;
    let fly =
      thread_flight t ts ~src ~dest
        ~size:(c.Cost_model.thread_state_bytes + payload)
        ~explicit:true
    in
    Sim.Fiber.block fly;
    Sim.Fiber.consume c.Cost_model.thread_recv_cpu
  end

(* --- the shared chain chase ---------------------------------------------- *)

(* The chase is over: the nodes it left behind learn where the object is
   — [found], or [moving_to] when the chase moved the object there.  The
   result is that node, complemented when a replica stopped the chase. *)
let stop t ~addr ~path ~moving_to found ~replica =
  let found = match moving_to with Some dest -> dest | None -> found in
  learn t ~addr ~found path;
  if replica then lnot found else found

(* A dangling reference to an address the crash injector registered as
   lost is not a protocol bug: the only copy died with its node. *)
let dangling t ~what ~addr =
  (match Vaspace.Addr_table.find_opt t.lost_addrs addr with
  | Some name -> raise (Aobject.Object_lost { addr; name })
  | None -> ());
  failwith (Printf.sprintf "%s: dangling reference to 0x%x" what addr)

(* One visit of {!chase}, at [node] after [hops] hops.  The first probe at
   the starting node is the local fast path; every later probe is one
   causally-nested hop of the chase, with a span of its own. *)
let rec walk t ~read ~moving_to ~path ~what ~addr ~start ~step node ~hops =
  if List.length !path > max_forward_hops then
    raise (Aobject.Chain_exhausted { addr; trail = List.rev !path })
  else
    let sp =
      if (hops > 0 || node <> start) && Sim.Span.enabled t.spans then
        Sim.Span.start t.spans Sim.Span.Chase_hop ~label:what ~obj:addr
          ~arg:node ()
      else 0
    in
    let d =
      match step ~node with
      | d ->
        Sim.Span.finish t.spans sp;
        d
      | exception e ->
        Sim.Span.finish t.spans sp;
        raise e
    in
    match classify t ~read ~addr ~node d with
    | `Found -> stop t ~addr ~path ~moving_to node ~replica:false
    | `Replica master -> stop t ~addr ~path ~moving_to master ~replica:true
    | `Follow next ->
      path := node :: !path;
      t.ctrs.forward_hops <- t.ctrs.forward_hops + 1;
      walk t ~read ~moving_to ~path ~what ~addr ~start ~step next
        ~hops:(hops + 1)
    | `Dangling -> dangling t ~what ~addr

(* [chase] is the one forwarding-chain walker in the system.  Locate,
   MoveTo, invocation settling and the invocation return path each
   express a visit to one node as a [step] that returns the descriptor it
   read there; [chase] decides what the descriptor means ({!classify})
   and applies the paper's policy (§3.3):

   - A forwarding address is followed.
   - A bounce (uninitialized descriptor away from the object's {e home
     node}) means that node never heard of the object, or a move is in
     flight (the source already forwarded, the destination not yet
     installed): go to the home node, whose region owner learns of the
     object at creation and is the one place a live object can always be
     traced from.  Uninitialized {e at} the home node means the object
     was destroyed there — the only node where a heap block can be freed
     — so the reference is dangling, as is a self-loop left by sabotaged
     descriptors.
   - A walk whose [path] passes [max_forward_hops] nodes raises
     [Aobject.Chain_exhausted] with the nodes it left behind.  The budget
     is the path's, not the walk's: an invocation's chase continues the
     path the switch-in check left on its thread, so a thread's hops
     across both walkers count once.  Stale descriptors that never reach
     the object are incoherent, which AmberSan's audit reports; the
     chase does not guess past them.
   - When the chase ends, every node it left behind learns where the
     object is: the stop node, the master of a replica that served a
     [read], or [moving_to] for a move.  That node is the result, as
     [lnot] of it when a replica stopped the chase, so nothing is
     allocated to return it. *)
let chase ?moving_to t ~read ~path ~what ~addr ~start ~step =
  walk t ~read ~moving_to ~path ~what ~addr ~start ~step start ~hops:0

let resolve_location t ~addr =
  let c = cost t in
  let here = current_node t in
  let lookup node =
    Sim.Fiber.consume c.Cost_model.forward_lookup_cpu;
    Descriptor.get (descriptors t node) addr
  in
  chase t ~read:false ~path:(ref []) ~what:"Runtime.resolve_location" ~addr
    ~start:here ~step:(fun ~node ->
      if node = here then lookup node
      else
        Topaz.Rpc.call t.rpc_fabric ~dst:node ~kind:locate_kind
          ~req_size:c.Cost_model.locate_req_bytes ~work:(fun () ->
            (16, lookup node)))

(* --- object lifecycle ---------------------------------------------------- *)

let create_object t ?(size = 64) ~name state =
  let _ts = current t in
  let node = current_node t in
  let c = cost t in
  Sim.Fiber.consume
    (c.Cost_model.create_fixed_cpu
    +. (c.Cost_model.create_per_byte_cpu *. float_of_int size));
  let addr = Vaspace.Heap.alloc (heap t node) size in
  Descriptor.set_resident (descriptors t node) addr;
  t.ctrs.objects_created <- t.ctrs.objects_created + 1;
  emit t "create"
    (lazy (Printf.sprintf "%s@0x%x (%dB) on node%d" name addr size node));
  let obj = Aobject.make ~addr ~name ~size ~node state in
  Vaspace.Addr_table.replace t.objs addr (Aobject.Any obj);
  with_san t (fun h ->
      h
        (San_hooks.Event.Object_created
           { addr = obj.Aobject.addr; name = obj.Aobject.name }));
  obj

let destroy_object t obj =
  let node = current_node t in
  if obj.Aobject.location <> node then
    invalid_arg "Runtime.destroy_object: object is not resident here";
  if obj.Aobject.attached <> [] || obj.Aobject.parent <> None then
    invalid_arg "Runtime.destroy_object: object has attachments";
  if (not obj.Aobject.immutable_) && obj.Aobject.replicas <> [] then
    invalid_arg "Runtime.destroy_object: object has live read replicas";
  Sim.Fiber.consume (cost t).Cost_model.forward_lookup_cpu;
  (* The block belongs to the heap that allocated it — the address's home
     node — which is not the current node once the object has migrated.
     Freeing locally here crashed (and leaked the home block) for any
     travelled object. *)
  let home = home_node t ~addr:obj.Aobject.addr in
  Vaspace.Heap.free (heap t home) obj.Aobject.addr;
  Descriptor.clear (descriptors t node) obj.Aobject.addr;
  (* The home node is where every bounce lands: clearing its entry too
     turns a later touch of the dead address into a crisp dangling
     failure.  A stale forwarding entry left there would send the chase
     home → ghost until it exhausted its hop budget. *)
  if home <> node then Descriptor.clear (descriptors t home) obj.Aobject.addr;
  with_san t (fun h ->
      h (San_hooks.Event.Object_destroyed { addr = obj.Aobject.addr }));
  Vaspace.Addr_table.remove t.objs obj.Aobject.addr

let find_object t addr = Vaspace.Addr_table.find_opt t.objs addr

(* Sorted by address so policy layers scanning the population see a
   deterministic order regardless of hash-table internals. *)
let objects t =
  Vaspace.Addr_table.fold (fun _ o acc -> o :: acc) t.objs []
  |> List.sort (fun a b ->
         compare (Aobject.addr_of_any a) (Aobject.addr_of_any b))

let check_failures t =
  Array.iter
    (fun m ->
      match Hw.Machine.failures m with
      | [] -> ()
      | (_, e) :: _ -> raise e)
    t.machines

(* --- crash injection and recovery (Amber-Phoenix) ------------------------- *)

(* Transient outage: the machine freezes (threads keep their state) and
   the wire drops packets addressed to it.  Nothing is recovered because
   nothing is lost — the restart resumes exactly where the crash cut. *)
let node_down t ~node =
  t.ctrs.node_crashes <- t.ctrs.node_crashes + 1;
  emit t "crash" (lazy (Printf.sprintf "node%d down (transient)" node));
  if t.failure_hooks <> [] then
    notify_failure t ~kind:"node_down" ~node
      ~detail:(Printf.sprintf "node%d down (transient)" node);
  Sim.Engine.note_access t.eng (Sim.Choice.net node);
  Hw.Ethernet.set_node_down t.net node;
  Hw.Machine.set_down t.machines.(node)

let node_restart t ~node =
  t.ctrs.node_restarts <- t.ctrs.node_restarts + 1;
  emit t "crash" (lazy (Printf.sprintf "node%d restarting" node));
  Sim.Engine.note_access t.eng (Sim.Choice.net node);
  Hw.Ethernet.set_node_up t.net node;
  Hw.Machine.set_up t.machines.(node)

(* Fail-stop recovery of one object whose state touched the dead node.

   - Master alive: drop the dead node from the replica set (its copy is
     gone; no recall needed — there is nobody to recall from).
   - Master dead, live copy exists: promote.  For a mutable object the
     best copy is the highest-epoch snapshot on a live node (ties to the
     lowest node id for determinism); writes after that snapshot are
     lost, so the epoch rolls back with the state.  Surviving replicas at
     the same epoch stay replicas of the new master; stale ones are
     recalled in place (their copy is dropped and their descriptor
     forwards to the new master).  For an immutable object every replica
     is a full copy: the lowest live replica node becomes the new master.
   - Master dead, no live copy: the object is lost.  Every further access
     raises [Object_lost]. *)
let recover_object t ~dead (Aobject.Any o) =
  if not o.Aobject.lost then begin
    let addr = o.Aobject.addr in
    let touched = o.Aobject.location = dead || List.mem dead o.Aobject.replicas in
    if touched then Sim.Engine.note_access t.eng (Sim.Choice.obj addr);
    if o.Aobject.location <> dead then begin
      (* Master survived: forget the dead replica, if any. *)
      if List.mem dead o.Aobject.replicas then begin
        o.Aobject.replicas <- List.filter (fun n -> n <> dead) o.Aobject.replicas;
        o.Aobject.grants <- List.filter (fun (n, _) -> n <> dead) o.Aobject.grants;
        Aobject.drop_snapshot o ~node:dead
      end
    end
    else if o.Aobject.immutable_ then begin
      match List.sort compare (List.filter (fun n -> n <> dead) o.Aobject.replicas) with
      | n :: rest ->
        t.ctrs.recovery_promotions <- t.ctrs.recovery_promotions + 1;
        emit t "crash"
          (lazy (Printf.sprintf "%s@0x%x: immutable master node%d -> node%d"
                   o.Aobject.name addr dead n));
        o.Aobject.location <- n;
        o.Aobject.replicas <- rest
      | [] ->
        t.ctrs.objects_lost <- t.ctrs.objects_lost + 1;
        emit t "crash"
          (lazy (Printf.sprintf "%s@0x%x lost with node%d" o.Aobject.name addr dead));
        o.Aobject.lost <- true;
        Vaspace.Addr_table.replace t.lost_addrs addr o.Aobject.name;
        Array.iter (fun tbl -> Descriptor.clear tbl addr) t.tables;
        if t.failure_hooks <> [] then
          notify_failure t ~kind:"object_lost" ~node:dead
            ~detail:(Printf.sprintf "%s@0x%x" o.Aobject.name addr)
    end
    else begin
      let survivors =
        List.filter (fun (n, _, _) -> n <> dead) o.Aobject.rcopies
      in
      let best =
        List.fold_left
          (fun acc (n, ep, v) ->
            match acc with
            | Some (bn, bep, _) when bep > ep || (bep = ep && bn < n) -> acc
            | _ -> Some (n, ep, v))
          None survivors
      in
      match best with
      | Some (n, ep, v) ->
        t.ctrs.recovery_promotions <- t.ctrs.recovery_promotions + 1;
        emit t "crash"
          (lazy (Printf.sprintf "%s@0x%x: promoting replica on node%d (epoch %d)"
                   o.Aobject.name addr n ep));
        o.Aobject.state <- v;
        o.Aobject.location <- n;
        o.Aobject.epoch <- ep;
        o.Aobject.writers <- 0;
        Aobject.drop_snapshot o ~node:n;
        Descriptor.set_resident t.tables.(n) addr;
        (* Surviving snapshots at the promoted epoch stay consistent read
           replicas; anything else rolls back with the master and is
           recalled in place. *)
        let keep, stale =
          List.partition (fun (_, sep, _) -> sep = ep)
            (List.filter (fun (sn, _, _) -> sn <> n) survivors)
        in
        o.Aobject.rcopies <- keep;
        o.Aobject.replicas <- List.map (fun (sn, _, _) -> sn) keep;
        o.Aobject.grants <-
          List.filter
            (fun (gn, _) -> List.exists (fun (sn, _, _) -> sn = gn) keep)
            o.Aobject.grants;
        List.iter
          (fun (sn, _, _) -> Descriptor.set_replica t.tables.(sn) addr n)
          keep;
        List.iter
          (fun (sn, _, _) -> Descriptor.set_forwarded t.tables.(sn) addr n)
          stale
      | None ->
        t.ctrs.objects_lost <- t.ctrs.objects_lost + 1;
        emit t "crash"
          (lazy (Printf.sprintf "%s@0x%x lost with node%d" o.Aobject.name addr dead));
        o.Aobject.lost <- true;
        o.Aobject.writers <- 0;
        o.Aobject.replicas <- [];
        o.Aobject.grants <- [];
        o.Aobject.rcopies <- [];
        Vaspace.Addr_table.replace t.lost_addrs addr o.Aobject.name;
        Array.iter (fun tbl -> Descriptor.clear tbl addr) t.tables;
        if t.failure_hooks <> [] then
          notify_failure t ~kind:"object_lost" ~node:dead
            ~detail:(Printf.sprintf "%s@0x%x" o.Aobject.name addr)
    end
  end

(* §3.3 after a funeral: every live descriptor still routing through the
   corpse — the home node's fallback entry above all — is rewritten to
   point at the post-recovery location, so chains that passed through the
   dead node resolve again without touching it.  Thread objects of
   surviving threads get the same treatment.  Skippable by the model
   checker's [crash_skip_repair] mutation, which demonstrates the step is
   load-bearing: an unrepaired chain walks into the corpse and dies of
   [Node_dead]. *)
let repair_chains t ~dead =
  let repair addr loc =
    t.ctrs.crash_chain_repairs <-
      t.ctrs.crash_chain_repairs + retarget t ~addr ~from:dead ~onto:loc
  in
  List.iter
    (fun (Aobject.Any o) ->
      if not o.Aobject.lost then repair o.Aobject.addr o.Aobject.location)
    (objects t);
  iter_threads t (fun ts ->
      if not (Hw.Machine.was_killed ts.tcb) then
        repair ts.taddr (Hw.Machine.id (Hw.Machine.home ts.tcb)))

let fail_stop t ~node:dead =
  (* Peer-death detection lives in the retransmit protocol: on the plain
     transport a caller blocked on the corpse would never learn of the
     death, and the run would end in a deadlock report. *)
  if not (Topaz.Rpc.reliable_mode t.rpc_fabric) then
    invalid_arg
      "Runtime.fail_stop: the plain RPC transport cannot detect a dead \
       node; set Config.rpc_reliable (or configure crashes or faults)";
  t.ctrs.node_crashes <- t.ctrs.node_crashes + 1;
  emit t "crash" (lazy (Printf.sprintf "node%d fail-stop" dead));
  (* Notify before recovery runs: a flight dump taken here captures the
     pre-crash window, not the repair traffic. *)
  if t.failure_hooks <> [] then
    notify_failure t ~kind:"node_dead" ~node:dead
      ~detail:(Printf.sprintf "node%d fail-stop" dead);
  Sim.Engine.note_access t.eng (Sim.Choice.net dead);
  (* The wire stops delivering to the corpse, and the transport aborts
     every outstanding transaction touching it.  Victims are collected
     first: the transport's [on_dead] callbacks (e.g. a thread flight)
     may kill — and thereby unregister — some of them. *)
  Hw.Ethernet.set_node_down t.net dead;
  let victims = ref [] in
  iter_threads t (fun ts ->
      if Hw.Machine.id (Hw.Machine.home ts.tcb) = dead then
        victims := ts :: !victims);
  let victims = List.rev !victims in
  Topaz.Rpc.mark_node_dead t.rpc_fabric ~node:dead;
  (* The machine freezes and every Amber thread that lived there dies. *)
  Hw.Machine.set_down t.machines.(dead);
  List.iter
    (fun ts ->
      Sim.Engine.note_access t.eng (Sim.Choice.tcb (Hw.Machine.tcb_id ts.tcb));
      crash_kill_thread t ts (Topaz.Rpc.Node_dead { node = dead }))
    victims;
  (* The corpse's server fibers are frozen mid-handler and will never
     unwind: retire whatever spans they hold open so traces stay
     balanced (Amber threads get the same treatment via
     [crash_kill_thread] above). *)
  List.iter
    (fun tid -> Sim.Span.finish_all_for t.spans ~tid)
    (Topaz.Rpc.server_tids t.rpc_fabric ~node:dead);
  (* The corpse's memory is gone, descriptor table included. *)
  t.tables.(dead) <- Descriptor.create_table ~node:dead;
  List.iter (fun any -> recover_object t ~dead any) (objects t);
  if not t.cfg.Config.crash_skip_repair then repair_chains t ~dead

(* Arm the crash injector.  With no crash configured this does nothing at
   all — no RNG split, no events — so crash-free runs stay byte-identical
   to a build without the injector. *)
let schedule_crashes t =
  let cfg = t.cfg in
  if Config.crashes_enabled cfg then begin
    let drawn =
      if cfg.Config.crash_rate > 0.0 then begin
        (* A dedicated stream, split once; each node consumes a fixed
           number of draws so one node's outcome never shifts another's. *)
        let rng = Sim.Rng.split (Sim.Engine.rng t.eng) in
        let acc = ref [] in
        for node = 1 to cfg.Config.nodes - 1 do
          let p = Sim.Rng.float rng in
          let at = Sim.Rng.uniform rng ~lo:0.05 ~hi:1.0 in
          if
            p < cfg.Config.crash_rate
            && not
                 (List.exists
                    (fun c -> c.Config.cnode = node)
                    cfg.Config.crashes)
          then
            acc :=
              {
                Config.cnode = node;
                at;
                restart = Some (at +. (16.0 *. cfg.Config.rpc_rto));
              }
              :: !acc
        done;
        List.rev !acc
      end
      else []
    in
    List.iter
      (fun c ->
        let key = Sim.Choice.node c.Config.cnode in
        ignore
          (Sim.Engine.schedule_at t.eng ~key
             ~label:(lazy (Printf.sprintf "crash node%d" c.Config.cnode))
             ~time:c.Config.at
             (fun () ->
               match c.Config.restart with
               | Some _ -> node_down t ~node:c.Config.cnode
               | None -> fail_stop t ~node:c.Config.cnode)
            : Sim.Engine.event_id);
        match c.Config.restart with
        | None -> ()
        | Some r ->
          ignore
            (Sim.Engine.schedule_at t.eng ~key
               ~label:(lazy (Printf.sprintf "restart node%d" c.Config.cnode))
               ~time:r
               (fun () -> node_restart t ~node:c.Config.cnode)
              : Sim.Engine.event_id))
      (cfg.Config.crashes @ drawn)
  end

let create cfg =
  let t = create_raw cfg in
  schedule_crashes t;
  t

let node_is_up t i = Hw.Machine.is_up (machine t i)
let lost_object_count t = Vaspace.Addr_table.length t.lost_addrs
