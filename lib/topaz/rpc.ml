type costs = {
  send_cpu_fixed : float;
  send_cpu_per_byte : float;
  recv_cpu_fixed : float;
  recv_cpu_per_byte : float;
  dispatch_cpu : float;
}

(* Calibrated (together with packet wire times) against the ~2.6 ms null
   RPC reported for the Firefly [Schroeder & Burrows 89]. *)
let default_costs =
  {
    send_cpu_fixed = 1.0e-3;
    send_cpu_per_byte = 0.4e-6;
    recv_cpu_fixed = 1.0e-3;
    recv_cpu_per_byte = 0.4e-6;
    dispatch_cpu = 0.1e-3;
  }

type endpoint = {
  machine : Hw.Machine.t;
  queue : (unit -> unit) Queue.t;
  mutable idle : (unit -> unit) list;  (* wakers of parked server threads *)
}

type reliability_counters = {
  timeouts : Sim.Stats.Counter.t;
  retransmits : Sim.Stats.Counter.t;
  dup_requests : Sim.Stats.Counter.t;
  dup_replies : Sim.Stats.Counter.t;
  dup_datagrams : Sim.Stats.Counter.t;
  reply_resends : Sim.Stats.Counter.t;
  acks_sent : Sim.Stats.Counter.t;
}

let fresh_reliability_counters () =
  {
    timeouts = Sim.Stats.Counter.create ();
    retransmits = Sim.Stats.Counter.create ();
    dup_requests = Sim.Stats.Counter.create ();
    dup_replies = Sim.Stats.Counter.create ();
    dup_datagrams = Sim.Stats.Counter.create ();
    reply_resends = Sim.Stats.Counter.create ();
    acks_sent = Sim.Stats.Counter.create ();
  }

(* Server-side progress of a sequence-numbered call: [Started] while the
   work executes (duplicate requests are suppressed), [Answered reply]
   after the reply packet went out (a duplicate request means the reply
   was probably lost, so the recorded packet is sent again). *)
type call_progress = Started | Answered of Hw.Packet.t

exception Node_dead of { node : int }

let () =
  Printexc.register_printer (function
    | Node_dead { node } ->
      Some
        (Printf.sprintf
           "Rpc.Node_dead { node = %d } (peer exhausted its retransmit \
            budget or was reported crashed)"
           node)
    | _ -> None)

(* One open sequenced transaction: a {!send_reliable} datagram or a
   reliable {!call}.  [resend] puts one more copy of its first leg on the
   wire; [on_dead] runs once if it gives up, with the dead node — [dst]
   when the retransmit budget ran out, either end when {!mark_node_dead}
   reports it.  A transaction is open exactly while it sits in the
   fabric's [outstanding] table. *)
type txn = {
  seq : int;
  src : int;
  dst : int;
  kind : Hw.Packet.Kind.t;
  resend : unit -> unit;
  on_dead : int -> unit;
  mutable attempts : int;
  mutable timer : Sim.Engine.event_id option;
}

(* --- wire-level datagram coalescing --------------------------------- *)

type coalesce = { flush_window : float }

let default_coalesce = { flush_window = 200e-6 }

(* Only messages at most [max_msg_bytes] are parked; a message that would
   grow the frame past [max_frame_bytes] flushes the batch ahead of
   itself. *)
let max_msg_bytes = 128
let max_frame_bytes = 1472

type coalescing_counters = {
  coal_eligible : int;
  coal_batched : int;
  coal_frames : int;
}

(* An open per-(src,dst) accumulation of small datagrams awaiting the
   flush timer.  [items] newest-first; [bytes] is the frame payload
   accumulated so far (headers included). *)
type pending_batch = {
  mutable items :
    (int * int * Hw.Packet.Kind.t * (unit -> unit) * (float -> unit) option)
    list;
      (* seq, size, kind, deliver *)
  mutable pbytes : int;
  mutable ptimer : Sim.Engine.event_id option;
}

(* Framed packet: an 8-byte frame header plus a 4-byte per-message
   header (length + kind tag) in front of each payload. *)
let frame_header_bytes = 8
let msg_header_bytes = 4
let coal_kind = Hw.Packet.Kind.v "coal"

type t = {
  ether : Hw.Ethernet.t;
  endpoints : endpoint array;
  c : costs;
  (* Reliability layer (only active when [reliable]; with it off the
     fabric is wire-transparent and behaves exactly like the original
     at-most-once transport). *)
  reliable : bool;
  rto : float;  (* initial retransmission timeout *)
  rel : reliability_counters;
  mutable seq : int;
  call_state : (int, call_progress) Hashtbl.t;
  delivered : (int, unit) Hashtbl.t;  (* one-way datagrams already executed *)
  (* Ack-acknowledged retirement of [delivered] entries: once the sender
     has seen the ack it stops retransmitting, so the entry is dead as
     soon as every copy it ever put on the wire has arrived or been
     dropped.  A count window alone is NOT enough: on a saturated medium
     a retransmit can sit queued longer than [retire_window] younger
     acks take to accumulate, so each queue entry also carries the
     arrival horizon — the latest predicted delivery of any copy of that
     seq (plus fault slack) — and is only evicted once the horizon has
     passed. *)
  retire_q : (int * float) Queue.t;  (* (seq, arrival horizon) *)
  retire_window : int;
  mutable retire_armed : bool;  (* horizon timer for the queue head *)
  (* The pre-fix PR-6 eviction policy: retire dedup entries on the count
     window alone, ignoring the arrival horizon.  Unsound — a straggler
     copy arriving after eviction executes twice — and kept only behind
     this flag so the model checker can demonstrate that it finds the
     bug ([amber_sim check --mutate dedup-count-window]). *)
  unsafe_dedup : bool;
  (* Retransmission attempts after which a silent peer is declared dead
     (the transaction fails with [Node_dead] instead of backing off
     forever).  Only consulted in reliable mode. *)
  max_retransmits : int;
  (* Open transactions by sequence number; walked by [mark_node_dead].
     Empty unless reliable mode is on. *)
  outstanding : (int, txn) Hashtbl.t;
  (* Nodes reported fail-stop dead by [mark_node_dead]: a transaction
     toward one gives up at its first timer instead of retransmitting
     into the corpse for its whole budget. *)
  dead : bool array;
  mutable peer_deaths : int;
  (* Peer-death watchers, fired by [mark_node_dead] after the
     transaction aborts; {!post_acked} registers one for the window the
     aborts cannot see.  Indexed by watched node; each entry keeps its
     registration id so firing order is deterministic. *)
  watchers : (int * (exn -> unit)) list array;
  mutable next_watch : int;
  (* The server-pool fibers, per node, for the crash injector: a
     fail-stopped node freezes them mid-handler and they never unwind,
     so recovery has to retire whatever spans they hold open. *)
  server_tcbs : Hw.Machine.tcb list array;
  coalesce : coalesce option;
  pending : (int * int, pending_batch) Hashtbl.t;  (* (src,dst) -> batch *)
  mutable coal_eligible : int;
  mutable coal_batched : int;
  mutable coal_frames : int;
  spans : Sim.Span.t;
  mutable calls : int;
  mutable posts : int;
  (* Server-pool admission control (Amber-Serve).  Consulted at the
     destination, right before a one-way datagram's handler would be
     queued on the server pool — but only for posts that supplied an
     [on_reject] continuation, so kernel protocol traffic (coherence,
     futures, mobility) can never be shed.  The hook must not consume
     virtual time or draw RNG: with no admission-subject posts in a run
     it contributes nothing and reports stay byte-identical. *)
  mutable admission : (dst:int -> kind:Hw.Packet.Kind.t -> bool) option;
  mutable posts_rejected : int;
}

let rec server_loop ep =
  (match Queue.take_opt ep.queue with
  | Some work -> work ()
  | None ->
    Sim.Fiber.block (fun wake -> ep.idle <- wake :: ep.idle));
  server_loop ep

let enqueue_work ep work =
  Queue.add work ep.queue;
  match ep.idle with
  | [] -> ()
  | wake :: rest ->
    ep.idle <- rest;
    wake ()

let create ~ether ~machines ?(servers_per_node = 8)
    ?(reliable = false) ?(rto = 25e-3) ?(retire_window = 1024)
    ?(max_retransmits = 30) ?(unsafe_count_window_dedup = false) ?coalesce
    ?(spans = Sim.Span.disabled ()) () =
  if rto <= 0.0 then invalid_arg "Rpc.create: rto must be positive";
  if max_retransmits <= 0 then
    invalid_arg "Rpc.create: max_retransmits must be positive";
  if retire_window < 0 then
    invalid_arg "Rpc.create: retire_window must be non-negative";
  (match coalesce with
  | Some c ->
    if c.flush_window <= 0.0 then
      invalid_arg "Rpc.create: coalesce.flush_window must be positive"
  | None -> ());
  let endpoints =
    Array.map
      (fun machine -> { machine; queue = Queue.create (); idle = [] })
      machines
  in
  let server_tcbs =
    Array.mapi
      (fun node ep ->
        List.init servers_per_node (fun i ->
            Hw.Machine.spawn ep.machine
              ~name:(Printf.sprintf "rpc-server-%d.%d" node i)
              (fun () -> server_loop ep)))
      endpoints
  in
  {
    ether;
    endpoints;
    c = default_costs;
    reliable;
    rto;
    rel = fresh_reliability_counters ();
    seq = 0;
    (* Only reliable mode fills these: they start at the smallest size
       and grow with the traffic. *)
    call_state = Hashtbl.create 16;
    delivered = Hashtbl.create 16;
    retire_q = Queue.create ();
    retire_window;
    retire_armed = false;
    unsafe_dedup = unsafe_count_window_dedup;
    max_retransmits;
    outstanding = Hashtbl.create 16;
    dead = Array.make (Array.length machines) false;
    peer_deaths = 0;
    watchers = Array.make (Array.length machines) [];
    next_watch = 0;
    server_tcbs;
    coalesce;
    pending = Hashtbl.create 16;
    coal_eligible = 0;
    coal_batched = 0;
    coal_frames = 0;
    spans;
    calls = 0;
    posts = 0;
    admission = None;
    posts_rejected = 0;
  }

let reliable_mode t = t.reliable
let reliability t = t.rel

let endpoint t node =
  if node < 0 || node >= Array.length t.endpoints then
    invalid_arg "Rpc: bad node id";
  t.endpoints.(node)

let send_side_cpu t size = t.c.send_cpu_fixed +. (t.c.send_cpu_per_byte *. float_of_int size)
let recv_side_cpu t size =
  t.c.recv_cpu_fixed +. (t.c.recv_cpu_per_byte *. float_of_int size)

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

let max_backoff_exp = 6

let backoff_delay t attempts =
  t.rto *. (2.0 ** float_of_int (min attempts max_backoff_exp))

let ack_bytes = 16

(* --- the wire ------------------------------------------------------------- *)

let raw_send t ?seq ~src ~dst ~size ~kind deliver =
  Hw.Ethernet.send t.ether (Hw.Packet.of_kind ?seq ~src ~dst ~size kind deliver)

(* One packet now; [on_wire] learns its predicted delivery time. *)
let send_now t ?seq ?on_wire ~src ~dst ~size ~kind deliver =
  let d = raw_send t ?seq ~src ~dst ~size ~kind deliver in
  match on_wire with Some f -> f d | None -> ()

(* Latest instant any copy of a packet predicted to land at [d] can still
   arrive: a stall window can hold it until the window ends, a delay
   spike adds its lag, and a fault-injected duplicate trails the original
   by one propagation.  (Under [Fifo] — the default — [d] from
   {!Hw.Ethernet.send} is exact; under [Csma_cd] it is a lower bound, and
   the count window below remains the backstop.) *)
let arrival_horizon t d =
  if Sim.Engine.chooser_active (Hw.Ethernet.engine t.ether) then
    (* Under a schedule chooser the medium may hold any copy arbitrarily
       long — there is no sound finite horizon, so dedup entries are
       simply never retired during checking. *)
    Float.infinity
  else
    let f = Hw.Ethernet.faults_in_effect t.ether in
    let d =
      List.fold_left (fun acc s -> Float.max acc s.Hw.Ethernet.until_t) d
        f.Hw.Ethernet.stalls
    in
    d +. f.Hw.Ethernet.delay_spike +. Hw.Ethernet.propagation t.ether

(* Flush the open batch for one (src,dst) pair.  A singleton goes out as
   the original packet (coalescing that message bought nothing but the
   window's latency); two or more messages ship as one framed packet
   whose delivery runs the queued callbacks in send order. *)
let flush_pair t key =
  match Hashtbl.find_opt t.pending key with
  | None -> ()
  | Some b -> (
    (match b.ptimer with
    | Some id -> Sim.Engine.cancel (Hw.Ethernet.engine t.ether) id
    | None -> ());
    b.ptimer <- None;
    Hashtbl.remove t.pending key;
    let src, dst = key in
    match List.rev b.items with
    | [] -> ()
    | [ (seq, size, kind, deliver, on_wire) ] ->
      send_now t ~seq ?on_wire ~src ~dst ~size ~kind deliver
    | items ->
      t.coal_frames <- t.coal_frames + 1;
      t.coal_batched <- t.coal_batched + List.length items;
      let size =
        List.fold_left
          (fun acc (_, sz, _, _, _) -> acc + msg_header_bytes + sz)
          frame_header_bytes items
      in
      let d =
        raw_send t ~src ~dst ~size ~kind:coal_kind (fun () ->
            List.iter (fun (_, _, _, deliver, _) -> deliver ()) items)
      in
      List.iter (fun (_, _, _, _, on_wire) -> Option.iter (fun f -> f d) on_wire) items)

(* Every one-way datagram leaves through here.  With coalescing off (or
   for a same-node / oversized message) this is exactly one Ethernet
   send, byte-identical to the original transport.  With it on, a small
   message parks in the per-(src,dst) batch; the first parked message
   arms the flush timer, and a message that would overflow the frame
   flushes the batch ahead of itself.  Per-pair FIFO order is preserved:
   an ineligible message first flushes whatever is parked ahead of it. *)
let wire_send t ?seq ?on_wire ~src ~dst ~size ~kind deliver =
  match t.coalesce with
  | None -> send_now t ?seq ?on_wire ~src ~dst ~size ~kind deliver
  | Some c ->
    let key = (src, dst) in
    if src = dst || size > max_msg_bytes then begin
      flush_pair t key;
      send_now t ?seq ?on_wire ~src ~dst ~size ~kind deliver
    end
    else begin
      t.coal_eligible <- t.coal_eligible + 1;
      (match Hashtbl.find_opt t.pending key with
      | Some b when b.pbytes + msg_header_bytes + size > max_frame_bytes ->
        flush_pair t key
      | _ -> ());
      let b =
        match Hashtbl.find_opt t.pending key with
        | Some b -> b
        | None ->
          let b = { items = []; pbytes = frame_header_bytes; ptimer = None } in
          Hashtbl.replace t.pending key b;
          b.ptimer <-
            Some
              (Sim.Engine.schedule
                 (Hw.Ethernet.engine t.ether)
                 ~delay:c.flush_window
                 (fun () ->
                   b.ptimer <- None;
                   flush_pair t key));
          b
      in
      let seq = match seq with Some s -> s | None -> -1 in
      b.items <- (seq, size, kind, deliver, on_wire) :: b.items;
      b.pbytes <- b.pbytes + msg_header_bytes + size
    end

(* --- reliable one-way datagram ------------------------------------------- *)

(* Evict dedup entries that have both fallen out of the count window and
   passed their arrival horizon.  If the head is beyond the window but a
   copy of it could still be in flight, arm a timer for the horizon
   instead of evicting — that in-flight copy is exactly the duplicate the
   table exists to suppress. *)
let rec drain_retire t =
  if Queue.length t.retire_q > t.retire_window then begin
    let seq, safe_after = Queue.peek t.retire_q in
    let eng = Hw.Ethernet.engine t.ether in
    (* Retirement mutates the receiver-side dedup table that
       [deliver_datagram] reads, so under a model checker the two do not
       commute even though they run on different nodes — tag the shared
       state so schedule exploration knows to reorder them. *)
    Sim.Engine.note_access eng Sim.Choice.rpc_dedup;
    if t.unsafe_dedup || safe_after <= (Sim.Engine.clock eng).now then begin
      ignore (Queue.pop t.retire_q : int * float);
      Hashtbl.remove t.delivered seq;
      drain_retire t
    end
    else if (not t.retire_armed) && Float.is_finite safe_after then begin
      t.retire_armed <- true;
      ignore
        (Sim.Engine.schedule_at eng ~time:safe_after (fun () ->
             t.retire_armed <- false;
             drain_retire t)
          : Sim.Engine.event_id)
    end
  end

(* --- the transaction ------------------------------------------------------ *)

(* Settle transaction [seq] — its answer arrived, or it gave up — and say
   whether this was the first settlement; a later answer is a duplicate.
   Plain-transport traffic is unsequenced ([seq = -1]): nothing is open,
   and every answer settles. *)
let settle t seq =
  seq < 0
  ||
  match Hashtbl.find_opt t.outstanding seq with
  | None -> false
  | Some tx ->
    Hashtbl.remove t.outstanding seq;
    (match tx.timer with
    | Some id -> Sim.Engine.cancel (Hw.Ethernet.engine t.ether) id
    | None -> ());
    true

let give_up t (tx : txn) ~dead =
  if settle t tx.seq then begin
    if dead = tx.dst then t.peer_deaths <- t.peer_deaths + 1;
    tx.on_dead dead
  end

(* The one retransmit loop: back off exponentially, send another copy, and
   declare [dst] dead once the budget is spent — or at once (a zero-delay
   timer) when [dst] was already reported dead. *)
let rec arm t (tx : txn) =
  let eng = Hw.Ethernet.engine t.ether in
  let thunk () =
    tx.timer <- None;
    if tx.attempts >= t.max_retransmits || t.dead.(tx.dst) then
      give_up t tx ~dead:tx.dst
    else begin
      Sim.Stats.Counter.incr t.rel.timeouts;
      Sim.Stats.Counter.incr t.rel.retransmits;
      tx.attempts <- tx.attempts + 1;
      tx.resend ();
      arm t tx
    end
  in
  let delay = if t.dead.(tx.dst) then 0.0 else backoff_delay t tx.attempts in
  tx.timer <-
    Some
      (if Sim.Engine.chooser_active eng then
         Sim.Engine.schedule eng
           ~key:(Sim.Choice.net tx.src)
           ~label:
             (lazy
               (Printf.sprintf "rto %s %d>%d seq%d"
                  (Hw.Packet.Kind.name tx.kind) tx.src tx.dst tx.seq))
           ~delay thunk
       else Sim.Engine.schedule eng ~delay thunk)

(* Open transaction [seq] and put its first copy on the wire with [send];
   the retransmit loop re-sends it until it is {!settle}d.  (Unsequenced
   traffic is sent once and never opened.) *)
let launch t ~seq ~src ~dst ~kind ~send ~on_dead =
  let tx =
    { seq; src; dst; kind; resend = send; on_dead; attempts = 0; timer = None }
  in
  Hashtbl.replace t.outstanding seq tx;
  send ();
  arm t tx

(* --- reliable one-way datagram ------------------------------------------- *)

(* At-least-once wire delivery with receiver-side dedup, i.e. exactly-once
   execution of [deliver] (which runs in event context at [dst], like a
   bare [Hw.Ethernet.send] callback).  The receiver acks every arrival,
   and the ack settles the transaction.  With the fabric in unreliable
   mode this is a plain Ethernet send. *)
let send_reliable t ?on_dead ~src ~dst ~size ~kind deliver =
  if not t.reliable then wire_send t ~src ~dst ~size ~kind deliver
  else begin
    let eng = Hw.Ethernet.engine t.ether in
    let seq = next_seq t in
    (* Latest predicted arrival over every copy of this datagram put on
       the wire, including retransmissions still queued when the ack
       lands. *)
    let horizon = ref 0.0 in
    let on_wire d = horizon := Float.max !horizon (arrival_horizon t d) in
    let deliver_ack () =
      Sim.Engine.note_access eng Sim.Choice.rpc_dedup;
      if settle t seq then begin
        (* The sender has the ack, so it will never retransmit this seq
           again: queue its dedup entry for retirement once the count
           window has passed AND no copy can still be in flight. *)
        Queue.add (seq, !horizon) t.retire_q;
        drain_retire t
      end
    in
    let deliver_datagram () =
      Sim.Engine.note_access eng Sim.Choice.rpc_dedup;
      if Hashtbl.mem t.delivered seq then
        Sim.Stats.Counter.incr t.rel.dup_datagrams
      else begin
        Hashtbl.replace t.delivered seq ();
        deliver ()
      end;
      (* Ack every arrival: if the previous ack was lost, the
         retransmitted datagram re-triggers it. *)
      Sim.Stats.Counter.incr t.rel.acks_sent;
      wire_send t ~seq ~src:dst ~dst:src ~size:ack_bytes
        ~kind:(Hw.Packet.Kind.ack kind) deliver_ack
    in
    (* The dead party's identity goes to [on_dead], which may live on
       either side of the wire (a future-notify's observer is at [dst]
       even when [src] is the corpse). *)
    launch t ~seq ~src ~dst ~kind
      ~send:(fun () ->
        wire_send t ~seq ~on_wire ~src ~dst ~size ~kind deliver_datagram)
      ~on_dead:(fun node ->
        match on_dead with Some f -> f (Node_dead { node }) | None -> ())
  end

(* --- request/reply -------------------------------------------------------- *)

(* Server-side dedup of a call request: [true] runs the work.  A
   sequenced request seen before is a duplicate — suppressed while the
   work runs, answered with the recorded reply packet after. *)
let first_request t seq =
  seq < 0
  || begin
       Sim.Engine.note_access (Hw.Ethernet.engine t.ether) Sim.Choice.rpc_calls;
       match Hashtbl.find_opt t.call_state seq with
       | None ->
         Hashtbl.replace t.call_state seq Started;
         true
       | Some Started ->
         Sim.Stats.Counter.incr t.rel.dup_requests;
         false
       | Some (Answered reply) ->
         Sim.Stats.Counter.incr t.rel.dup_requests;
         Sim.Stats.Counter.incr t.rel.reply_resends;
         ignore (Hw.Ethernet.send t.ether reply : float);
         false
     end

(* One body for both transports.  In reliable mode the request is a
   sequenced transaction, re-sent until the reply (its implicit ack)
   settles it; the server runs [work] at most once per seq and the
   client drops duplicate replies.  The plain transport sends each leg
   once, unsequenced. *)
let call t ~dst ~kind ~req_size ~work =
  t.calls <- t.calls + 1;
  let src = Hw.Machine.id (Hw.Machine.self_machine ()) in
  if src = dst then begin
    (* Local short-circuit: no wire, but the dispatch path still runs. *)
    Sim.Fiber.consume t.c.dispatch_cpu;
    let _size, result = work () in
    result
  end
  else begin
    let label = Hw.Packet.Kind.name kind in
    let csp = Sim.Span.start t.spans Sim.Span.Rpc_call ~label ~arg:dst () in
    Sim.Fiber.consume (send_side_cpu t req_size);
    let seq = if t.reliable then next_seq t else -1 in
    let result = ref None in
    (* One flight span per wire leg, first send to first delivery; finish
       is idempotent, so retransmits and duplicates leave it alone. *)
    let fsp =
      Sim.Span.start_flow t.spans Sim.Span.Net_flight ~label ~parent:csp
        ~arg:dst ()
    in
    let rsp = ref 0 in
    Sim.Fiber.block (fun wake ->
        let serve () =
          (* Runs in a server fiber on [dst]. *)
          Sim.Fiber.consume (recv_side_cpu t req_size +. t.c.dispatch_cpu);
          let ssp =
            Sim.Span.start t.spans Sim.Span.Rpc_server ~label ~parent:csp ()
          in
          let reply_size, value = work () in
          Sim.Fiber.consume (send_side_cpu t reply_size);
          Sim.Span.finish t.spans ssp;
          let rkind = Hw.Packet.Kind.reply kind in
          rsp :=
            Sim.Span.start_flow t.spans Sim.Span.Net_flight
              ~label:(Hw.Packet.Kind.name rkind) ~parent:csp ~arg:src ();
          let reply =
            Hw.Packet.of_kind ~seq ~src:dst ~dst:src ~size:reply_size rkind
              (fun () ->
                if seq >= 0 then
                  Sim.Engine.note_access
                    (Hw.Ethernet.engine t.ether)
                    Sim.Choice.rpc_calls;
                Sim.Span.finish t.spans !rsp;
                if settle t seq then begin
                  result := Some value;
                  wake ()
                end
                else Sim.Stats.Counter.incr t.rel.dup_replies)
          in
          if seq >= 0 then Hashtbl.replace t.call_state seq (Answered reply);
          ignore (Hw.Ethernet.send t.ether reply : float)
        in
        let request =
          Hw.Packet.of_kind ~seq ~src ~dst ~size:req_size kind (fun () ->
              Sim.Span.finish t.spans fsp;
              if first_request t seq then enqueue_work (endpoint t dst) serve)
        in
        if seq < 0 then ignore (Hw.Ethernet.send t.ether request : float)
        else
          launch t ~seq ~src ~dst ~kind
            ~send:(fun () -> ignore (Hw.Ethernet.send t.ether request : float))
            ~on_dead:(fun dead ->
              (* Neither leg will deliver now: close both flight spans (0 =
                 reply never sent, finish ignores it).  A dead caller has
                 nobody to wake — its thread dies with the node. *)
              Sim.Span.finish t.spans fsp;
              Sim.Span.finish t.spans !rsp;
              if dead = dst then wake ()));
    (* Back on the caller: unmarshal the reply.  Woken without one, the
       call gave up on [dst]. *)
    Sim.Fiber.consume (recv_side_cpu t 0);
    Sim.Span.finish t.spans csp;
    match !result with Some v -> v | None -> raise (Node_dead { node = dst })
  end

(* Fail-stop notification from the crash injector: promptly give up every
   open transaction touching [node], and record the death for the ones
   opened later.  Senders blocked on the corpse fail with [Node_dead] now
   instead of after the full retransmit budget; retransmit timers owned
   by the corpse go silent (a dead node stops transmitting).  Walked in
   seq order so the abort sequence is deterministic. *)
let mark_node_dead t ~node =
  t.dead.(node) <- true;
  Hashtbl.fold
    (fun seq tx acc ->
      if tx.src = node || tx.dst = node then (seq, tx) :: acc else acc)
    t.outstanding []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (_, tx) -> give_up t tx ~dead:node);
  (* Fire the peer-death watchers after the aborts: an abort's [on_dead]
     typically unregisters its handshake's watcher, so the watcher only
     fires for waits the abort walk could not reach.  Snapshot-and-clear
     before firing — a watcher body may register new watchers (a retry)
     without them being invoked for this death. *)
  match t.watchers.(node) with
  | [] -> ()
  | ws ->
    t.watchers.(node) <- [];
    List.sort (fun (a, _) (b, _) -> compare a b) ws
    |> List.iter (fun (_, f) -> f (Node_dead { node }))

let server_tids t ~node =
  if node < 0 || node >= Array.length t.server_tcbs then
    invalid_arg "Rpc.server_tids: bad node id";
  List.map Hw.Machine.tcb_id t.server_tcbs.(node) |> List.sort compare

let watch_peer t ~node f =
  t.next_watch <- t.next_watch + 1;
  let id = t.next_watch in
  t.watchers.(node) <- (id, f) :: t.watchers.(node);
  id

let unwatch t ~node id =
  match t.watchers.(node) with
  | [] -> ()
  | ws -> t.watchers.(node) <- List.filter (fun (i, _) -> i <> id) ws

let set_admission t hook = t.admission <- hook
let posts_rejected t = t.posts_rejected

(* Posts without [on_reject] are exempt from admission: losing a kernel
   datagram to load shedding would wedge a protocol, not shed a
   request. *)
let admitted t ~dst ~kind on_reject =
  match (t.admission, on_reject) with
  | Some admit, Some _ -> admit ~dst ~kind
  | _ -> true

let reject t on_reject =
  t.posts_rejected <- t.posts_rejected + 1;
  match on_reject with Some f -> f () | None -> ()

let post ?parent ?on_dead ?on_reject t ~src ~dst ~kind ~size handler =
  t.posts <- t.posts + 1;
  (* Admission is checked where the request lands (delivery for a remote
     post, enqueue for a local one): the per-node controller sees its own
     queue depth and token buckets at arrival time. *)
  if src = dst then begin
    if admitted t ~dst ~kind on_reject then
      enqueue_work (endpoint t dst) (fun () ->
          Sim.Fiber.consume t.c.dispatch_cpu;
          handler ())
    else reject t on_reject
  end
  else begin
    (* Both the wire leg and the remote handler parent to whatever span
       the poster had open (0 when posted from a timer event), keeping the
       handler's nested spans causally attached to the decision that
       posted it.  A caller that posts from event context — inside a
       [Sim.Fiber.block] register callback, where no fiber is current —
       passes [?parent] explicitly, captured while still on the fiber.
       With spans off no span is started, so no span argument is built,
       and [finish] of span 0 does nothing. *)
    let parent =
      match parent with Some p -> p | None -> Sim.Span.current t.spans
    in
    let fsp =
      if Sim.Span.enabled t.spans then
        Sim.Span.start_flow t.spans Sim.Span.Net_flight
          ~label:(Hw.Packet.Kind.name kind) ~parent ~arg:dst ()
      else 0
    in
    (* A datagram the transport gives up on (peer died) never delivers:
       close its flight span before surfacing the death. *)
    let on_dead =
      if fsp = 0 then on_dead
      else
        Some
          (fun e ->
            Sim.Span.finish t.spans fsp;
            match on_dead with Some f -> f e | None -> ())
    in
    send_reliable t ?on_dead ~src ~dst ~size ~kind (fun () ->
        Sim.Span.finish t.spans fsp;
        if admitted t ~dst ~kind on_reject then
          enqueue_work (endpoint t dst) (fun () ->
              Sim.Fiber.consume (recv_side_cpu t size +. t.c.dispatch_cpu);
              let ssp =
                if Sim.Span.enabled t.spans then
                  Sim.Span.start t.spans Sim.Span.Rpc_server
                    ~label:(Hw.Packet.Kind.name kind) ~async:true ~parent ()
                else 0
              in
              match handler () with
              | () -> Sim.Span.finish t.spans ssp
              | exception e ->
                Sim.Span.finish t.spans ssp;
                raise e)
        else reject t on_reject)
  end

(* The legs' own give-ups miss one window: a datagram is acked at
   delivery, before its handler runs, so a [dst] that dies with the
   handler still queued leaves no open transaction to abort — only the
   peer watcher learns of that death.  [settled] lets the ack or the
   first death report, whichever comes first, wake the caller. *)
let post_acked t ~src ~dst ~kind ~size ~ack_kind ~ack_size ~on_dead handler =
  (* The legs are posted from event context: parent them to the span the
     caller has open now. *)
  let parent = Sim.Span.current t.spans in
  let failed = ref None in
  Sim.Fiber.block (fun wake ->
      let settled = ref false in
      let watch = ref 0 in
      let settle () =
        unwatch t ~node:dst !watch;
        let first = not !settled in
        settled := true;
        first
      in
      let dead e =
        if settle () then begin
          failed := Some e;
          on_dead e;
          wake ()
        end
      in
      watch := watch_peer t ~node:dst dead;
      post ~parent ~on_dead:dead t ~src ~dst ~kind ~size (fun () ->
          if handler () then
            post ~on_dead:dead t ~src:dst ~dst:src ~kind:ack_kind
              ~size:ack_size (fun () -> if settle () then wake ())));
  match !failed with Some e -> raise e | None -> ()

let calls_made t = t.calls
let posts_made t = t.posts
let peer_deaths t = t.peer_deaths
let backlog t node = Queue.length (endpoint t node).queue
let in_flight t = Hashtbl.length t.outstanding
let delivered_size t = Hashtbl.length t.delivered

let coalescing t =
  {
    coal_eligible = t.coal_eligible;
    coal_batched = t.coal_batched;
    coal_frames = t.coal_frames;
  }
