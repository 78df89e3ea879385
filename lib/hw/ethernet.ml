type mac = Fifo | Csma_cd

(* A node that stops receiving for a window of virtual time (GC pause,
   overload, half-dead interface): packets arriving inside the window
   are held and delivered when it ends. *)
type stall = { node : int; from_t : float; until_t : float }

type faults = {
  drop_prob : float;  (* lose the packet after it crossed the wire *)
  dup_prob : float;  (* deliver the packet twice *)
  delay_prob : float;  (* delivery hit by a latency spike *)
  delay_spike : float;  (* seconds added on a spike *)
  stalls : stall list;
}

let no_faults =
  {
    drop_prob = 0.0;
    dup_prob = 0.0;
    delay_prob = 0.0;
    delay_spike = 0.0;
    stalls = [];
  }

let faults_enabled f =
  f.drop_prob > 0.0 || f.dup_prob > 0.0 || f.delay_prob > 0.0
  || f.stalls <> []

let validate_faults f =
  let prob name p =
    if p < 0.0 || p >= 1.0 || Float.is_nan p then
      invalid_arg (Printf.sprintf "Ethernet faults: %s must be in [0, 1)" name)
  in
  prob "drop_prob" f.drop_prob;
  prob "dup_prob" f.dup_prob;
  prob "delay_prob" f.delay_prob;
  if f.delay_spike < 0.0 || Float.is_nan f.delay_spike then
    invalid_arg "Ethernet faults: delay_spike must be non-negative";
  List.iter
    (fun s ->
      if s.node < 0 then invalid_arg "Ethernet faults: stall node";
      if not (s.until_t > s.from_t) || s.from_t < 0.0 then
        invalid_arg "Ethernet faults: stall window must be ordered")
    f.stalls

(* A packet deferring for the medium under CSMA/CD. *)
type pending = {
  pkt : Packet.t;
  submitted : float;
  mutable attempts : int;
  mutable backoff_until : float;
}

(* The medium's float state.  Every field is a float, so OCaml stores
   the record flat and a packet updates it with no box and no write
   barrier. *)
type wire = {
  mutable free_at : float;
  (* Earliest contention-round event currently scheduled (infinity when
     none).  Extra stale rounds are harmless: they just recompute. *)
  mutable next_round : float;
  mutable queueing : float;
  mutable busy : float;
}

type t = {
  eng : Sim.Engine.t;
  clock : Sim.Engine.clock;
  bandwidth_bps : float;
  propagation : float;
  wire_overhead : float;
  header_bytes : int;
  mac : mac;
  rng : Sim.Rng.t;
  faults : faults;
  (* Dedicated stream so fault decisions never perturb CSMA/CD backoff;
     absent when faults are off, so a fault-free run draws exactly the
     same random numbers as a build without this layer. *)
  frng : Sim.Rng.t option;
  spans : Sim.Span.t;
  wire : wire;
  (* CSMA/CD state *)
  mutable waiting : pending list;
  (* statistics *)
  mutable packets : int;
  mutable bytes : int;
  mutable collision_count : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable stalled : int;
  mutable dropped_dead : int;
  (* Nodes currently crashed, by node id: a packet whose delivery
     instant finds its destination marked here vanishes (the NIC is
     powered off), covering both packets sent to a dead node and packets
     already in flight when the node died.  Grown by [set_node_down], so
     empty in every run without crash injection. *)
  mutable downs : bool array;
  (* Packets and bytes per packet kind, indexed by [Packet.Kind.index]
     and grown when a kind interned after [create] first goes out. *)
  mutable kind_packets : int array;
  mutable kind_bytes : int array;
}

let slot_time = 51.2e-6
let jam_time = 4.8e-6
let max_backoff_exp = 10

let create ~engine ?(bandwidth_bps = 10e6) ?(propagation = 20e-6)
    ?(wire_overhead = 50e-6) ?(header_bytes = 64) ?(mac = Fifo)
    ?(faults = no_faults) ?(spans = Sim.Span.disabled ()) () =
  if bandwidth_bps <= 0.0 then invalid_arg "Ethernet.create: bandwidth";
  validate_faults faults;
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let kinds = Packet.Kind.count () in
  {
    eng = engine;
    clock = Sim.Engine.clock engine;
    bandwidth_bps;
    propagation;
    wire_overhead;
    header_bytes;
    mac;
    rng;
    faults;
    frng = (if faults_enabled faults then Some (Sim.Rng.split rng) else None);
    spans;
    wire =
      {
        free_at = 0.0;
        next_round = Float.infinity;
        queueing = 0.0;
        busy = 0.0;
      };
    waiting = [];
    packets = 0;
    bytes = 0;
    collision_count = 0;
    dropped = 0;
    duplicated = 0;
    delayed = 0;
    stalled = 0;
    dropped_dead = 0;
    downs = [||];
    kind_packets = Array.make kinds 0;
    kind_bytes = Array.make kinds 0;
  }

let engine t = t.eng
let propagation t = t.propagation

let[@inline] tx_time t ~size =
  t.wire_overhead
  +. (8.0 *. float_of_int (size + t.header_bytes) /. t.bandwidth_bps)

let busy_until t = t.wire.free_at

let grow_kinds t =
  let n = max (Packet.Kind.count ()) (2 * Array.length t.kind_packets) in
  let grow a = Array.append a (Array.make (n - Array.length a) 0) in
  t.kind_packets <- grow t.kind_packets;
  t.kind_bytes <- grow t.kind_bytes

let[@inline] account t (p : Packet.t) ~waited ~tx =
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + p.Packet.size;
  let k = Packet.Kind.index p.Packet.kind in
  if k >= Array.length t.kind_packets then grow_kinds t;
  t.kind_packets.(k) <- t.kind_packets.(k) + 1;
  t.kind_bytes.(k) <- t.kind_bytes.(k) + p.Packet.size;
  t.wire.queueing <- t.wire.queueing +. waited;
  t.wire.busy <- t.wire.busy +. tx

let set_node_down t node =
  if node < 0 then invalid_arg "Ethernet.set_node_down: node";
  if node >= Array.length t.downs then
    t.downs <-
      Array.append t.downs (Array.make (node + 1 - Array.length t.downs) false);
  t.downs.(node) <- true

let set_node_up t node =
  if node >= 0 && node < Array.length t.downs then t.downs.(node) <- false

let is_down t node =
  node >= 0 && node < Array.length t.downs && t.downs.(node)

(* Schedule the receiver-side delivery event.  Under a chooser the event
   carries its node's conflict key and a label formatted only if a
   schedule is written; in normal operation neither is touched. *)
let schedule_delivery t (p : Packet.t) ~time =
  (* The down check runs at the delivery instant, not at send time: a
     packet in flight when its destination dies is lost too. *)
  let deliver () =
    if is_down t p.Packet.dst then begin
      t.dropped_dead <- t.dropped_dead + 1;
      Sim.Span.mark t.spans ~category:"crash"
        (lazy
          (Format.asprintf "dead-drop %a (node%d down)" Packet.pp p
             p.Packet.dst))
    end
    else p.Packet.deliver ()
  in
  if Sim.Engine.chooser_active t.eng then
    ignore
      (Sim.Engine.schedule_at t.eng ~key:(Sim.Choice.net p.Packet.dst)
         ~label:
           (lazy
             (Printf.sprintf "deliver %s %d>%d seq%d"
                (Packet.Kind.name p.Packet.kind)
                p.Packet.src p.Packet.dst p.Packet.seq))
         ~time deliver
        : Sim.Engine.event_id)
  else
    ignore (Sim.Engine.schedule_at t.eng ~time deliver : Sim.Engine.event_id)

(* Fault injection happens between the wire and the receiver: the packet
   always pays its transmission time (it really crossed the medium), and
   then may be lost, duplicated, or delayed before its [deliver] callback
   is scheduled.  All decisions come from the dedicated seeded stream, so
   a run's fault pattern is a pure function of the configuration seed.

   Under a fault-enabled chooser, the dice are replaced by an explicit
   three-way choice point (deliver / drop / duplicate) on every packet
   that the sender can retransmit (seq >= 0): the checker explores fault
   placements instead of sampling them.  Unnumbered packets are always
   delivered — dropping one loses the message for good, which is the
   transport's documented contract, not a schedule. *)
let inject t (p : Packet.t) ~delivery =
  match Sim.Engine.chooser t.eng with
  | Some c when c.Sim.Choice.faults && p.Packet.seq >= 0 ->
    let key = Sim.Choice.net p.Packet.dst in
    let tag verb =
      {
        Sim.Choice.dom = Sim.Choice.Fault;
        (* the ident names this packet's fate, not just the verb: sleep
           sets track transition identity across states, and "dup" of
           one packet is unrelated to "dup" of another *)
        ident =
          Sim.Choice.Fault_tag
            {
              verb;
              kind = Packet.Kind.name p.Packet.kind;
              src = p.Packet.src;
              dst = p.Packet.dst;
              seq = p.Packet.seq;
            };
        key;
        label =
          lazy
            (Printf.sprintf "%s %s %d>%d seq%d" verb
               (Packet.Kind.name p.Packet.kind)
               p.Packet.src p.Packet.dst p.Packet.seq);
      }
    in
    let cands = [| tag "deliver"; tag "drop"; tag "dup" |] in
    (match c.Sim.Choice.pick Sim.Choice.Fault cands with
    | 1 -> t.dropped <- t.dropped + 1
    | 2 ->
      t.duplicated <- t.duplicated + 1;
      schedule_delivery t p ~time:delivery;
      schedule_delivery t p ~time:(delivery +. t.propagation)
    | _ -> schedule_delivery t p ~time:delivery)
  | Some _ | None -> (
    match t.frng with
    | None -> schedule_delivery t p ~time:delivery
    | Some rng ->
    let f = t.faults in
    let emit_fault what =
      Sim.Span.mark t.spans ~category:"fault"
        (lazy (Format.asprintf "%s %a" what Packet.pp p))
    in
    let delivery =
      List.fold_left
        (fun d s ->
          if s.node = p.Packet.dst && d >= s.from_t && d < s.until_t then begin
            t.stalled <- t.stalled + 1;
            emit_fault
              (Printf.sprintf "stall(node%d until %.6fs)" s.node s.until_t);
            s.until_t
          end
          else d)
        delivery f.stalls
    in
    if f.drop_prob > 0.0 && Sim.Rng.float rng < f.drop_prob then begin
      t.dropped <- t.dropped + 1;
      emit_fault "drop"
    end
    else begin
      let delivery =
        if f.delay_prob > 0.0 && Sim.Rng.float rng < f.delay_prob then begin
          t.delayed <- t.delayed + 1;
          emit_fault (Printf.sprintf "delay(+%.0fus)" (f.delay_spike *. 1e6));
          delivery +. f.delay_spike
        end
        else delivery
      in
      schedule_delivery t p ~time:delivery;
      if f.dup_prob > 0.0 && Sim.Rng.float rng < f.dup_prob then begin
        t.duplicated <- t.duplicated + 1;
        emit_fault "duplicate";
        schedule_delivery t p ~time:(delivery +. t.propagation)
      end
    end)

let mark_transmit t (p : Packet.t) ~submitted ~start ~tx =
  Sim.Span.mark t.spans ~category:"net" ~at:start
    (lazy
      (Format.asprintf "%a queued=%.0fus tx=%.0fus" Packet.pp p
         ((start -. submitted) *. 1e6)
         (tx *. 1e6)))

(* Begin transmitting [p] at [start] (medium known free then).  Inlined,
   so [send]'s clock read reaches the float state unboxed. *)
let[@inline] transmit t (p : Packet.t) ~submitted ~start =
  let tx = tx_time t ~size:p.Packet.size in
  let done_at = start +. tx in
  t.wire.free_at <- done_at;
  account t p ~waited:(start -. submitted) ~tx;
  let delivery = done_at +. t.propagation in
  if Sim.Span.marking t.spans then mark_transmit t p ~submitted ~start ~tx;
  inject t p ~delivery;
  delivery

(* --- CSMA/CD ------------------------------------------------------------ *)

(* Run one contention round at the current time: the stations whose
   backoff has expired attempt together; one succeeds alone, several
   collide and back off. *)
let rec csma_round t =
  t.wire.next_round <- Float.infinity;
  let now = t.clock.now in
  if now < t.wire.free_at then schedule_round t t.wire.free_at
  else begin
    let ready, deferred =
      List.partition (fun w -> w.backoff_until <= now +. 1e-12) t.waiting
    in
    match ready with
    | [] ->
      (match deferred with
      | [] -> ()
      | _ ->
        let next =
          List.fold_left
            (fun acc w -> Float.min acc w.backoff_until)
            Float.infinity deferred
        in
        schedule_round t next)
    | [ w ] ->
      t.waiting <- deferred;
      ignore (transmit t w.pkt ~submitted:w.submitted ~start:now : float);
      if deferred <> [] then schedule_round t t.wire.free_at
    | several ->
      (* Collision: everyone jams, then picks a fresh backoff slot. *)
      t.collision_count <- t.collision_count + 1;
      t.wire.busy <- t.wire.busy +. jam_time;
      t.wire.free_at <- now +. jam_time;
      List.iter
        (fun w ->
          w.attempts <- w.attempts + 1;
          let exp = min w.attempts max_backoff_exp in
          let slots = Sim.Rng.int t.rng (1 lsl exp) in
          w.backoff_until <-
            now +. jam_time +. (slot_time *. float_of_int slots))
        several;
      t.waiting <- several @ deferred;
      let next =
        List.fold_left
          (fun acc w -> Float.min acc w.backoff_until)
          Float.infinity t.waiting
      in
      schedule_round t (Float.max next t.wire.free_at)
  end

and schedule_round t time =
  let time = Float.max time (t.clock.now) in
  if time < t.wire.next_round -. 1e-12 then begin
    t.wire.next_round <- time;
    ignore
      (Sim.Engine.schedule_at t.eng ~time (fun () -> csma_round t)
        : Sim.Engine.event_id)
  end

let send t (p : Packet.t) =
  let now = t.clock.now in
  match t.mac with
  | Fifo ->
    let start = if now > t.wire.free_at then now else t.wire.free_at in
    transmit t p ~submitted:now ~start
  | Csma_cd ->
    let w =
      { pkt = p; submitted = now; attempts = 0; backoff_until = now }
    in
    t.waiting <- t.waiting @ [ w ];
    schedule_round t (Float.max now t.wire.free_at);
    (* Earliest possible delivery, ignoring collisions. *)
    Float.max now t.wire.free_at
    +. tx_time t ~size:p.Packet.size
    +. t.propagation

let packets_sent t = t.packets
let bytes_sent t = t.bytes
let total_queueing t = t.wire.queueing
let busy_seconds t = t.wire.busy
let collisions t = t.collision_count
let faults_in_effect t = t.faults
let packets_dropped t = t.dropped
let packets_duplicated t = t.duplicated
let packets_delayed t = t.delayed
let packets_stalled t = t.stalled
let packets_dropped_dead t = t.dropped_dead

let traffic_by_kind t =
  let acc = ref [] in
  Array.iteri
    (fun k packets ->
      if packets > 0 then
        acc :=
          (Packet.Kind.name (Packet.Kind.of_index k), packets, t.kind_bytes.(k))
          :: !acc)
    t.kind_packets;
  List.sort compare !acc

let reset_stats t =
  t.packets <- 0;
  t.bytes <- 0;
  t.wire.queueing <- 0.0;
  t.wire.busy <- 0.0;
  t.collision_count <- 0;
  t.dropped <- 0;
  t.duplicated <- 0;
  t.delayed <- 0;
  t.stalled <- 0;
  Array.fill t.kind_packets 0 (Array.length t.kind_packets) 0;
  Array.fill t.kind_bytes 0 (Array.length t.kind_bytes) 0
