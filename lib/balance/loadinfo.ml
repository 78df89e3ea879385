module A = Amber

type entry = {
  mutable ready : float;
  mutable running : float;
  mutable stamp : float;
}

type t = {
  rt : A.Runtime.t;
  rng : Sim.Rng.t;
  (* boards.(viewer).(node): what [viewer] currently believes about
     [node].  A node's own entry is refreshed locally every tick; entries
     about peers arrive by gossip and may lag. *)
  boards : entry array array;
  msg_bytes : int;
}

(* EWMA weight of a fresh load sample. *)
let alpha = 0.5

let gossip_kind = Hw.Packet.Kind.v "gossip"

let create rt ~rng =
  let nodes = A.Runtime.nodes rt in
  {
    rt;
    rng;
    boards =
      Array.init nodes (fun _ ->
          Array.init nodes (fun _ -> { ready = 0.0; running = 0.0; stamp = 0.0 }));
    msg_bytes = 16 * nodes;
  }

let board t ~viewer = t.boards.(viewer)
let load e = e.ready +. e.running

(* Merge an incoming board snapshot: newer stamp wins per entry.  Runs in
   the gossip datagram's delivery context at the receiver. *)
let merge dst snap =
  Array.iteri
    (fun k (ready, running, stamp) ->
      if stamp > dst.(k).stamp then begin
        dst.(k).ready <- ready;
        dst.(k).running <- running;
        dst.(k).stamp <- stamp
      end)
    snap

let tick t =
  let rt = t.rt in
  let nodes = A.Runtime.nodes rt in
  let now = A.Runtime.now rt in
  let ctrs = A.Runtime.counters rt in
  ctrs.A.Runtime.gossip_rounds <- ctrs.A.Runtime.gossip_rounds + 1;
  for n = 0 to nodes - 1 do
    (* Sampling the local machine is free; only the gossip costs wire
       time and receiver CPU. *)
    let m = A.Runtime.machine rt n in
    let e = t.boards.(n).(n) in
    let mix old v = (alpha *. v) +. ((1.0 -. alpha) *. old) in
    e.ready <- mix e.ready (float_of_int (Hw.Machine.ready_length m));
    e.running <- mix e.running (float_of_int (Hw.Machine.busy_cpus m));
    e.stamp <- now
  done;
  if nodes > 1 then
    for n = 0 to nodes - 1 do
      let peer =
        let p = Sim.Rng.int t.rng (nodes - 1) in
        if p >= n then p + 1 else p
      in
      (* Snapshot at send time: the delivery callback runs later, after
         the board has moved on. *)
      let snap =
        Array.map (fun e -> (e.ready, e.running, e.stamp)) t.boards.(n)
      in
      Topaz.Rpc.send_reliable (A.Runtime.rpc rt) ~src:n ~dst:peer
        ~size:t.msg_bytes ~kind:gossip_kind (fun () ->
          merge t.boards.(peer) snap)
    done
