module Runtime = Amber.Runtime

let acquire_kind = Hw.Packet.Kind.v "rpc-lock-acq"
let release_kind = Hw.Packet.Kind.v "rpc-lock-rel"
let barrier_kind = Hw.Packet.Kind.v "rpc-barrier"

module Lock = struct
  type state = {
    mutable held : bool;
    waiters : (unit -> unit) Queue.t;
  }

  type t = { rt : Runtime.t; home : int; s : state }

  let create rt ~home =
    if home < 0 || home >= Runtime.nodes rt then
      invalid_arg "Sync_rpc.Lock.create: bad home node";
    { rt; home; s = { held = false; waiters = Queue.create () } }

  let acquire t =
    Topaz.Rpc.call (Runtime.rpc t.rt) ~dst:t.home ~kind:acquire_kind
      ~req_size:32 ~work:(fun () ->
        if not t.s.held then t.s.held <- true
        else Sim.Fiber.block (fun wake -> Queue.add wake t.s.waiters);
        (16, ()))

  let release t =
    Topaz.Rpc.call (Runtime.rpc t.rt) ~dst:t.home ~kind:release_kind
      ~req_size:32 ~work:(fun () ->
        if not t.s.held then invalid_arg "Sync_rpc.Lock.release: not held";
        (match Queue.take_opt t.s.waiters with
        | None -> t.s.held <- false
        | Some wake -> wake ());
        (16, ()))

  let with_lock t f =
    acquire t;
    match f () with
    | r ->
      release t;
      r
    | exception e ->
      release t;
      raise e
end

module Barrier = struct
  type state = {
    parties : int;
    mutable arrived : int;
    mutable wakers : (unit -> unit) list;
  }

  type t = { rt : Runtime.t; home : int; s : state }

  let create rt ~home ~parties =
    if parties <= 0 then invalid_arg "Sync_rpc.Barrier.create: parties";
    if home < 0 || home >= Runtime.nodes rt then
      invalid_arg "Sync_rpc.Barrier.create: bad home node";
    { rt; home; s = { parties; arrived = 0; wakers = [] } }

  let pass t =
    Topaz.Rpc.call (Runtime.rpc t.rt) ~dst:t.home ~kind:barrier_kind
      ~req_size:32 ~work:(fun () ->
        if t.s.arrived + 1 >= t.s.parties then begin
          t.s.arrived <- 0;
          let ws = List.rev t.s.wakers in
          t.s.wakers <- [];
          List.iter (fun wake -> wake ()) ws
        end
        else begin
          t.s.arrived <- t.s.arrived + 1;
          Sim.Fiber.block (fun wake -> t.s.wakers <- wake :: t.s.wakers)
        end;
        (16, ()))
end
