(* The id of the calling thread; all sync operations run in fiber
   context (they go through [Invoke.invoke]). *)
let self_id () = Hw.Machine.tcb_id (Hw.Machine.self_exn ())

let register_sync rt addr kind =
  Runtime.with_san rt (fun h -> h (San_hooks.Event.Sync_created { addr; kind }))

let emit_acquired rt t =
  Runtime.with_san rt (fun h ->
      h
        (San_hooks.Event.Lock_acquired
           { tid = self_id (); addr = t.Aobject.addr }))

let emit_released rt t =
  Runtime.with_san rt (fun h ->
      h
        (San_hooks.Event.Lock_released
           { tid = self_id (); addr = t.Aobject.addr }))

module Lock = struct
  type state = {
    mutable owner : int option;  (* tcb id of the holding thread *)
    waiters : (int * (unit -> unit)) Queue.t;
  }

  type t = { obj : state Aobject.t }

  let create rt ?(name = "lock") () =
    let obj =
      Runtime.create_object rt ~size:32 ~name
        { owner = None; waiters = Queue.create () }
    in
    register_sync rt obj.Aobject.addr "lock";
    { obj }

  let acquire rt t =
    let c = Runtime.cost rt in
    Invoke.invoke rt t.obj (fun s ->
        Sim.Fiber.consume c.Cost_model.lock_fast_cpu;
        let me = self_id () in
        match s.owner with
        | None -> s.owner <- Some me
        | Some _ ->
          (* Ownership is handed over directly by [release], so when the
             waker fires the lock is already ours. *)
          Sim.Span.with_span (Runtime.spans rt) Sim.Span.Lock_wait
            ~label:t.obj.Aobject.name ~obj:t.obj.Aobject.addr (fun () ->
              Sim.Fiber.block (fun wake -> Queue.add (me, wake) s.waiters)));
    emit_acquired rt t.obj

  let release rt t =
    let c = Runtime.cost rt in
    Invoke.invoke rt t.obj (fun s ->
        Sim.Fiber.consume c.Cost_model.lock_fast_cpu;
        (match s.owner with
        | None -> invalid_arg "Lock.release: lock is not held"
        | Some owner ->
          if owner <> self_id () then
            invalid_arg "Lock.release: lock is held by another thread");
        emit_released rt t.obj;
        match Queue.take_opt s.waiters with
        | None -> s.owner <- None
        | Some (next, wake) ->
          s.owner <- Some next;
          wake ())

  let try_acquire rt t =
    let c = Runtime.cost rt in
    let got =
      Invoke.invoke rt t.obj (fun s ->
          Sim.Fiber.consume c.Cost_model.lock_fast_cpu;
          match s.owner with
          | Some _ -> false
          | None ->
            s.owner <- Some (self_id ());
            true)
    in
    if got then
      emit_acquired rt t.obj;
    got

  let with_lock rt t f =
    acquire rt t;
    match f () with
    | r ->
      release rt t;
      r
    | exception e ->
      release rt t;
      raise e

  let is_held t = t.obj.Aobject.state.owner <> None
  let holder t = t.obj.Aobject.state.owner
  let move rt t ~dest = Mobility.move_to rt t.obj ~dest
  let locate rt t = Mobility.locate rt t.obj
end

module Spinlock = struct
  type state = {
    mutable owner : int option;
    mutable failed_probes : int;
  }

  type t = { obj : state Aobject.t }

  let create rt ?(name = "spinlock") () =
    let obj =
      Runtime.create_object rt ~size:16 ~name
        { owner = None; failed_probes = 0 }
    in
    register_sync rt obj.Aobject.addr "spinlock";
    { obj }

  let max_backoff = 100e-6

  let acquire rt t =
    let c = Runtime.cost rt in
    let probe () =
      Invoke.invoke rt t.obj (fun s ->
          Sim.Fiber.consume c.Cost_model.spin_probe_cpu;
          match s.owner with
          | Some _ ->
            s.failed_probes <- s.failed_probes + 1;
            false
          | None ->
            s.owner <- Some (self_id ());
            true)
    in
    let rec spin backoff =
      if not (probe ()) then begin
        (* Busy-wait: the processor is not relinquished (§2.2). *)
        Sim.Fiber.consume backoff;
        spin (Float.min max_backoff (backoff *. 2.0))
      end
    in
    spin c.Cost_model.spin_probe_cpu;
    emit_acquired rt t.obj

  let release rt t =
    let c = Runtime.cost rt in
    Invoke.invoke rt t.obj (fun s ->
        Sim.Fiber.consume c.Cost_model.spin_probe_cpu;
        (match s.owner with
        | None -> invalid_arg "Spinlock.release: lock is not held"
        | Some owner ->
          if owner <> self_id () then
            invalid_arg "Spinlock.release: lock is held by another thread");
        emit_released rt t.obj;
        s.owner <- None)

  let with_lock rt t f =
    acquire rt t;
    match f () with
    | r ->
      release rt t;
      r
    | exception e ->
      release rt t;
      raise e

  let is_held t = t.obj.Aobject.state.owner <> None
  let holder t = t.obj.Aobject.state.owner
  let move rt t ~dest = Mobility.move_to rt t.obj ~dest
  let contended_probes t = t.obj.Aobject.state.failed_probes
end

module Barrier = struct
  type state = {
    parties : int;
    mutable arrived : int;
    mutable wakers : (unit -> unit) list;
    mutable generation : int;
  }

  type t = { obj : state Aobject.t }

  let create rt ?(name = "barrier") ~parties () =
    if parties <= 0 then invalid_arg "Barrier.create: parties";
    let obj =
      Runtime.create_object rt ~size:32 ~name
        { parties; arrived = 0; wakers = []; generation = 0 }
    in
    register_sync rt obj.Aobject.addr "barrier";
    { obj }

  let pass rt t =
    let c = Runtime.cost rt in
    let addr = t.obj.Aobject.addr in
    Invoke.invoke rt t.obj (fun s ->
        Sim.Fiber.consume c.Cost_model.lock_fast_cpu;
        let gen = s.generation in
        Runtime.with_san rt (fun h ->
            h
              (San_hooks.Event.Barrier
                 { tid = self_id (); addr; gen; phase = Arrive }));
        if s.arrived + 1 >= s.parties then begin
          (* Last arrival releases everyone and opens a new generation. *)
          s.arrived <- 0;
          s.generation <- s.generation + 1;
          let sleepers = List.rev s.wakers in
          s.wakers <- [];
          Runtime.with_san rt (fun h ->
              h
                (San_hooks.Event.Barrier
                   { tid = self_id (); addr; gen; phase = Release }));
          List.iter (fun wake -> wake ()) sleepers
        end
        else begin
          s.arrived <- s.arrived + 1;
          Sim.Span.with_span (Runtime.spans rt) Sim.Span.Barrier_wait
            ~label:t.obj.Aobject.name ~obj:addr ~arg:gen (fun () ->
              Sim.Fiber.block (fun wake -> s.wakers <- wake :: s.wakers));
          Runtime.with_san rt (fun h ->
              h
                (San_hooks.Event.Barrier
                   { tid = self_id (); addr; gen; phase = Resume }))
        end)

  let generation t = t.obj.Aobject.state.generation
  let move rt t ~dest = Mobility.move_to rt t.obj ~dest
end

module Condition = struct
  type cell = {
    token : int;  (* process-unique id linking signal to wakeup *)
    mutable wake : (unit -> unit) option;
    mutable signaled : bool;
  }

  type state = { mutable queue : cell list (* FIFO: oldest first *) }
  type t = { obj : state Aobject.t }

  let next_token = ref 0

  let create rt ?(name = "condition") () =
    let obj = Runtime.create_object rt ~size:24 ~name { queue = [] } in
    register_sync rt obj.Aobject.addr "condition";
    { obj }

  let fire rt cell =
    Runtime.with_san rt (fun h ->
        h
          (San_hooks.Event.Cond_signal
             { tid = self_id (); token = cell.token }));
    cell.signaled <- true;
    match cell.wake with
    | Some wake -> wake ()
    | None -> (* waiter has not blocked yet; it will see [signaled] *) ()

  let wait rt t lock =
    (match Lock.holder lock with
    | None -> invalid_arg "Condition.wait: lock is not held"
    | Some owner ->
      if owner <> self_id () then
        invalid_arg "Condition.wait: lock is held by another thread");
    let c = Runtime.cost rt in
    incr next_token;
    let cell = { token = !next_token; wake = None; signaled = false } in
    Invoke.invoke rt t.obj (fun s ->
        Sim.Fiber.consume c.Cost_model.lock_fast_cpu;
        s.queue <- s.queue @ [ cell ]);
    Lock.release rt lock;
    Sim.Span.with_span (Runtime.spans rt) Sim.Span.Cond_wait
      ~label:t.obj.Aobject.name ~obj:t.obj.Aobject.addr (fun () ->
        Sim.Fiber.block (fun wake ->
            if cell.signaled then wake () else cell.wake <- Some wake));
    Runtime.with_san rt (fun h ->
        h
          (San_hooks.Event.Cond_wake
             { tid = self_id (); token = cell.token }));
    Lock.acquire rt lock

  let signal rt t =
    let c = Runtime.cost rt in
    Invoke.invoke rt t.obj (fun s ->
        Sim.Fiber.consume c.Cost_model.lock_fast_cpu;
        match s.queue with
        | [] -> ()
        | cell :: rest ->
          s.queue <- rest;
          fire rt cell)

  let broadcast rt t =
    let c = Runtime.cost rt in
    Invoke.invoke rt t.obj (fun s ->
        Sim.Fiber.consume c.Cost_model.lock_fast_cpu;
        let cells = s.queue in
        s.queue <- [];
        List.iter (fire rt) cells)

  let waiters t = List.length t.obj.Aobject.state.queue
  let move rt t ~dest = Mobility.move_to rt t.obj ~dest
  let locate rt t = Mobility.locate rt t.obj
end

module Monitor = struct
  type t = { lock : Lock.t }

  let create rt ?(name = "monitor") () =
    { lock = Lock.create rt ~name:(name ^ ".lock") () }

  let enter rt t = Lock.acquire rt t.lock
  let exit rt t = Lock.release rt t.lock

  let with_monitor rt t f =
    enter rt t;
    match f () with
    | r ->
      exit rt t;
      r
    | exception e ->
      exit rt t;
      raise e

  let new_condition rt _t = Condition.create rt ~name:"monitor.cond" ()
  let wait rt t cond = Condition.wait rt cond t.lock
  let signal rt cond = Condition.signal rt cond
  let broadcast rt cond = Condition.broadcast rt cond
  let move rt t ~dest = Lock.move rt t.lock ~dest
  let locate rt t = Lock.locate rt t.lock
end
