let src = Logs.Src.create "hw.machine" ~doc:"multiprocessor node model"

module Log = (val Logs.src_log src : Logs.LOG)

type thread_state =
  | Ready
  | Running of int
  | Blocked
  | Finished of Sim.Fiber.outcome

type tcb = {
  tid : int;
  name : string;
  mutable machine : t;
  mutable tstate : thread_state;
  (* Continuation to run when next placed on a CPU.  [None] while the fiber
     is actively being stepped or after it finishes. *)
  mutable step : (unit -> Sim.Fiber.paused) option;
  (* CPU seconds still owed from a Consume that was interrupted by
     preemption or quantum expiry. *)
  mutable pending_consume : float;
  mutable prio : int;
  mutable on_resume : (tcb -> bool) option;
  mutable finish_callbacks : (Sim.Fiber.outcome -> unit) list;
  mutable cpu_seconds : float;
  mutable dispatches : int;
  (* Terminated by crash injection ({!kill}) rather than by its own
     fiber.  A stale waker aimed at a killed thread — a lock release, a
     late reply, an in-flight thread-state packet — becomes a no-op
     instead of an [Invalid_argument]: the rest of the cluster cannot
     know the thread died before poking it. *)
  mutable killed : bool;
}

and cpu = {
  index : int;
  mutable cstate : cpu_state;
  mutable busy_seconds : float;
  mutable quantum_left : float;
}

(* A busy CPU holds the running chunk and the one event that completes
   it; the event's thunk closes over [busy], so the id sits beside it. *)
and cpu_state = Idle | Busy of busy * Sim.Engine.event_id

and busy = {
  btcb : tcb;
  chunk_started : float;
  chunk : float;
  (* CPU demand remaining after the current chunk completes. *)
  remaining : float;
}

and t = {
  mid : int;
  eng : Sim.Engine.t;
  cpus : cpu list;
  mutable pol : tcb Sched_policy.t;
  ctx_switch : float;
  quantum : float;
  preempt_cost : float;
  spans : Sim.Span.t;
  mutable dispatch_pending : bool;
  mutable dispatches_total : int;
  mutable preemptions : int;
  mutable failed : (tcb * exn) list;
  (* [false] while the node is crashed: no CPU dispatches happen, so every
     fiber homed here is frozen in place until {!set_up} (restart) or
     {!kill} (fail-stop). *)
  mutable up : bool;
}

let tid_counter = ref 0

(* Restart thread-id assignment for a fresh cluster.  Tids are embedded in
   span traces and exports; without the reset they would depend on how
   many clusters the hosting process ran before this one. *)
let reset_tids () = tid_counter := 0

(* The thread whose fiber is executing right now.  The simulator is
   single-threaded and fibers run to their next pause within one event, so
   a single slot suffices. *)
let current : tcb option ref = ref None

let epsilon = 1e-12

let create ~engine ~id ~cpus ?(ctx_switch = 0.0) ?(quantum = 0.1)
    ?(preempt_cost = 0.0) ?policy ?(spans = Sim.Span.disabled ()) () =
  if cpus <= 0 then invalid_arg "Machine.create: cpus must be positive";
  if quantum <= 0.0 then invalid_arg "Machine.create: quantum must be positive";
  let pol = match policy with Some p -> p | None -> Sched_policy.fifo () in
  {
    mid = id;
    eng = engine;
    cpus =
      List.init cpus (fun index ->
          { index; cstate = Idle; busy_seconds = 0.0; quantum_left = quantum });
    pol;
    ctx_switch;
    quantum;
    preempt_cost;
    spans;
    dispatch_pending = false;
    dispatches_total = 0;
    preemptions = 0;
    failed = [];
    up = true;
  }

let id m = m.mid
let engine m = m.eng
let cpu_count m = List.length m.cpus
let policy_name m = m.pol.Sched_policy.name

let set_policy m new_pol =
  let rec drain () =
    match m.pol.Sched_policy.dequeue () with
    | None -> ()
    | Some tcb ->
      new_pol.Sched_policy.enqueue tcb;
      drain ()
  in
  drain ();
  m.pol <- new_pol

let tcb_id t = t.tid
let tcb_name t = t.name
let state t = t.tstate
let home t = t.machine
let set_priority t p = t.prio <- p
let priority t = t.prio
let set_on_resume t hook = t.on_resume <- hook
let cpu_time t = t.cpu_seconds

let add_pending_work t dt =
  if dt < 0.0 || Float.is_nan dt then
    invalid_arg "Machine.add_pending_work: bad duration";
  t.pending_consume <- t.pending_consume +. dt

let on_finish t cb =
  match t.tstate with
  | Finished outcome -> cb outcome
  | Ready | Running _ | Blocked -> t.finish_callbacks <- cb :: t.finish_callbacks

let self () = !current

let self_exn () =
  match !current with
  | Some t -> t
  | None -> failwith "Machine.self_exn: not inside a fiber"

let self_machine () = (self_exn ()).machine

let mark m category detail = Sim.Span.mark m.spans ~category detail

(* --- dispatching ------------------------------------------------------- *)

let rec schedule_dispatch m =
  if m.up && not m.dispatch_pending then begin
    m.dispatch_pending <- true;
    let thunk () =
      m.dispatch_pending <- false;
      dispatch m
    in
    ignore
      ((if Sim.Engine.chooser_active m.eng then
          Sim.Engine.schedule m.eng
            ~key:(Printf.sprintf "node:%d" m.mid)
            ~label:(Printf.sprintf "dispatch node%d" m.mid)
            ~delay:0.0 thunk
        else Sim.Engine.schedule m.eng ~delay:0.0 thunk)
        : Sim.Engine.event_id)
  end

(* Fill the CPUs that were idle on entry, in index order.  A CPU freed
   while filling (by [preempt_all]) waits for the dispatch it schedules. *)
and dispatch m =
  if not m.up then ()
  else begin
  let idle = List.filter (fun c -> c.cstate == Idle) m.cpus in
  let rec fill = function
    | [] -> ()
    | cpu :: rest ->
      (* Nested dispatches (from a pause handled during [run_on]) may have
         claimed this CPU already. *)
      if cpu.cstate == Idle then begin
        match next_runnable m with
        | None -> ()
        | Some tcb ->
          run_on m cpu tcb;
          fill rest
      end
      else fill rest
  in
  fill idle
  end

(* Under a chooser, which ready thread runs next is a decision point:
   drain the policy, put the question to the chooser, and re-enqueue with
   the chosen thread at the front (relative order of the rest is
   preserved, so declining to reorder reproduces the policy's own
   answer). *)
and choose_ready (c : Sim.Choice.t) m =
  let rec drain acc =
    match m.pol.Sched_policy.dequeue () with
    | None -> List.rev acc
    | Some tcb -> drain (tcb :: acc)
  in
  let ready = Array.of_list (drain []) in
  let cands =
    Array.map
      (fun tcb ->
        Sim.Choice.candidate
          ~key:(Printf.sprintf "node:%d" m.mid)
          ~label:(Printf.sprintf "run %s t%d node%d" tcb.name tcb.tid m.mid)
          ~dom:Sim.Choice.Fiber
          ~ident:(Printf.sprintf "t%d" tcb.tid)
          ())
      ready
  in
  let idx = c.Sim.Choice.pick Sim.Choice.Fiber cands in
  m.pol.Sched_policy.enqueue ready.(idx);
  Array.iteri (fun i tcb -> if i <> idx then m.pol.Sched_policy.enqueue tcb) ready

(* Pop ready threads, running each one's on_resume hook; a hook that
   returns false has taken the thread over (e.g. to migrate it), so keep
   looking. *)
and next_runnable m =
  (match Sim.Engine.chooser m.eng with
  | Some c when m.pol.Sched_policy.length () > 1 -> choose_ready c m
  | Some _ | None -> ());
  match m.pol.Sched_policy.dequeue () with
  | None -> None
  | Some tcb -> (
    match tcb.on_resume with
    | None -> Some tcb
    | Some hook ->
      if hook tcb then Some tcb
      else begin
        (* The hook must have parked the thread elsewhere. *)
        (match tcb.tstate with
        | Ready ->
          invalid_arg
            "Machine: on_resume hook returned false but left thread Ready"
        | Running _ | Blocked | Finished _ -> ());
        next_runnable m
      end)

and run_on m cpu tcb =
  tcb.tstate <- Running cpu.index;
  tcb.dispatches <- tcb.dispatches + 1;
  m.dispatches_total <- m.dispatches_total + 1;
  cpu.quantum_left <- m.quantum;
  if Sim.Span.marking m.spans then
    mark m "sched"
      (lazy (Printf.sprintf "node%d cpu%d runs %s" m.mid cpu.index tcb.name));
  (* The context-switch cost plus any leftover consume is charged before
     the fiber itself resumes. *)
  let owed = m.ctx_switch +. tcb.pending_consume in
  tcb.pending_consume <- 0.0;
  if owed > epsilon then start_chunk m cpu tcb ~remaining:owed
  else resume_fiber m cpu tcb

and resume_fiber m cpu tcb =
  match tcb.step with
  | None ->
    (* A finished or already-running thread must never reach a CPU. *)
    invalid_arg "Machine: thread has no continuation"
  | Some step ->
    tcb.step <- None;
    let saved = !current in
    current := Some tcb;
    let paused = step () in
    current := saved;
    handle_pause m cpu tcb paused

and handle_pause m cpu tcb (paused : Sim.Fiber.paused) =
  match paused with
  | Sim.Fiber.Done outcome -> finish m cpu tcb outcome
  | Sim.Fiber.Consumed (dt, r) ->
    tcb.step <- Some r.Sim.Fiber.resume;
    start_chunk m cpu tcb ~remaining:dt
  | Sim.Fiber.Blocked (register, r) ->
    tcb.step <- Some r.Sim.Fiber.resume;
    tcb.tstate <- Blocked;
    release m cpu;
    (* Register after marking Blocked so a synchronous wake works. *)
    register (waker tcb);
    dispatch m
  | Sim.Fiber.Yielded r ->
    tcb.step <- Some r.Sim.Fiber.resume;
    tcb.tstate <- Ready;
    tcb.machine.pol.Sched_policy.enqueue tcb;
    release m cpu;
    dispatch m

and start_chunk m cpu tcb ~remaining =
  let chunk = Float.min remaining cpu.quantum_left in
  let chunk = Float.max chunk epsilon in
  let busy =
    {
      btcb = tcb;
      chunk_started = Sim.Engine.now m.eng;
      chunk;
      remaining = remaining -. chunk;
    }
  in
  let thunk () = chunk_done m cpu busy in
  let ev =
    if Sim.Engine.chooser_active m.eng then
      Sim.Engine.schedule m.eng
        ~key:(Printf.sprintf "node:%d" m.mid)
        ~label:(Printf.sprintf "chunk %s t%d node%d" tcb.name tcb.tid m.mid)
        ~delay:chunk thunk
    else Sim.Engine.schedule m.eng ~delay:chunk thunk
  in
  cpu.cstate <- Busy (busy, ev)

and chunk_done m cpu busy =
  let tcb = busy.btcb in
  credit cpu tcb busy.chunk;
  cpu.quantum_left <- cpu.quantum_left -. busy.chunk;
  if busy.remaining > epsilon then
    if cpu.quantum_left > epsilon then
      start_chunk m cpu tcb ~remaining:busy.remaining
    else if m.pol.Sched_policy.length () > 0 then
      preempt_to_queue m cpu tcb ~owed:busy.remaining
    else begin
      cpu.quantum_left <- m.quantum;
      start_chunk m cpu tcb ~remaining:busy.remaining
    end
  else if cpu.quantum_left <= epsilon && m.pol.Sched_policy.length () > 0 then
    (* Quantum boundary between consume requests: timeslice ends here. *)
    preempt_to_queue m cpu tcb ~owed:0.0
  else resume_fiber m cpu tcb

and preempt_to_queue m cpu tcb ~owed =
  m.preemptions <- m.preemptions + 1;
  tcb.pending_consume <- owed;
  tcb.tstate <- Ready;
  tcb.machine.pol.Sched_policy.enqueue tcb;
  release m cpu;
  dispatch m

and credit cpu tcb seconds =
  cpu.busy_seconds <- cpu.busy_seconds +. seconds;
  tcb.cpu_seconds <- tcb.cpu_seconds +. seconds

and release m cpu =
  ignore m;
  cpu.cstate <- Idle

and finish m cpu tcb outcome =
  tcb.tstate <- Finished outcome;
  tcb.step <- None;
  (match outcome with
  | Sim.Fiber.Failed e ->
    m.failed <- (tcb, e) :: m.failed;
    Log.err (fun f ->
        f "thread %s failed: %s" tcb.name (Printexc.to_string e))
  | Sim.Fiber.Completed -> ());
  let callbacks = List.rev tcb.finish_callbacks in
  tcb.finish_callbacks <- [];
  release m cpu;
  List.iter (fun cb -> cb outcome) callbacks;
  dispatch m

and waker tcb =
  let fired = ref false in
  fun () ->
    if not !fired then begin
      fired := true;
      match tcb.tstate with
      | Blocked ->
        tcb.tstate <- Ready;
        tcb.machine.pol.Sched_policy.enqueue tcb;
        schedule_dispatch tcb.machine
      | Ready | Running _ | Finished _ -> ()
    end

(* --- public operations -------------------------------------------------- *)

let spawn m ~name ?(priority = 0) body =
  incr tid_counter;
  let tcb =
    {
      tid = !tid_counter;
      name;
      machine = m;
      tstate = Ready;
      step = Some (fun () -> Sim.Fiber.start body);
      pending_consume = 0.0;
      prio = priority;
      on_resume = None;
      finish_callbacks = [];
      cpu_seconds = 0.0;
      dispatches = 0;
      killed = false;
    }
  in
  m.pol.Sched_policy.enqueue tcb;
  schedule_dispatch m;
  tcb

let wake tcb =
  match tcb.tstate with
  | Blocked ->
    tcb.tstate <- Ready;
    tcb.machine.pol.Sched_policy.enqueue tcb;
    schedule_dispatch tcb.machine
  | Finished _ when tcb.killed ->
    (* A waker aimed at a crash-killed thread (lock release, late reply,
       join notify) fires into the void. *)
    ()
  | Ready | Running _ | Finished _ ->
    invalid_arg "Machine.wake: thread is not blocked"

let preempt_all ?except m =
  let count = ref 0 in
  List.iter
    (fun cpu ->
      match cpu.cstate with
      | Idle -> ()
      | Busy (busy, ev) ->
        let skip =
          match except with Some e -> e == busy.btcb | None -> false
        in
        if not skip then begin
          incr count;
          m.preemptions <- m.preemptions + 1;
          Sim.Engine.cancel m.eng ev;
          let elapsed = Sim.Engine.now m.eng -. busy.chunk_started in
          let elapsed = Float.max 0.0 (Float.min elapsed busy.chunk) in
          credit cpu busy.btcb elapsed;
          let owed = (busy.chunk -. elapsed) +. busy.remaining in
          (* The victim pays for the interrupt that descheduled it. *)
          busy.btcb.pending_consume <- owed +. m.preempt_cost;
          busy.btcb.tstate <- Ready;
          busy.btcb.machine.pol.Sched_policy.enqueue busy.btcb;
          cpu.cstate <- Idle
        end)
    m.cpus;
  if !count > 0 then schedule_dispatch m;
  !count

(* --- node crash / restart ----------------------------------------------- *)

(* Crash: deschedule everything (chunk events cancelled, victims queued
   Ready with the work they still owe) and stop dispatching.  Fibers are
   frozen in place, not destroyed: {!set_up} resumes them where they
   stopped, {!kill} fails them for good. *)
let set_down m =
  if m.up then begin
    m.up <- false;
    ignore (preempt_all m : int);
    mark m "crash" (lazy (Printf.sprintf "node%d down" m.mid))
  end

let set_up m =
  if not m.up then begin
    m.up <- true;
    mark m "crash" (lazy (Printf.sprintf "node%d up" m.mid));
    schedule_dispatch m
  end

let is_up m = m.up

let park tcb =
  match tcb.tstate with
  | Ready -> tcb.tstate <- Blocked
  | Running _ | Blocked | Finished _ ->
    invalid_arg "Machine.park: thread is not ready"

let transfer tcb ~dest =
  (match tcb.tstate with
  | Blocked -> ()
  | Ready | Running _ | Finished _ ->
    invalid_arg "Machine.transfer: thread must be blocked");
  tcb.machine <- dest

let ready_length m = m.pol.Sched_policy.length ()

let running_tcbs m =
  List.filter_map
    (fun c -> match c.cstate with Idle -> None | Busy (b, _) -> Some b.btcb)
    m.cpus

let busy_cpus m =
  List.fold_left
    (fun acc c -> match c.cstate with Idle -> acc | Busy _ -> acc + 1)
    0 m.cpus

let current_load m = ready_length m + busy_cpus m

let take_ready m pred =
  let found = ref None in
  (* [remove] strips every matching entry, so the predicate must stop
     matching after the first hit. *)
  let one_shot tcb =
    match !found with
    | Some _ -> false
    | None ->
      if pred tcb then begin
        found := Some tcb;
        true
      end
      else false
  in
  ignore (m.pol.Sched_policy.remove one_shot : int);
  !found

(* Fail-stop termination: finish [tcb] with [Failed e] {e without}
   recording a machine failure — the failure is injected by the crash
   plan, not a bug in the thread's code, so it must not poison
   [failures]/[check_failures].  The pending chunk is cancelled, the
   ready-queue entry removed, and finish callbacks (joiners, future
   publishers) run immediately with the failed outcome. *)
let kill tcb e =
  match tcb.tstate with
  | Finished _ -> ()
  | st ->
    let m = tcb.machine in
    (match st with
    | Running _ ->
      List.iter
        (fun cpu ->
          match cpu.cstate with
          | Busy (busy, ev) when busy.btcb == tcb ->
            Sim.Engine.cancel m.eng ev;
            cpu.cstate <- Idle
          | Busy _ | Idle -> ())
        m.cpus
    | Ready -> ignore (take_ready m (fun t -> t == tcb) : tcb option)
    | Blocked -> ()
    | Finished _ -> assert false);
    tcb.killed <- true;
    tcb.tstate <- Finished (Sim.Fiber.Failed e);
    tcb.step <- None;
    tcb.pending_consume <- 0.0;
    let callbacks = List.rev tcb.finish_callbacks in
    tcb.finish_callbacks <- [];
    List.iter (fun cb -> cb (Sim.Fiber.Failed e)) callbacks

let was_killed tcb = tcb.killed

let total_busy_time m =
  List.fold_left (fun acc c -> acc +. c.busy_seconds) 0.0 m.cpus

let dispatch_count m = m.dispatches_total
let preemption_count m = m.preemptions
let failures m = m.failed

let forget_failures tcb =
  let m = tcb.machine in
  m.failed <- List.filter (fun (t, _) -> not (t == tcb)) m.failed

let pp_tcb ppf t =
  let state_str =
    match t.tstate with
    | Ready -> "ready"
    | Running i -> Printf.sprintf "running@cpu%d" i
    | Blocked -> "blocked"
    | Finished (Sim.Fiber.Completed) -> "done"
    | Finished (Sim.Fiber.Failed _) -> "failed"
  in
  Format.fprintf ppf "#%d:%s[%s on node%d]" t.tid t.name state_str
    t.machine.mid
