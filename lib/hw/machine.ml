type thread_state =
  | Ready
  | Running of int
  | Blocked
  | Finished of Sim.Fiber.outcome

(* A thread's and a CPU's float state sit in records whose fields are all
   floats, which OCaml stores unboxed: the chunk path updates them without
   allocating. *)
type thread_acct = {
  (* CPU seconds still owed from a Consume that was interrupted by
     preemption or quantum expiry. *)
  mutable pending_consume : float;
  mutable cpu_seconds : float;
}

type cpu_times = {
  mutable busy_seconds : float;
  mutable quantum_left : float;
  (* The current chunk: its start, its length, and the CPU demand
     remaining after it completes. *)
  mutable chunk_started : float;
  mutable chunk : float;
  mutable remaining : float;
}

type tcb = {
  tid : int;
  name : string;
  mutable machine : t;
  mutable tstate : thread_state;
  (* Continuation to run when next placed on a CPU: the fiber's start
     until the first step, and from the first pause on its resumption,
     one closure for the fiber's life.  Stepping a thread that is running
     its fiber, or has finished, raises: [no_step] stands in from the
     first step to the first pause and after a kill, and the resumption
     itself refuses a fiber with no pause pending. *)
  mutable step : unit -> Sim.Fiber.paused;
  acct : thread_acct;
  mutable prio : int;
  mutable on_resume : (tcb -> bool) option;
  mutable finish_callbacks : (Sim.Fiber.outcome -> unit) list;
  mutable dispatches : int;
  (* Wakers handed out plus wakers fired: the waker of a block is live
     while this still equals the count it was built with. *)
  mutable wakers : int;
  (* Terminated by crash injection ({!kill}) rather than by its own
     fiber.  A stale waker aimed at a killed thread — a lock release, a
     late reply, an in-flight thread-state packet — becomes a no-op
     instead of an [Invalid_argument]: the rest of the cluster cannot
     know the thread died before poking it. *)
  mutable killed : bool;
  (* [Some] of this record, built once: what [current] and a busy CPU's
     [occupant] hold. *)
  some : tcb option;
}

(* A CPU is busy from the start of a chunk until it is released, the
   thread is preempted or killed.  While busy, [occupant] holds the
   chunk's thread and [chunk_ev] the one event that completes the chunk;
   that event's thunk is [complete], built once per CPU, and the chunk
   itself is in [times].  With no chooser [chunk_ev] is one record,
   built once and re-armed for each chunk.  [in_place] is the CPU's
   {!Sim.Fiber} hook, also built once: see [consume_in_place].  The
   chunk path stores [occupant], [chunk_ev] and a thread's [step] only
   when the value changes: each pointer store into a long-lived block
   pays OCaml's write barrier. *)
and cpu = {
  index : int;
  running : thread_state;  (* [Running index], shared by its threads *)
  times : cpu_times;
  mutable occupant : tcb option;
  mutable chunk_ev : Sim.Engine.event_id;
  mutable complete : unit -> unit;
  mutable in_place : float -> bool;
}

and t = {
  mid : int;
  eng : Sim.Engine.t;
  clock : Sim.Engine.clock;
  cpus : cpu list;
  mutable pol : tcb Sched_policy.t;
  ctx_switch : float;
  quantum : float;
  preempt_cost : float;
  spans : Sim.Span.t;
  mutable dispatch_pending : bool;
  (* The thunk of this machine's dispatch event, built once, and with no
     chooser the event itself, re-armed for each dispatch. *)
  mutable dispatch_thunk : unit -> unit;
  mutable dispatch_ev : Sim.Engine.event_id;
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

(* The thread whose fiber is executing right now: [last] while [inside]
   holds.  The simulator is single-threaded and fibers run to their next
   pause within one event, so a single slot suffices.  [last] keeps the
   thread stepped most recently after its fiber pauses, so stepping the
   same thread again stores no pointer. *)
type running = { mutable last : tcb option; mutable inside : bool }

let current = { last = None; inside = false }

let epsilon = 1e-12

(* Dispatch keeps the set of idle CPUs in the bits of one int. *)
let max_cpus = Sys.int_size

let rec idle_set cpus acc =
  match cpus with
  | [] -> acc
  | c :: rest ->
    idle_set rest (if c.occupant == None then acc lor (1 lsl c.index) else acc)

(* A finished or already-running thread must never reach a CPU. *)
let no_step () = invalid_arg "Machine: thread has no continuation"

let id m = m.mid
let engine m = m.eng
let cpu_count m = List.length m.cpus
let policy_name m = m.pol.Sched_policy.name

let set_policy m new_pol =
  while m.pol.Sched_policy.length () > 0 do
    new_pol.Sched_policy.enqueue (m.pol.Sched_policy.pop ())
  done;
  m.pol <- new_pol

let tcb_id t = t.tid
let tcb_name t = t.name
let state t = t.tstate
let home t = t.machine
let set_priority t p = t.prio <- p
let priority t = t.prio
let set_on_resume t hook = t.on_resume <- hook
let cpu_time t = t.acct.cpu_seconds

let add_pending_work t dt =
  if dt < 0.0 || Float.is_nan dt then
    invalid_arg "Machine.add_pending_work: bad duration";
  t.acct.pending_consume <- t.acct.pending_consume +. dt

let on_finish t cb =
  match t.tstate with
  | Finished outcome -> cb outcome
  | Ready | Running _ | Blocked -> t.finish_callbacks <- cb :: t.finish_callbacks

let self () = if current.inside then current.last else None

let self_exn () =
  match self () with
  | Some t -> t
  | None -> failwith "Machine.self_exn: not inside a fiber"

let self_machine () = (self_exn ()).machine

let mark m category detail = Sim.Span.mark m.spans ~category detail

let[@inline] credit cpu tcb seconds =
  cpu.times.busy_seconds <- cpu.times.busy_seconds +. seconds;
  tcb.acct.cpu_seconds <- tcb.acct.cpu_seconds +. seconds

(* Run [tcb]'s fiber to its next pause.  A step from event context
   leaves [tcb] in [current.last]; a nested one, from inside another
   fiber, puts that fiber's thread back. *)
let step_fiber tcb =
  let outer = current.inside and saved = current.last in
  if saved != tcb.some then current.last <- tcb.some;
  current.inside <- true;
  let paused = tcb.step () in
  if not outer then current.inside <- false
  else if saved != tcb.some then current.last <- saved;
  paused

(* From the first pause on, every pause carries the fiber's one
   resumption, so this stores once per thread. *)
let[@inline] keep_step tcb (r : Sim.Fiber.resumption) =
  if tcb.step != r.resume then tcb.step <- r.resume

(* The hook a chunk event installs while the fiber it resumed runs (see
   [chunk_done]).  The fiber's next consume of [dt] would start a chunk
   of [max dt epsilon] when [dt] fits the quantum left; if that chunk
   ends with no preemption decision to make and is the engine's next
   event, nothing can run before it, so it completes here with the
   accounting of [start_chunk] and of [chunk_done] resuming the thread.
   Any other consume, or one by a fiber that is not this CPU's occupant,
   is declined and pauses. *)
let consume_in_place m cpu dt =
  match cpu.occupant with
  | Some tcb when cpu.occupant == self () ->
    let a = cpu.times in
    let left = a.quantum_left in
    let chunk = if epsilon > dt then epsilon else dt in
    dt <= left
    && (left -. chunk > epsilon || m.pol.Sched_policy.length () = 0)
    &&
    let now = m.clock.now in
    Sim.Engine.advance_in_place m.eng ~time:(now +. chunk)
    && begin
         a.chunk_started <- now;
         a.chunk <- chunk;
         a.remaining <- dt -. chunk;
         credit cpu tcb chunk;
         a.quantum_left <- left -. chunk;
         true
       end
  | Some _ | None -> false

(* --- dispatching ------------------------------------------------------- *)

let rec schedule_dispatch m =
  if m.up && not m.dispatch_pending then begin
    m.dispatch_pending <- true;
    if Sim.Engine.chooser_active m.eng then
      ignore
        (Sim.Engine.schedule m.eng ~key:(Sim.Choice.node m.mid)
           ~label:(lazy (Printf.sprintf "dispatch node%d" m.mid))
           ~delay:0.0 m.dispatch_thunk
          : Sim.Engine.event_id)
    else
      let ev = Sim.Engine.rearm m.eng m.dispatch_ev ~delay:0.0 in
      if ev != m.dispatch_ev then m.dispatch_ev <- ev
  end

and dispatch_event m =
  m.dispatch_pending <- false;
  dispatch m

(* Fill the CPUs that were idle on entry, in index order.  A CPU freed
   while filling (by [preempt_all]) waits for the dispatch it schedules;
   bit [i] of [idle] is set when CPU [i] was idle on entry. *)
and dispatch m = if m.up then fill m (idle_set m.cpus 0) m.cpus

and fill m idle = function
  | [] -> ()
  | cpu :: rest ->
    (* Nested dispatches (from a pause handled during [run_on]) may have
       claimed this CPU already. *)
    if idle land (1 lsl cpu.index) <> 0 && cpu.occupant == None then begin
      match next_runnable m with
      | None -> ()
      | Some tcb ->
        run_on m cpu tcb;
        fill m idle rest
    end
    else fill m idle rest

(* Under a chooser, which ready thread runs next is a decision point:
   drain the policy, put the question to the chooser, and re-enqueue with
   the chosen thread at the front (relative order of the rest is
   preserved, so declining to reorder reproduces the policy's own
   answer). *)
and choose_ready (c : Sim.Choice.t) m =
  let ready =
    Array.init (m.pol.Sched_policy.length ()) (fun _ ->
        m.pol.Sched_policy.pop ())
  in
  let cands =
    Array.map
      (fun tcb ->
        {
          Sim.Choice.dom = Sim.Choice.Fiber;
          ident = Sim.Choice.Tid tcb.tid;
          key = Sim.Choice.node m.mid;
          label =
            lazy (Printf.sprintf "run %s t%d node%d" tcb.name tcb.tid m.mid);
        })
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
  if m.pol.Sched_policy.length () = 0 then None
  else
    let tcb = m.pol.Sched_policy.pop () in
    match tcb.on_resume with
    | None -> tcb.some
    | Some hook ->
      if hook tcb then tcb.some
      else begin
        (* The hook must have parked the thread elsewhere. *)
        (match tcb.tstate with
        | Ready ->
          invalid_arg
            "Machine: on_resume hook returned false but left thread Ready"
        | Running _ | Blocked | Finished _ -> ());
        next_runnable m
      end

and run_on m cpu tcb =
  tcb.tstate <- cpu.running;
  tcb.dispatches <- tcb.dispatches + 1;
  m.dispatches_total <- m.dispatches_total + 1;
  cpu.times.quantum_left <- m.quantum;
  if Sim.Span.marking m.spans then
    mark m "sched"
      (lazy (Printf.sprintf "node%d cpu%d runs %s" m.mid cpu.index tcb.name));
  (* The context-switch cost plus any leftover consume is charged before
     the fiber itself resumes. *)
  let owed = m.ctx_switch +. tcb.acct.pending_consume in
  tcb.acct.pending_consume <- 0.0;
  if owed > epsilon then begin
    cpu.times.remaining <- owed;
    start_chunk m cpu tcb
  end
  else resume_fiber m cpu tcb

and resume_fiber m cpu tcb = handle_pause m cpu tcb (step_fiber tcb)

and handle_pause m cpu tcb (paused : Sim.Fiber.paused) =
  match paused with
  | Sim.Fiber.Done outcome -> finish m cpu tcb outcome
  | Sim.Fiber.Consumed (dt, r) ->
    keep_step tcb r;
    cpu.times.remaining <- dt;
    start_chunk m cpu tcb
  | Sim.Fiber.Blocked (register, r) ->
    keep_step tcb r;
    tcb.tstate <- Blocked;
    release m cpu;
    (* Register after marking Blocked so a synchronous wake works. *)
    register (waker tcb);
    dispatch m
  | Sim.Fiber.Yielded r ->
    keep_step tcb r;
    tcb.tstate <- Ready;
    tcb.machine.pol.Sched_policy.enqueue tcb;
    release m cpu;
    dispatch m

(* Start a chunk of the CPU demand in [cpu.times.remaining]: at most the
   quantum left, and never shorter than [epsilon].  The comparisons are
   [Float.min] and [Float.max] written out, so no float is boxed. *)
and start_chunk m cpu tcb =
  let a = cpu.times in
  let remaining = a.remaining and left = a.quantum_left in
  let chunk = if left > remaining then remaining else left in
  let chunk = if epsilon > chunk then epsilon else chunk in
  a.chunk_started <- m.clock.now;
  a.chunk <- chunk;
  a.remaining <- remaining -. chunk;
  if cpu.occupant != tcb.some then cpu.occupant <- tcb.some;
  let ev =
    if Sim.Engine.chooser_active m.eng then
      Sim.Engine.schedule m.eng ~key:(Sim.Choice.node m.mid)
        ~label:
          (lazy (Printf.sprintf "chunk %s t%d node%d" tcb.name tcb.tid m.mid))
        ~delay:chunk cpu.complete
    else Sim.Engine.rearm m.eng cpu.chunk_ev ~delay:chunk
  in
  if ev != cpu.chunk_ev then cpu.chunk_ev <- ev

and chunk_done m cpu =
  match cpu.occupant with
  | None ->
    (* A chunk event fires only while its CPU is busy: [preempt_all] and
       [kill] cancel it before they idle the CPU. *)
    assert false
  | Some tcb ->
    let a = cpu.times in
    credit cpu tcb a.chunk;
    a.quantum_left <- a.quantum_left -. a.chunk;
    if a.remaining > epsilon then
      if a.quantum_left > epsilon then start_chunk m cpu tcb
      else if m.pol.Sched_policy.length () > 0 then begin
        tcb.acct.pending_consume <- a.remaining;
        preempt_to_queue m cpu tcb
      end
      else begin
        a.quantum_left <- m.quantum;
        start_chunk m cpu tcb
      end
    else if a.quantum_left <= epsilon && m.pol.Sched_policy.length () > 0
    then begin
      (* Quantum boundary between consume requests: timeslice ends here. *)
      tcb.acct.pending_consume <- 0.0;
      preempt_to_queue m cpu tcb
    end
    else if Sim.Engine.chooser_active m.eng then resume_fiber m cpu tcb
    else begin
      (* This event ends when the fiber pauses, so a chunk the fiber asks
         for may complete in place; the hook is the CPU's only while the
         fiber runs. *)
      Sim.Fiber.set_in_place cpu.in_place;
      let paused =
        match step_fiber tcb with
        | paused ->
          Sim.Fiber.clear_in_place ();
          paused
        | exception e ->
          Sim.Fiber.clear_in_place ();
          raise e
      in
      handle_pause m cpu tcb paused
    end

(* The caller has stored what [tcb] still owes in its [pending_consume]. *)
and preempt_to_queue m cpu tcb =
  m.preemptions <- m.preemptions + 1;
  tcb.tstate <- Ready;
  tcb.machine.pol.Sched_policy.enqueue tcb;
  release m cpu;
  dispatch m

and release m cpu =
  ignore m;
  cpu.occupant <- None

and finish m cpu tcb outcome =
  tcb.tstate <- Finished outcome;
  (match outcome with
  | Sim.Fiber.Failed e -> m.failed <- (tcb, e) :: m.failed
  | Sim.Fiber.Completed -> ());
  let callbacks = List.rev tcb.finish_callbacks in
  tcb.finish_callbacks <- [];
  release m cpu;
  List.iter (fun cb -> cb outcome) callbacks;
  dispatch m

and waker tcb =
  let n = tcb.wakers + 1 in
  tcb.wakers <- n;
  fun () ->
    if tcb.wakers = n then begin
      tcb.wakers <- n + 1;
      match tcb.tstate with
      | Blocked ->
        tcb.tstate <- Ready;
        tcb.machine.pol.Sched_policy.enqueue tcb;
        schedule_dispatch tcb.machine
      | Ready | Running _ | Finished _ -> ()
    end

(* --- construction ----------------------------------------------------- *)

(* After the dispatch code: each CPU's completion thunk calls
   [chunk_done], its in-place hook [consume_in_place], and the dispatch
   event's thunk [dispatch_event].  The events around the thunks are
   built here too. *)

let create ~engine ~id ~cpus ?(ctx_switch = 0.0) ?(quantum = 0.1)
    ?(preempt_cost = 0.0) ?policy ?(spans = Sim.Span.disabled ()) () =
  if cpus <= 0 || cpus > max_cpus then
    invalid_arg "Machine.create: cpus must be in 1..max_cpus";
  if quantum <= 0.0 then invalid_arg "Machine.create: quantum must be positive";
  (* Each dispatch charges the switch against the fresh quantum, so a
     thread preempted while paying it gains [quantum - ctx_switch]. *)
  if quantum <= ctx_switch then
    invalid_arg "Machine.create: quantum must be longer than ctx_switch";
  let pol = match policy with Some p -> p | None -> Sched_policy.fifo () in
  let m =
    {
      mid = id;
      eng = engine;
      clock = Sim.Engine.clock engine;
      cpus =
        List.init cpus (fun index ->
            {
              index;
              running = Running index;
              times =
                {
                  busy_seconds = 0.0;
                  quantum_left = quantum;
                  chunk_started = 0.0;
                  chunk = 0.0;
                  remaining = 0.0;
                };
              occupant = None;
              chunk_ev = Sim.Engine.idle_event ignore;
              complete = ignore;
              in_place = (fun _ -> false);
            });
      pol;
      ctx_switch;
      quantum;
      preempt_cost;
      spans;
      dispatch_pending = false;
      dispatch_thunk = ignore;
      dispatch_ev = Sim.Engine.idle_event ignore;
      dispatches_total = 0;
      preemptions = 0;
      failed = [];
      up = true;
    }
  in
  List.iter
    (fun cpu ->
      cpu.complete <- (fun () -> chunk_done m cpu);
      cpu.chunk_ev <- Sim.Engine.idle_event cpu.complete;
      cpu.in_place <- (fun dt -> consume_in_place m cpu dt))
    m.cpus;
  m.dispatch_thunk <- (fun () -> dispatch_event m);
  m.dispatch_ev <- Sim.Engine.idle_event m.dispatch_thunk;
  m

(* --- public operations -------------------------------------------------- *)

let spawn m ~name ?(priority = 0) body =
  incr tid_counter;
  let tid = !tid_counter in
  let rec tcb =
    {
      tid;
      name;
      machine = m;
      tstate = Ready;
      step =
        (fun () ->
          tcb.step <- no_step;
          Sim.Fiber.start body);
      acct = { pending_consume = 0.0; cpu_seconds = 0.0 };
      prio = priority;
      on_resume = None;
      finish_callbacks = [];
      dispatches = 0;
      wakers = 0;
      killed = false;
      some = Some tcb;
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
      match cpu.occupant with
      | None -> ()
      | Some tcb ->
        let skip = match except with Some e -> e == tcb | None -> false in
        if not skip then begin
          incr count;
          m.preemptions <- m.preemptions + 1;
          Sim.Engine.cancel m.eng cpu.chunk_ev;
          let a = cpu.times in
          let elapsed = m.clock.now -. a.chunk_started in
          let elapsed = Float.max 0.0 (Float.min elapsed a.chunk) in
          credit cpu tcb elapsed;
          let owed = (a.chunk -. elapsed) +. a.remaining in
          (* The victim pays for the interrupt that descheduled it. *)
          tcb.acct.pending_consume <- owed +. m.preempt_cost;
          tcb.tstate <- Ready;
          tcb.machine.pol.Sched_policy.enqueue tcb;
          cpu.occupant <- None
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

let running_tcbs m = List.filter_map (fun c -> c.occupant) m.cpus

let busy_cpus m =
  List.fold_left
    (fun acc c -> match c.occupant with None -> acc | Some _ -> acc + 1)
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
          match cpu.occupant with
          | Some t when t == tcb ->
            Sim.Engine.cancel m.eng cpu.chunk_ev;
            cpu.occupant <- None
          | Some _ | None -> ())
        m.cpus
    | Ready -> ignore (take_ready m (fun t -> t == tcb) : tcb option)
    | Blocked -> ()
    | Finished _ -> assert false);
    tcb.killed <- true;
    tcb.tstate <- Finished (Sim.Fiber.Failed e);
    tcb.step <- no_step;
    tcb.acct.pending_consume <- 0.0;
    let callbacks = List.rev tcb.finish_callbacks in
    tcb.finish_callbacks <- [];
    List.iter (fun cb -> cb (Sim.Fiber.Failed e)) callbacks

let was_killed tcb = tcb.killed

let total_busy_time m =
  List.fold_left (fun acc c -> acc +. c.times.busy_seconds) 0.0 m.cpus

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
