(* The multiprocessor node model: parallelism, timeslicing, preemption,
   blocking, the on_resume hook, and cross-machine transfer. *)

let make ?(cpus = 2) ?(quantum = 0.1) ?(ctx_switch = 0.0) ?(preempt_cost = 0.0)
    () =
  let e = Sim.Engine.create () in
  let m =
    Hw.Machine.create ~engine:e ~id:0 ~cpus ~ctx_switch ~quantum ~preempt_cost
      ()
  in
  (e, m)

let feq = Alcotest.(check (float 1e-9))

let test_single_thread_consumes () =
  let e, m = make () in
  let t = Hw.Machine.spawn m ~name:"t" (fun () -> Sim.Fiber.consume 1.0) in
  ignore (Sim.Engine.run e);
  feq "virtual time" 1.0 (Sim.Engine.now e);
  feq "thread cpu time" 1.0 (Hw.Machine.cpu_time t)

let test_parallelism_on_p_cpus () =
  (* 4 threads x 1s on 2 CPUs => makespan 2s. *)
  let e, m = make ~cpus:2 () in
  for i = 0 to 3 do
    ignore
      (Hw.Machine.spawn m ~name:(string_of_int i) (fun () ->
           Sim.Fiber.consume 1.0))
  done;
  ignore (Sim.Engine.run e);
  feq "makespan" 2.0 (Sim.Engine.now e);
  feq "busy time" 4.0 (Hw.Machine.total_busy_time m)

let test_timeslicing_interleaves () =
  (* 2 threads, 1 CPU, quantum 0.1: each gets slices; both finish at 2.0,
     and neither finishes before 1.0 could possibly allow. *)
  let e, m = make ~cpus:1 ~quantum:0.1 () in
  let done_at = Array.make 2 0.0 in
  for i = 0 to 1 do
    let t =
      Hw.Machine.spawn m ~name:(string_of_int i) (fun () ->
          Sim.Fiber.consume 1.0)
    in
    Hw.Machine.on_finish t (fun _ -> done_at.(i) <- Sim.Engine.now e)
  done;
  ignore (Sim.Engine.run e);
  feq "total" 2.0 (Sim.Engine.now e);
  (* With timeslicing both threads finish near the end, not one at 1.0. *)
  Alcotest.(check bool) "first did not hog the cpu" true (done_at.(0) > 1.5)

(* Each CPU chunk is one engine event: no placeholder is left in the heap
   beside it. *)
let test_one_event_per_chunk () =
  let e, m = make ~cpus:1 ~quantum:0.1 () in
  ignore (Hw.Machine.spawn m ~name:"t" (fun () -> Sim.Fiber.consume 1.0));
  ignore (Sim.Engine.run ~until:0.05 e);
  Alcotest.(check int) "one queued entry" 1 (Sim.Engine.pending e);
  ignore (Sim.Engine.run e);
  feq "work done" 1.0 (Sim.Engine.now e)

let test_no_preemption_when_alone () =
  let e, m = make ~cpus:1 ~quantum:0.1 () in
  ignore (Hw.Machine.spawn m ~name:"solo" (fun () -> Sim.Fiber.consume 1.0));
  ignore (Sim.Engine.run e);
  Alcotest.(check int) "no preemptions" 0 (Hw.Machine.preemption_count m)

let test_yield_round_robin () =
  let e, m = make ~cpus:1 () in
  let log = ref [] in
  for i = 0 to 1 do
    ignore
      (Hw.Machine.spawn m ~name:(string_of_int i) (fun () ->
           for _ = 1 to 3 do
             log := i :: !log;
             Sim.Fiber.yield ()
           done))
  done;
  ignore (Sim.Engine.run e);
  Alcotest.(check (list int)) "alternation" [ 0; 1; 0; 1; 0; 1 ]
    (List.rev !log)

let test_block_and_wake () =
  let e, m = make () in
  let waker = ref None in
  let t =
    Hw.Machine.spawn m ~name:"sleeper" (fun () ->
        Sim.Fiber.block (fun wake -> waker := Some wake);
        Sim.Fiber.consume 0.5)
  in
  ignore (Sim.Engine.run e);
  Alcotest.(check bool) "blocked" true (Hw.Machine.state t = Hw.Machine.Blocked);
  (match !waker with Some w -> w () | None -> Alcotest.fail "no waker");
  ignore (Sim.Engine.run e);
  Alcotest.(check bool) "finished" true
    (match Hw.Machine.state t with Hw.Machine.Finished _ -> true | _ -> false)

(* A waker wakes its own block once: called again, or after the thread
   has blocked anew, it does nothing. *)
let test_waker_one_shot () =
  let e, m = make () in
  let wakers = ref [] in
  let register w = wakers := w :: !wakers in
  let t =
    Hw.Machine.spawn m ~name:"s" (fun () ->
        Sim.Fiber.block register;
        Sim.Fiber.block register)
  in
  let blocked what =
    Alcotest.(check bool) what true (Hw.Machine.state t = Hw.Machine.Blocked)
  in
  ignore (Sim.Engine.run e);
  let first = List.hd !wakers in
  first ();
  first ();
  ignore (Sim.Engine.run e);
  blocked "in the second block";
  Alcotest.(check int) "two blocks" 2 (List.length !wakers);
  first ();
  ignore (Sim.Engine.run e);
  blocked "a stale waker does nothing";
  (List.hd !wakers) ();
  ignore (Sim.Engine.run e);
  Alcotest.(check bool) "finished" true
    (match Hw.Machine.state t with Hw.Machine.Finished _ -> true | _ -> false)

let test_wake_via_machine_api () =
  let e, m = make () in
  let t =
    Hw.Machine.spawn m ~name:"s" (fun () -> Sim.Fiber.block (fun _ -> ()))
  in
  ignore (Sim.Engine.run e);
  Hw.Machine.wake t;
  ignore (Sim.Engine.run e);
  Alcotest.(check bool) "done" true
    (match Hw.Machine.state t with Hw.Machine.Finished _ -> true | _ -> false)

let test_ctx_switch_charged () =
  let e, m = make ~cpus:1 ~ctx_switch:0.01 () in
  ignore (Hw.Machine.spawn m ~name:"t" (fun () -> Sim.Fiber.consume 1.0));
  ignore (Sim.Engine.run e);
  feq "dispatch cost added" 1.01 (Sim.Engine.now e)

(* A quantum no longer than the context switch is refused: two threads
   sharing the CPU would switch forever without running.  A longer one
   runs them to completion. *)
let test_quantum_longer_than_switch () =
  Alcotest.check_raises "10 µs quantum, 10 µs switch"
    (Invalid_argument "Machine.create: quantum must be longer than ctx_switch")
    (fun () -> ignore (make ~cpus:1 ~quantum:10e-6 ~ctx_switch:10e-6 ()));
  let e, m = make ~cpus:1 ~quantum:15e-6 ~ctx_switch:10e-6 () in
  let ts =
    List.init 2 (fun i ->
        Hw.Machine.spawn m ~name:(string_of_int i) (fun () ->
            Sim.Fiber.consume 100e-6))
  in
  ignore (Sim.Engine.run e);
  List.iter
    (fun t ->
      Alcotest.(check bool) "thread ran to the end" true
        (Hw.Machine.state t = Hw.Machine.Finished Sim.Fiber.Completed))
    ts

let test_preempt_all () =
  let e, m = make ~cpus:2 ~quantum:10.0 ~preempt_cost:0.05 () in
  ignore (Hw.Machine.spawn m ~name:"a" (fun () -> Sim.Fiber.consume 1.0));
  ignore (Hw.Machine.spawn m ~name:"b" (fun () -> Sim.Fiber.consume 1.0));
  ignore (Sim.Engine.run ~until:0.5 e);
  let n = Hw.Machine.preempt_all m in
  Alcotest.(check int) "both preempted" 2 n;
  ignore (Sim.Engine.run e);
  (* Each thread: 1.0 of work + 0.05 preempt penalty. *)
  feq "work conserved with penalty" 2.1 (Hw.Machine.total_busy_time m)

let test_preempt_all_except () =
  let e, m = make ~cpus:2 ~quantum:10.0 () in
  let a = Hw.Machine.spawn m ~name:"a" (fun () -> Sim.Fiber.consume 1.0) in
  ignore (Hw.Machine.spawn m ~name:"b" (fun () -> Sim.Fiber.consume 1.0));
  ignore (Sim.Engine.run ~until:0.5 e);
  let n = Hw.Machine.preempt_all ~except:a m in
  Alcotest.(check int) "one preempted" 1 n;
  ignore (Sim.Engine.run e)

let test_on_resume_hook_runs () =
  let e, m = make ~cpus:1 () in
  let hook_calls = ref 0 in
  let t = Hw.Machine.spawn m ~name:"h" (fun () -> Sim.Fiber.consume 0.2) in
  Hw.Machine.set_on_resume t
    (Some
       (fun _ ->
         incr hook_calls;
         true));
  ignore (Sim.Engine.run e);
  Alcotest.(check int) "hook ran once (single dispatch)" 1 !hook_calls

let test_on_resume_hook_can_divert () =
  (* Hook parks the thread on its first dispatch; we then wake it and let
     it run. *)
  let e, m = make ~cpus:1 () in
  let diverted = ref false in
  let ran = ref false in
  let t = Hw.Machine.spawn m ~name:"d" (fun () -> ran := true) in
  Hw.Machine.set_on_resume t
    (Some
       (fun tcb ->
         if !diverted then true
         else begin
           diverted := true;
           Hw.Machine.park tcb;
           false
         end));
  ignore (Sim.Engine.run e);
  Alcotest.(check bool) "not yet run" false !ran;
  Alcotest.(check bool) "parked" true (Hw.Machine.state t = Hw.Machine.Blocked);
  Hw.Machine.wake t;
  ignore (Sim.Engine.run e);
  Alcotest.(check bool) "ran after wake" true !ran

let test_transfer () =
  let e = Sim.Engine.create () in
  let m0 = Hw.Machine.create ~engine:e ~id:0 ~cpus:1 () in
  let m1 = Hw.Machine.create ~engine:e ~id:1 ~cpus:1 () in
  let where = ref (-1) in
  let t =
    Hw.Machine.spawn m0 ~name:"mover" (fun () ->
        Sim.Fiber.block (fun _ -> ());
        Sim.Fiber.consume 0.1)
  in
  Hw.Machine.on_finish t (fun _ -> where := Hw.Machine.id (Hw.Machine.home t));
  ignore (Sim.Engine.run e);
  Hw.Machine.transfer t ~dest:m1;
  Hw.Machine.wake t;
  ignore (Sim.Engine.run e);
  Alcotest.(check int) "finished on node 1" 1 !where;
  Alcotest.(check bool) "work charged to m1" true
    (Hw.Machine.total_busy_time m1 > 0.0)

let test_transfer_running_rejected () =
  let e, m = make () in
  let t = Hw.Machine.spawn m ~name:"r" (fun () -> Sim.Fiber.consume 1.0) in
  ignore (Sim.Engine.run ~until:0.5 e);
  Alcotest.check_raises "running"
    (Invalid_argument "Machine.transfer: thread must be blocked") (fun () ->
      Hw.Machine.transfer t ~dest:m)

let test_failure_recorded () =
  let e, m = make () in
  ignore (Hw.Machine.spawn m ~name:"f" (fun () -> failwith "dead"));
  ignore (Sim.Engine.run e);
  match Hw.Machine.failures m with
  | [ (_, Failure msg) ] when msg = "dead" -> ()
  | _ -> Alcotest.fail "expected one failure"

(* A finished or running thread must never be stepped again.  A policy
   that hands out one extra thread ahead of its queue puts such a thread
   in front of a CPU: a finished one from a later dispatch, a running one
   from a dispatch its own fiber fires.  Whether the thread paused
   before or not, the step raises [Invalid_argument]. *)
let test_step_without_continuation () =
  let with_extra () =
    let base = Hw.Sched_policy.fifo () and extra = ref None in
    let pol =
      {
        base with
        Hw.Sched_policy.pop =
          (fun () ->
            match !extra with
            | Some t ->
              extra := None;
              t
            | None -> base.Hw.Sched_policy.pop ());
        length =
          (fun () ->
            base.Hw.Sched_policy.length ()
            + match !extra with Some _ -> 1 | None -> 0);
      }
    in
    let e = Sim.Engine.create () in
    (e, Hw.Machine.create ~engine:e ~id:0 ~cpus:2 ~policy:pol (), extra)
  in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: stepped" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun paused ->
      let what = if paused then "after a pause" else "before any pause" in
      let e, m, extra = with_extra () in
      let t =
        Hw.Machine.spawn m ~name:"t" (fun () ->
            if paused then Sim.Fiber.consume 1.0)
      in
      ignore (Sim.Engine.run e : int);
      extra := Some t;
      ignore (Hw.Machine.spawn m ~name:"next" ignore);
      raises ("finished thread, " ^ what) (fun () -> Sim.Engine.run e);
      let e, m, extra = with_extra () in
      let t =
        Hw.Machine.spawn m ~name:"t" (fun () ->
            if paused then Sim.Fiber.consume 1.0;
            extra := Hw.Machine.self ();
            ignore (Hw.Machine.spawn m ~name:"next" ignore);
            raises ("running thread, " ^ what) (fun () -> Sim.Engine.step e))
      in
      ignore (Sim.Engine.run e : int);
      Alcotest.(check bool) ("ran on, " ^ what) true
        (Hw.Machine.state t = Hw.Machine.Finished Sim.Fiber.Completed))
    [ false; true ]

let test_set_policy_drains () =
  let e, m = make ~cpus:1 () in
  let log = ref [] in
  (* Fill the queue while the cpu is busy. *)
  ignore (Hw.Machine.spawn m ~name:"busy" (fun () -> Sim.Fiber.consume 1.0));
  ignore (Sim.Engine.run ~until:0.1 e);
  for i = 0 to 2 do
    ignore (Hw.Machine.spawn m ~name:(string_of_int i) (fun () -> log := i :: !log))
  done;
  Hw.Machine.set_policy m (Hw.Sched_policy.lifo ());
  Alcotest.(check string) "policy name" "lifo" (Hw.Machine.policy_name m);
  ignore (Sim.Engine.run e);
  Alcotest.(check int) "all ran" 3 (List.length !log)

let test_pending_work () =
  let e, m = make ~cpus:1 () in
  let t = Hw.Machine.spawn m ~name:"p" (fun () -> Sim.Fiber.block (fun _ -> ())) in
  ignore (Sim.Engine.run e);
  Hw.Machine.add_pending_work t 0.3;
  Hw.Machine.wake t;
  ignore (Sim.Engine.run e);
  feq "pending work charged" 0.3 (Hw.Machine.cpu_time t)

(* --- chunks completed in place ---------------------------------------- *)

(* A chunk that the thread its CPU's chunk event resumed asks for
   completes in place only when it is the engine's next event: a timer
   queued for exactly its end goes first. *)
let test_timer_at_chunk_end () =
  let e, m = make ~cpus:1 ~quantum:10.0 ~ctx_switch:0.25 () in
  let log = ref [] in
  let note what = log := (what, Sim.Engine.now e) :: !log in
  ignore (Sim.Engine.schedule_at e ~time:0.75 (fun () -> note "timer"));
  ignore
    (Hw.Machine.spawn m ~name:"t" (fun () ->
         Sim.Fiber.consume 0.5;
         note "first";
         Sim.Fiber.consume 0.5;
         note "second"));
  ignore (Sim.Engine.run e);
  Alcotest.(check (list (pair string (float 0.0))))
    "timer, then the thread"
    [ ("timer", 0.75); ("first", 0.75); ("second", 1.25) ]
    (List.rev !log);
  Alcotest.(check int) "only the untied chunk in place" 1
    (Sim.Engine.in_place_completions e);
  Alcotest.(check int) "every chunk counted" 5 (Sim.Engine.events_executed e)

(* A horizon inside a consume stops in-place completion there: the chunk
   is left queued, and resuming ends where an uninterrupted run does. *)
let test_until_inside_consume () =
  let run ?until () =
    let e, m = make ~cpus:1 ~quantum:10.0 ~ctx_switch:0.125 () in
    let t =
      Hw.Machine.spawn m ~name:"t" (fun () ->
          for _ = 1 to 8 do
            Sim.Fiber.consume 0.125
          done)
    in
    Option.iter
      (fun until ->
        ignore (Sim.Engine.run ~until e);
        feq "clock parked at the horizon" until (Sim.Engine.now e);
        Alcotest.(check int) "one queued entry" 1 (Sim.Engine.pending e);
        Alcotest.(check int) "in place up to the horizon" 3
          (Sim.Engine.in_place_completions e))
      until;
    ignore (Sim.Engine.run e);
    (Sim.Engine.now e, Sim.Engine.events_executed e, Hw.Machine.cpu_time t)
  in
  let now, events, cpu = run ~until:0.55 () in
  let now', events', cpu' = run () in
  feq "same end" now' now;
  feq "end" 1.125 now;
  Alcotest.(check int) "same events" events' events;
  feq "same cpu time" cpu' cpu

(* Random programs run the same with a pass-through chooser, under which
   every chunk is an event, as without one, where chunks complete in
   place and each CPU re-arms one chunk record.  A [Preempt] timer
   cancels the chunks running on the thread's home machine; the chunk
   that follows on the same CPU finds its record still queued, so it
   takes a fresh one. *)
type op = Consume of int | Yield | Sleep of int | Arm of int | Preempt of int

let pp_op = function
  | Consume k -> Printf.sprintf "consume %d" k
  | Yield -> "yield"
  | Sleep k -> Printf.sprintf "sleep %d" k
  | Arm k -> Printf.sprintf "arm %d" k
  | Preempt k -> Printf.sprintf "preempt %d" k

type program = {
  nodes : (int * int) list;  (** per machine: CPUs, quantum in ticks *)
  ctx : bool;  (** a 10 µs context switch, or none *)
  threads : (int * op list) list;  (** home machine, body *)
}

(* Durations are ticks of 5 µs, so chunk ends often tie with each other
   and with timers; a consume of 7 ticks stands for one shorter than the
   machine's epsilon.  Quanta are 3 to 8 ticks, longer than the 2-tick
   context switch, as [Hw.Machine.create] requires. *)
let tick = 5e-6
let ticks k = if k = 7 then 1e-13 else float_of_int k *. tick

let arb_program =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (5, map (fun k -> Consume k) (int_bound 7));
        (1, return Yield);
        (1, map (fun k -> Sleep k) (int_bound 6));
        (1, map (fun k -> Arm k) (int_bound 6));
        (1, map (fun k -> Preempt k) (int_bound 6));
      ]
  in
  let node = pair (int_range 1 3) (int_range 3 8) in
  let thread = pair (int_bound 1) (list_size (int_bound 16) op) in
  let print p =
    Printf.sprintf "nodes [%s], ctx %b, threads [%s]"
      (String.concat "; "
         (List.map (fun (c, q) -> Printf.sprintf "%d cpus q%d" c q) p.nodes))
      p.ctx
      (String.concat "; "
         (List.map
            (fun (home, ops) ->
              Printf.sprintf "node%d: %s" home
                (String.concat ", " (List.map pp_op ops)))
            p.threads))
  in
  QCheck.make ~print
    (map3
       (fun n0 n1 (ctx, threads) -> { nodes = [ n0; n1 ]; ctx; threads })
       node node
       (pair bool (list_size (int_range 1 5) thread)))

type outcome = {
  log : (string * float) list;
  clock : float;
  events : int;
  busy : float list;
  dispatches : int list;
  preemptions : int list;
  cpu : float list;
  in_place : int;
  preempted : int;  (** threads that [Preempt] timers descheduled *)
}

let run_program ~checked p =
  let e = Sim.Engine.create () in
  if checked then Sim.Engine.set_chooser e (Some Util.pass_through);
  let ctx_switch = if p.ctx then 10e-6 else 0.0 in
  let ms =
    Array.of_list
      (List.mapi
         (fun id (cpus, q) ->
           Hw.Machine.create ~engine:e ~id ~cpus ~ctx_switch
             ~quantum:(float_of_int q *. tick) ())
         p.nodes)
  in
  let log = ref [] in
  let note what = log := (what, Sim.Engine.now e) :: !log in
  let preempted = ref 0 in
  let tcbs =
    List.mapi
      (fun i (home, ops) ->
        Hw.Machine.spawn ms.(home) ~name:(string_of_int i) (fun () ->
            List.iteri
              (fun j op ->
                (match op with
                | Consume k -> Sim.Fiber.consume (ticks k)
                | Yield -> Sim.Fiber.yield ()
                | Sleep k ->
                  Sim.Fiber.block (fun wake ->
                      ignore (Sim.Engine.schedule e ~delay:(ticks k) wake))
                | Arm k ->
                  ignore
                    (Sim.Engine.schedule e ~delay:(ticks k) (fun () ->
                         note (Printf.sprintf "timer %d.%d" i j)))
                | Preempt k ->
                  ignore
                    (Sim.Engine.schedule e ~delay:(ticks k) (fun () ->
                         let n = Hw.Machine.preempt_all ms.(home) in
                         preempted := !preempted + n;
                         note (Printf.sprintf "preempt %d.%d: %d" i j n))));
                note (Printf.sprintf "t%d op%d" i j))
              ops))
      p.threads
  in
  ignore (Sim.Engine.run e : int);
  let per f = Array.to_list (Array.map f ms) in
  {
    log = List.rev !log;
    clock = Sim.Engine.now e;
    events = Sim.Engine.events_executed e;
    busy = per Hw.Machine.total_busy_time;
    dispatches = per Hw.Machine.dispatch_count;
    preemptions = per Hw.Machine.preemption_count;
    cpu = List.map Hw.Machine.cpu_time tcbs;
    in_place = Sim.Engine.in_place_completions e;
    preempted = !preempted;
  }

let in_place_total = ref 0
let preempted_total = ref 0

let prop_in_place_matches_events =
  QCheck.Test.make ~name:"chunks in place match chunk events" ~count:2000
    arb_program (fun p ->
      let plain = run_program ~checked:false p in
      let checked = run_program ~checked:true p in
      let fail = QCheck.Test.fail_reportf in
      if checked.in_place <> 0 then
        fail "%d chunks completed in place under a chooser" checked.in_place;
      if plain.log <> checked.log then fail "logs differ";
      if plain.clock <> checked.clock then
        fail "clock %g, checked %g" plain.clock checked.clock;
      if plain.events <> checked.events then
        fail "%d events, checked %d" plain.events checked.events;
      if plain.busy <> checked.busy then fail "busy times differ";
      if plain.dispatches <> checked.dispatches then fail "dispatches differ";
      if plain.preemptions <> checked.preemptions then
        fail "preemptions differ";
      if plain.cpu <> checked.cpu then fail "thread CPU times differ";
      in_place_total := !in_place_total + plain.in_place;
      preempted_total := !preempted_total + plain.preempted;
      true)

let test_in_place_matches_events () =
  in_place_total := 0;
  preempted_total := 0;
  QCheck.Test.check_exn ~rand:(Random.State.make [| 27 |])
    prop_in_place_matches_events;
  Alcotest.(check bool) "plain runs completed chunks in place" true
    (!in_place_total > 0);
  Alcotest.(check bool) "preempt timers descheduled threads" true
    (!preempted_total > 0)

let suite =
  [
    Alcotest.test_case "single thread consumes" `Quick
      test_single_thread_consumes;
    Alcotest.test_case "P-way parallelism" `Quick test_parallelism_on_p_cpus;
    Alcotest.test_case "timeslicing interleaves" `Quick
      test_timeslicing_interleaves;
    Alcotest.test_case "no preemption when alone" `Quick
      test_no_preemption_when_alone;
    Alcotest.test_case "one engine event per cpu chunk" `Quick
      test_one_event_per_chunk;
    Alcotest.test_case "yield round-robin" `Quick test_yield_round_robin;
    Alcotest.test_case "block and wake" `Quick test_block_and_wake;
    Alcotest.test_case "a waker is one-shot" `Quick test_waker_one_shot;
    Alcotest.test_case "machine wake API" `Quick test_wake_via_machine_api;
    Alcotest.test_case "context-switch cost" `Quick test_ctx_switch_charged;
    Alcotest.test_case "quantum longer than the switch" `Quick
      test_quantum_longer_than_switch;
    Alcotest.test_case "preempt_all conserves work" `Quick test_preempt_all;
    Alcotest.test_case "preempt_all except" `Quick test_preempt_all_except;
    Alcotest.test_case "on_resume hook runs" `Quick test_on_resume_hook_runs;
    Alcotest.test_case "on_resume hook can divert" `Quick
      test_on_resume_hook_can_divert;
    Alcotest.test_case "transfer re-homes a thread" `Quick test_transfer;
    Alcotest.test_case "transfer of running thread rejected" `Quick
      test_transfer_running_rejected;
    Alcotest.test_case "failures recorded" `Quick test_failure_recorded;
    Alcotest.test_case "stepping a finished or running thread raises" `Quick
      test_step_without_continuation;
    Alcotest.test_case "policy replacement drains queue" `Quick
      test_set_policy_drains;
    Alcotest.test_case "pending work charged before resume" `Quick
      test_pending_work;
    Alcotest.test_case "a timer at a chunk's end goes first" `Quick
      test_timer_at_chunk_end;
    Alcotest.test_case "run ~until inside an in-place consume" `Quick
      test_until_inside_consume;
    Alcotest.test_case "chunks in place match chunk events" `Quick
      test_in_place_matches_events;
  ]
