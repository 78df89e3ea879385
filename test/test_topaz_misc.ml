(* Task, Kthread. *)

let build () =
  let e = Sim.Engine.create () in
  let m = Hw.Machine.create ~engine:e ~id:0 ~cpus:2 () in
  let task = Topaz.Task.create ~machine:m () in
  (e, m, task)

let test_task_spawn_counts () =
  let e, _, task = build () in
  for _ = 1 to 3 do
    ignore (Topaz.Task.spawn task ~name:"t" (fun () -> Sim.Fiber.consume 0.1))
  done;
  Alcotest.(check int) "spawned" 3 (Topaz.Task.threads_spawned task);
  Alcotest.(check bool) "live while queued" true
    (Topaz.Task.threads_live task > 0);
  ignore (Sim.Engine.run e);
  Alcotest.(check int) "none live after run" 0 (Topaz.Task.threads_live task)

let test_kthread_join () =
  let e, _, task = build () in
  let order = ref [] in
  let worker =
    Topaz.Task.spawn task ~name:"w" (fun () ->
        Sim.Fiber.consume 0.5;
        order := "worker" :: !order)
  in
  ignore
    (Topaz.Task.spawn task ~name:"joiner" (fun () ->
         (match Topaz.Kthread.join worker with
         | Sim.Fiber.Completed -> ()
         | Sim.Fiber.Failed _ -> Alcotest.fail "worker failed");
         order := "joiner" :: !order));
  ignore (Sim.Engine.run e);
  Alcotest.(check (list string)) "join waited" [ "joiner"; "worker" ] !order

let test_kthread_join_finished () =
  let e, _, task = build () in
  let worker = Topaz.Task.spawn task ~name:"w" (fun () -> ()) in
  ignore (Sim.Engine.run e);
  let joined = ref false in
  ignore
    (Topaz.Task.spawn task ~name:"j" (fun () ->
         (match Topaz.Kthread.join worker with
         | Sim.Fiber.Completed -> joined := true
         | Sim.Fiber.Failed _ -> ())));
  ignore (Sim.Engine.run e);
  Alcotest.(check bool) "join of finished thread returns" true !joined

let test_kthread_sleep () =
  let e, _, task = build () in
  let woke = ref 0.0 in
  ignore
    (Topaz.Task.spawn task ~name:"s" (fun () ->
         Topaz.Kthread.sleep ~engine:e 2.5;
         woke := Sim.Engine.now e));
  ignore (Sim.Engine.run e);
  Alcotest.(check (float 1e-9)) "slept" 2.5 !woke

let suite =
  [
    Alcotest.test_case "task spawn bookkeeping" `Quick test_task_spawn_counts;
    Alcotest.test_case "kthread join blocks" `Quick test_kthread_join;
    Alcotest.test_case "join of finished thread" `Quick
      test_kthread_join_finished;
    Alcotest.test_case "sleep" `Quick test_kthread_sleep;
  ]
