(* Kthread. *)

let build () =
  let e = Sim.Engine.create () in
  let m = Hw.Machine.create ~engine:e ~id:0 ~cpus:2 () in
  (e, m)

let test_kthread_join () =
  let e, m = build () in
  let order = ref [] in
  let worker =
    Hw.Machine.spawn m ~name:"w" (fun () ->
        Sim.Fiber.consume 0.5;
        order := "worker" :: !order)
  in
  ignore
    (Hw.Machine.spawn m ~name:"joiner" (fun () ->
         (match Topaz.Kthread.join worker with
         | Sim.Fiber.Completed -> ()
         | Sim.Fiber.Failed _ -> Alcotest.fail "worker failed");
         order := "joiner" :: !order));
  ignore (Sim.Engine.run e);
  Alcotest.(check (list string)) "join waited" [ "joiner"; "worker" ] !order

let test_kthread_join_finished () =
  let e, m = build () in
  let worker = Hw.Machine.spawn m ~name:"w" (fun () -> ()) in
  ignore (Sim.Engine.run e);
  let joined = ref false in
  ignore
    (Hw.Machine.spawn m ~name:"j" (fun () ->
         (match Topaz.Kthread.join worker with
         | Sim.Fiber.Completed -> joined := true
         | Sim.Fiber.Failed _ -> ())));
  ignore (Sim.Engine.run e);
  Alcotest.(check bool) "join of finished thread returns" true !joined

let test_kthread_sleep () =
  let e, m = build () in
  let woke = ref 0.0 in
  ignore
    (Hw.Machine.spawn m ~name:"s" (fun () ->
         Topaz.Kthread.sleep ~engine:e 2.5;
         woke := Sim.Engine.now e));
  ignore (Sim.Engine.run e);
  Alcotest.(check (float 1e-9)) "slept" 2.5 !woke

let suite =
  [
    Alcotest.test_case "kthread join blocks" `Quick test_kthread_join;
    Alcotest.test_case "join of finished thread" `Quick
      test_kthread_join_finished;
    Alcotest.test_case "sleep" `Quick test_kthread_sleep;
  ]
