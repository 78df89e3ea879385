(* Topaz RPC fabric: request/reply pairing, local shortcut, server-pool
   queueing, and one-way posts. *)

let kind = Hw.Packet.Kind.v

let build ?(nodes = 3) ?(cpus = 2) ?(servers = 2) () =
  let e = Sim.Engine.create () in
  let machines =
    Array.init nodes (fun id -> Hw.Machine.create ~engine:e ~id ~cpus ())
  in
  let ether = Hw.Ethernet.create ~engine:e () in
  let rpc = Topaz.Rpc.create ~ether ~machines ~servers_per_node:servers () in
  (e, machines, rpc)

let test_basic_call () =
  let e, machines, rpc = build () in
  let result = ref 0 in
  ignore
    (Hw.Machine.spawn machines.(0) ~name:"caller" (fun () ->
         result := Topaz.Rpc.call rpc ~dst:1 ~kind:(kind "add") ~req_size:64
             ~work:(fun () -> (8, 21 + 21))));
  ignore (Sim.Engine.run e);
  Alcotest.(check int) "reply value" 42 !result;
  Alcotest.(check int) "one call" 1 (Topaz.Rpc.calls_made rpc)

let test_call_takes_time () =
  let e, machines, rpc = build () in
  let elapsed = ref 0.0 in
  ignore
    (Hw.Machine.spawn machines.(0) ~name:"c" (fun () ->
         let t0 = Sim.Engine.now e in
         ignore (Topaz.Rpc.call rpc ~dst:1 ~kind:(kind "nop") ~req_size:0
             ~work:(fun () -> (0, ())));
         elapsed := Sim.Engine.now e -. t0));
  ignore (Sim.Engine.run e);
  (* Null RPC should land in the Firefly's couple-of-ms range. *)
  Alcotest.(check bool) "nontrivial" true (!elapsed > 1e-3);
  Alcotest.(check bool) "but bounded" true (!elapsed < 10e-3)

let test_work_runs_on_destination () =
  let e, machines, rpc = build () in
  let ran_on = ref (-1) in
  ignore
    (Hw.Machine.spawn machines.(0) ~name:"c" (fun () ->
         ignore
           (Topaz.Rpc.call rpc ~dst:2 ~kind:(kind "where") ~req_size:0
              ~work:(fun () ->
                ran_on := Hw.Machine.id (Hw.Machine.self_machine ());
                (0, ())))));
  ignore (Sim.Engine.run e);
  Alcotest.(check int) "on node 2" 2 !ran_on

let test_local_shortcut () =
  let e = Sim.Engine.create () in
  let machines =
    Array.init 2 (fun id -> Hw.Machine.create ~engine:e ~id ~cpus:2 ())
  in
  let ether = Hw.Ethernet.create ~engine:e () in
  let rpc = Topaz.Rpc.create ~ether ~machines ~servers_per_node:2 () in
  let r = ref 0 in
  ignore
    (Hw.Machine.spawn machines.(1) ~name:"c" (fun () ->
         r := Topaz.Rpc.call rpc ~dst:1 ~kind:(kind "self") ~req_size:0
             ~work:(fun () -> (0, 7))));
  ignore (Sim.Engine.run e);
  Alcotest.(check int) "value" 7 !r;
  Alcotest.(check int) "no packets for local call" 0
    (Hw.Ethernet.packets_sent ether)

let test_concurrent_calls () =
  let e, machines, rpc = build ~servers:4 () in
  let sum = ref 0 in
  for i = 0 to 5 do
    ignore
      (Hw.Machine.spawn machines.(0) ~name:(Printf.sprintf "c%d" i) (fun () ->
           sum :=
             !sum
             + Topaz.Rpc.call rpc ~dst:1 ~kind:(kind "inc") ~req_size:16
                 ~work:(fun () -> (8, i))))
  done;
  ignore (Sim.Engine.run e);
  Alcotest.(check int) "all replies" 15 !sum

let test_server_pool_queueing () =
  (* One server, two simultaneous calls with slow work: the second waits
     for the first to release the server. *)
  let e, machines, rpc = build ~servers:1 () in
  let finish = Array.make 2 0.0 in
  for i = 0 to 1 do
    ignore
      (Hw.Machine.spawn machines.(0) ~name:(string_of_int i) (fun () ->
           ignore
             (Topaz.Rpc.call rpc ~dst:1 ~kind:(kind "slow") ~req_size:0
                ~work:(fun () ->
                  Sim.Fiber.consume 0.1;
                  (0, ())));
           finish.(i) <- Sim.Engine.now e))
  done;
  ignore (Sim.Engine.run e);
  Alcotest.(check bool) "second delayed by at least one work unit" true
    (Float.abs (finish.(1) -. finish.(0)) >= 0.1)

let test_post () =
  let e, _, rpc = build () in
  let got = ref false in
  Topaz.Rpc.post rpc ~src:0 ~dst:2 ~kind:(kind "oneway") ~size:128 (fun () ->
      got := true);
  ignore (Sim.Engine.run e);
  Alcotest.(check bool) "handler ran" true !got;
  Alcotest.(check int) "counted" 1 (Topaz.Rpc.posts_made rpc)

let test_nested_call_from_server () =
  (* Work on node 1 itself RPCs node 2: servers must not deadlock. *)
  let e, machines, rpc = build ~servers:2 () in
  let r = ref 0 in
  ignore
    (Hw.Machine.spawn machines.(0) ~name:"c" (fun () ->
         r := Topaz.Rpc.call rpc ~dst:1 ~kind:(kind "outer") ~req_size:0
             ~work:(fun () ->
               let inner =
                 Topaz.Rpc.call rpc ~dst:2 ~kind:(kind "inner") ~req_size:0
                   ~work:(fun () -> (0, 5))
               in
               (0, inner * 2))));
  ignore (Sim.Engine.run e);
  Alcotest.(check int) "nested result" 10 !r

let test_backlog_drains () =
  let e, _, rpc = build ~servers:1 () in
  for _burst = 0 to 4 do
    Topaz.Rpc.post rpc ~src:0 ~dst:1 ~kind:(kind "burst") ~size:8 (fun () ->
        Sim.Fiber.consume 0.01)
  done;
  ignore (Sim.Engine.run e);
  Alcotest.(check int) "backlog empty" 0 (Topaz.Rpc.backlog rpc 1)

let suite =
  [
    Alcotest.test_case "basic call" `Quick test_basic_call;
    Alcotest.test_case "call has Firefly-range latency" `Quick
      test_call_takes_time;
    Alcotest.test_case "work runs on destination" `Quick
      test_work_runs_on_destination;
    Alcotest.test_case "local shortcut" `Quick test_local_shortcut;
    Alcotest.test_case "concurrent calls" `Quick test_concurrent_calls;
    Alcotest.test_case "server pool queues excess work" `Quick
      test_server_pool_queueing;
    Alcotest.test_case "one-way post" `Quick test_post;
    Alcotest.test_case "nested call from a server" `Quick
      test_nested_call_from_server;
    Alcotest.test_case "backlog drains" `Quick test_backlog_drains;
  ]
