(* Amber-Async: future semantics (resolve/await orderings, exception
   delivery, multi-shot awaits), the RPC delivered-table boundedness
   regression, wire-level coalescing, and the invoke exception-path
   balance audit. *)

module A = Amber
module San = Analysis.Ambersan

let faults =
  {
    Hw.Ethernet.no_faults with
    Hw.Ethernet.drop_prob = 0.02;
    dup_prob = 0.01;
  }

(* --- resolve/await orderings ---------------------------------------------- *)

(* The helper resolves long before the issuer looks: await must return
   immediately with the memoized value (probe cost only, no parking). *)
let test_resolve_before_await () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"fut-early" (ref 10) in
      A.Api.move_to rt o ~dest:2;
      let f = A.Api.invoke_async rt o (fun c -> incr c; !c) in
      Alcotest.(check bool) "pending at issue" false (A.Future.is_resolved f);
      (* Spin compute until the outcome lands back home; events (the
         future-notify) fire while we burn virtual CPU. *)
      let guard = ref 0 in
      while (not (A.Future.is_resolved f)) && !guard < 10_000 do
        incr guard;
        Sim.Fiber.consume 100e-6
      done;
      Alcotest.(check bool) "resolved without await" true
        (A.Future.is_resolved f);
      (match A.Future.peek f with
      | Some (Ok 11) -> ()
      | _ -> Alcotest.fail "peek should expose Ok 11");
      let t0 = A.Api.now rt in
      Alcotest.(check int) "value" 11 (A.Api.await rt f);
      Alcotest.(check bool) "await of resolved future is cheap" true
        (A.Api.now rt -. t0 < 1e-3))

(* Await first, resolve later: the awaiting fiber parks and wakes with
   the value once the helper's notify lands. *)
let test_await_before_resolve () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"fut-late" (ref 0) in
      A.Api.move_to rt o ~dest:1;
      let f =
        A.Api.invoke_async rt o (fun c ->
            Sim.Fiber.consume 5e-3;
            c := 42;
            !c)
      in
      Alcotest.(check bool) "still pending" false (A.Future.is_resolved f);
      let t0 = A.Api.now rt in
      Alcotest.(check int) "value" 42 (A.Api.await rt f);
      Alcotest.(check bool) "await waited for the 5 ms op" true
        (A.Api.now rt -. t0 >= 5e-3))

(* The point of the exercise: an async op overlapping issuer compute
   costs less wall-clock than the two serialized. *)
let test_overlap_hides_latency () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"fut-ovl" (ref 0) in
      A.Api.move_to rt o ~dest:3;
      let t0 = A.Api.now rt in
      let f = A.Api.invoke_async rt o (fun _ -> Sim.Fiber.consume 10e-3) in
      Sim.Fiber.consume 10e-3 (* issuer compute, concurrent with the op *);
      A.Api.await rt f;
      let elapsed = A.Api.now rt -. t0 in
      Alcotest.(check bool) "overlapped: well under 2x10ms serial" true
        (elapsed < 18e-3);
      Alcotest.(check bool) "but at least one 10ms leg" true
        (elapsed >= 10e-3))

(* Futures are multi-shot: the outcome is memoized, not consumed. *)
let test_double_await () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"fut-twice" (ref 5) in
      A.Api.move_to rt o ~dest:1;
      let c0 = (A.Runtime.counters rt).A.Runtime.async_invocations in
      let f = A.Api.invoke_async rt o (fun c -> c := !c * 2; !c) in
      Alcotest.(check int) "first await" 10 (A.Api.await rt f);
      Alcotest.(check int) "second await (memoized)" 10 (A.Api.await rt f);
      Alcotest.(check int) "one async invocation issued" (c0 + 1)
        (A.Runtime.counters rt).A.Runtime.async_invocations)

(* --- exception delivery ---------------------------------------------------- *)

let test_exception_at_await () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"fut-boom" (ref 0) in
      A.Api.move_to rt o ~dest:2;
      let f = A.Api.invoke_async rt o (fun _ -> failwith "async-boom") in
      Alcotest.check_raises "re-raised at await" (Failure "async-boom")
        (fun () -> ignore (A.Api.await rt f : unit));
      (* Multi-shot for failures too. *)
      Alcotest.check_raises "re-raised on second await" (Failure "async-boom")
        (fun () -> ignore (A.Api.await rt f : unit));
      Alcotest.(check int) "writers released by the failed op" 0
        o.A.Aobject.writers;
      (* The object survives its op's failure. *)
      Alcotest.(check int) "object still invocable" 7
        (A.Api.invoke rt o (fun c -> c := 7; !c)))

(* await_all observes every future (no abandoned helpers), then
   re-raises the first failure by list position. *)
let test_await_all_first_failure () =
  Util.run (fun rt ->
      let mk i dest op =
        let o = A.Api.create rt ~name:(Printf.sprintf "fut-all%d" i) (ref i) in
        A.Api.move_to rt o ~dest;
        A.Api.invoke_async rt o op
      in
      let f0 = mk 0 1 (fun c -> !c) in
      let f1 = mk 1 2 (fun _ -> failwith "middle") in
      let f2 = mk 2 3 (fun _ -> failwith "last") in
      Alcotest.check_raises "first failure by position" (Failure "middle")
        (fun () -> ignore (A.Api.await_all rt [ f0; f1; f2 ] : int list));
      List.iter
        (fun f ->
          Alcotest.(check bool) "every future observed" true
            (A.Future.is_resolved f))
        [ f0; f1; f2 ];
      let ok = mk 3 1 (fun c -> !c) in
      Alcotest.(check (list int)) "all-success list ordered" [ 3 ]
        (A.Api.await_all rt [ ok ]))

(* A helper that finishes away from home must ship the outcome back in a
   future-notify datagram — results do not teleport. *)
let test_remote_resolution_notifies () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"fut-notify" (ref 1) in
      A.Api.move_to rt o ~dest:3;
      let n0 = (A.Runtime.counters rt).A.Runtime.future_notifies in
      let f = A.Api.invoke_async rt o (fun c -> !c + 1) in
      Alcotest.(check int) "value" 2 (A.Api.await rt f);
      Alcotest.(check bool) "notify datagram carried the outcome" true
        ((A.Runtime.counters rt).A.Runtime.future_notifies > n0))

(* --- QCheck: fan-out sums, fault-free and faulted+coalesced ---------------- *)

(* Pin the generator seed so CI failures reproduce (QCHECK_SEED still
   overrides); same convention as test_replica.ml. *)
let rand () =
  let seed =
    match int_of_string_opt (Sys.getenv "QCHECK_SEED") with
    | Some s -> s
    | None -> 0xA3BE12
    | exception Not_found -> 0xA3BE12
  in
  Random.State.make [| seed |]

let fan_out_body salt rt =
  let nodes = A.Api.node_count rt in
  let n = 8 in
  let objs =
    Array.init n (fun i ->
        let o = A.Api.create rt ~name:(Printf.sprintf "qfut%d" i) (ref i) in
        let dest = i mod nodes in
        if dest <> A.Api.my_node rt then A.Api.move_to rt o ~dest;
        o)
  in
  let fs =
    Array.to_list
      (Array.map (fun o -> A.Api.invoke_async rt o (fun c -> !c + salt)) objs)
  in
  let got = A.Api.await_all rt fs in
  let expect = List.init n (fun i -> i + salt) in
  if got <> expect then
    QCheck.Test.fail_reportf "salt=%d: async fan-out returned wrong sums" salt;
  true

let prop_fan_out_plain =
  QCheck.Test.make ~name:"async fan-out sums (fault-free)" ~count:15
    QCheck.(int_bound 100_000)
    (fun salt -> Util.run ~nodes:4 ~cpus:2 (fan_out_body salt))

(* Same program under packet loss/duplication with coalescing on: the
   notify protocol rides send_reliable, so outcomes still land exactly
   once and in full. *)
let prop_fan_out_faulted_coalesced =
  QCheck.Test.make ~name:"async fan-out sums (lossy wire, coalescing)"
    ~count:10
    QCheck.(int_bound 100_000)
    (fun salt ->
      let cfg =
        A.Config.make ~nodes:4 ~cpus:2
          ~seed:(Int64.of_int (1 + (salt mod 997)))
          ~faults ~coalesce:Topaz.Rpc.default_coalesce ()
      in
      A.Cluster.run_value cfg (fan_out_body salt))

(* --- delivered-table boundedness (windowed pruning regression) ------------- *)

(* Before the retirement window, every reliably-delivered datagram left a
   tombstone in the dedup table forever; a long faulted run grew it
   without bound.  3000 datagrams must all arrive exactly once while the
   table stays around the 1024-entry window. *)
let test_delivered_table_bounded () =
  let e = Sim.Engine.create () in
  let nodes = 3 in
  let machines =
    Array.init nodes (fun id -> Hw.Machine.create ~engine:e ~id ~cpus:2 ())
  in
  let tasks = Array.map (fun m -> Topaz.Task.create ~machine:m ()) machines in
  let ether = Hw.Ethernet.create ~engine:e ~faults () in
  let rpc =
    Topaz.Rpc.create ~ether ~tasks ~servers_per_node:2 ~reliable:true ()
  in
  let total = 3000 in
  let delivered = ref 0 in
  let seen = Hashtbl.create 4096 in
  ignore
    (Topaz.Task.spawn tasks.(0) ~name:"flood" (fun () ->
         for i = 0 to total - 1 do
           Topaz.Rpc.send_reliable rpc ~src:0
             ~dst:(1 + (i mod (nodes - 1)))
             ~size:32 ~kind:"flood"
             (fun () ->
               if Hashtbl.mem seen i then
                 Alcotest.failf "datagram %d delivered twice" i;
               Hashtbl.add seen i ();
               incr delivered);
           (* Pace the flood so acks interleave and retirement happens
              while traffic is still flowing, not just at the end. *)
           Sim.Fiber.consume 150e-6
         done));
  ignore (Sim.Engine.run e);
  Alcotest.(check int) "exactly-once delivery of all 3000" total !delivered;
  let sz = Topaz.Rpc.delivered_size rpc in
  Alcotest.(check bool)
    (Printf.sprintf "dedup table pruned (size %d <= window + slack)" sz)
    true
    (sz <= 1024 + 128)

(* --- coalescing: batching, ordering, size gate ----------------------------- *)

let test_coalescing_batches_and_orders () =
  let e = Sim.Engine.create () in
  let machines =
    Array.init 2 (fun id -> Hw.Machine.create ~engine:e ~id ~cpus:2 ())
  in
  let tasks = Array.map (fun m -> Topaz.Task.create ~machine:m ()) machines in
  let ether = Hw.Ethernet.create ~engine:e () in
  let rpc =
    Topaz.Rpc.create ~ether ~tasks ~servers_per_node:2
      ~coalesce:Topaz.Rpc.default_coalesce ()
  in
  let order = ref [] in
  ignore
    (Topaz.Task.spawn tasks.(0) ~name:"burst" (fun () ->
         (* Ten small datagrams back-to-back: all park within one flush
            window.  One oversized message must bypass the parking lot. *)
         for i = 0 to 9 do
           Topaz.Rpc.send_reliable rpc ~src:0 ~dst:1 ~size:24 ~kind:"tiny"
             (fun () -> order := i :: !order)
         done;
         Topaz.Rpc.send_reliable rpc ~src:0 ~dst:1 ~size:512 ~kind:"big"
           (fun () -> order := 99 :: !order)));
  ignore (Sim.Engine.run e);
  let z = Topaz.Rpc.coalescing rpc in
  Alcotest.(check int) "only the small ones were eligible" 10
    z.Topaz.Rpc.coal_eligible;
  Alcotest.(check bool) "a multi-message frame went out" true
    (z.Topaz.Rpc.coal_frames >= 1);
  Alcotest.(check bool) "most of the burst was batched" true
    (z.Topaz.Rpc.coal_batched >= 8);
  Alcotest.(check bool) "batching saved packets" true
    (Hw.Ethernet.packets_sent ether < 11);
  (* Per-pair FIFO survives framing: the small ones arrive in issue
     order (the big one flushed ahead of nothing and may land first or
     last depending on the window — only the relative order of the
     coalesced ten is guaranteed). *)
  let smalls = List.filter (fun i -> i < 99) (List.rev !order) in
  Alcotest.(check (list int)) "delivery order preserved"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    smalls

(* --- invoke exception-path balance (the latent-bug sweep) ------------------ *)

(* A remote op that raises must leave no trace: frame popped, writer
   count released, object still usable, thread back home and able to
   invoke again.  Before the Fun.protect sweep the span and access
   bookkeeping leaked on this path. *)
let test_raising_op_balances () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"bal-op" (ref 0) in
      A.Api.move_to rt o ~dest:1;
      let frames0 = List.length (A.Runtime.current rt).A.Runtime.frames in
      (try ignore (A.Api.invoke rt o (fun _ -> failwith "op-boom") : unit)
       with Failure _ -> ());
      Alcotest.(check int) "frame stack balanced" frames0
        (List.length (A.Runtime.current rt).A.Runtime.frames);
      Alcotest.(check int) "writers released" 0 o.A.Aobject.writers;
      Alcotest.(check int) "thread recovered, object invocable" 7
        (A.Api.invoke rt o (fun c -> c := 7; !c)))

(* Nested invokes with the inner op raising: both frames unwind, both
   objects stay consistent, the outer op can catch and continue. *)
let test_nested_raise_balances () =
  Util.run (fun rt ->
      let a = A.Api.create rt ~name:"bal-outer" (ref 0) in
      let b = A.Api.create rt ~name:"bal-inner" (ref 0) in
      A.Api.move_to rt a ~dest:1;
      A.Api.move_to rt b ~dest:2;
      let caught =
        A.Api.invoke rt a (fun ca ->
            match A.Api.invoke rt b (fun _ -> failwith "inner-boom") with
            | () -> false
            | exception Failure _ ->
              ca := 1;
              true)
      in
      Alcotest.(check bool) "outer caught the inner failure" true caught;
      Alcotest.(check int) "inner writers released" 0 b.A.Aobject.writers;
      Alcotest.(check int) "outer writers released" 0 a.A.Aobject.writers;
      Alcotest.(check int) "outer op's effect survived" 1
        (A.Api.invoke rt a (fun c -> !c));
      Alcotest.(check int) "inner object still invocable" 3
        (A.Api.invoke rt b (fun c -> c := 3; !c)))

(* The settle/chase path: invoking a destroyed object raises a dangling
   failure at the caller, and must unwind the just-pushed frame so the
   thread keeps working. *)
let test_dangling_invoke_unwinds () =
  Util.run (fun rt ->
      let gate = A.Api.create rt ~name:"bal-gate" (ref 0) in
      let doomed = A.Api.create rt ~name:"bal-doomed" (ref 0) in
      A.Api.move_to rt gate ~dest:1;
      A.Api.move_to rt doomed ~dest:1;
      (* Destroy [doomed] while co-resident with it, from inside the
         gate's op; our cached descriptor still points at node 1. *)
      A.Api.invoke rt gate (fun _ -> A.Api.destroy rt doomed);
      let frames0 = List.length (A.Runtime.current rt).A.Runtime.frames in
      (match A.Api.invoke rt doomed (fun c -> !c) with
      | _ -> Alcotest.fail "invoke of a destroyed object succeeded"
      | exception Failure msg ->
        let contains hay needle =
          let n = String.length needle and h = String.length hay in
          let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "dangling reference reported" true
          (contains msg "dangling"));
      Alcotest.(check int) "frame stack balanced after settle failure"
        frames0
        (List.length (A.Runtime.current rt).A.Runtime.frames);
      Alcotest.(check int) "thread still works" 9
        (A.Api.invoke rt gate (fun c -> c := 9; !c)))

(* The same exception traffic under AmberSan: no leaked accesses, no
   unbalanced span/coherence state. *)
let test_exception_paths_sanitized_clean () =
  let cfg = A.Config.make ~nodes:4 ~cpus:2 () in
  let san = ref None in
  A.Cluster.run_value cfg (fun rt ->
      san := Some (San.attach rt);
      let o = A.Api.create rt ~name:"san-bal" (ref 0) in
      A.Api.move_to rt o ~dest:1;
      (try ignore (A.Api.invoke rt o (fun _ -> failwith "x") : unit)
       with Failure _ -> ());
      let f = A.Api.invoke_async rt o (fun _ -> failwith "y") in
      (try ignore (A.Api.await rt f : unit) with Failure _ -> ());
      ignore (A.Api.invoke rt o (fun c -> c := 1; !c) : int));
  let report = San.finalize (Option.get !san) in
  Alcotest.(check int) "sanitizer clean across exception paths" 0
    (San.findings report)

(* --- typed join errors (satellite 1) --------------------------------------- *)

let test_join_all_collects_and_types () =
  Util.run (fun rt ->
      let ok i = A.Api.start rt ~name:(Printf.sprintf "ja-ok%d" i)
          (fun () -> Sim.Fiber.consume 1e-3; i)
      in
      let bad = A.Api.start rt ~name:"ja-bad" (fun () -> failwith "ja-boom") in
      let ts = [ ok 1; bad; ok 3 ] in
      (match A.Api.join_all rt ts with
      | _ -> Alcotest.fail "join_all should raise on the failed thread"
      | exception A.Athread.Join_failed { thread; index; error; _ } ->
        Alcotest.(check string) "names the thread" "ja-bad" thread;
        Alcotest.(check int) "positions it" 1 index;
        (match error with
        | Failure m -> Alcotest.(check string) "wraps the cause" "ja-boom" m
        | _ -> Alcotest.fail "wrong wrapped exception"));
      (* The failure did not abort the sweep: the cluster would re-raise
         any unobserved thread failure at shutdown, so reaching a clean
         all-success join_all here proves every sibling was joined. *)
      Alcotest.(check (list int)) "all-success join_all ordered" [ 4; 5 ]
        (A.Api.join_all rt [ ok 4; ok 5 ]))

(* --- pipelined SOR: bit-identical numerics ---------------------------------- *)

let test_sor_pipe_matches_sync () =
  let p =
    Workloads.Sor_core.with_size Workloads.Sor_core.default ~rows:16 ~cols:64
  in
  let sync = Util.run ~nodes:4 ~cpus:2 (fun rt ->
      Workloads.Sor_amber.run rt p ~iters:4 ())
  in
  let pipe = Util.run ~nodes:4 ~cpus:2 (fun rt ->
      Workloads.Sor_pipe.run rt p ~iters:4 ())
  in
  Util.check_float "checksum bit-identical"
    sync.Workloads.Sor_amber.checksum pipe.Workloads.Sor_pipe.checksum;
  Alcotest.(check int) "same iteration count" 4
    pipe.Workloads.Sor_pipe.iterations;
  Alcotest.(check bool) "futures actually used" true
    (pipe.Workloads.Sor_pipe.async_invocations > 0)

let test_sor_pipe_faulted_checksum_stable () =
  let p =
    Workloads.Sor_core.with_size Workloads.Sor_core.default ~rows:16 ~cols:64
  in
  let clean = Util.run ~nodes:4 ~cpus:2 (fun rt ->
      Workloads.Sor_pipe.run rt p ~iters:4 ())
  in
  let cfg =
    A.Config.make ~nodes:4 ~cpus:2 ~seed:7L ~faults
      ~coalesce:Topaz.Rpc.default_coalesce ()
  in
  let lossy =
    A.Cluster.run_value cfg (fun rt -> Workloads.Sor_pipe.run rt p ~iters:4 ())
  in
  Util.check_float "checksum invariant under loss + coalescing"
    clean.Workloads.Sor_pipe.checksum lossy.Workloads.Sor_pipe.checksum

let suite =
  [
    Alcotest.test_case "resolve before await" `Quick test_resolve_before_await;
    Alcotest.test_case "await before resolve" `Quick test_await_before_resolve;
    Alcotest.test_case "overlap hides latency" `Quick test_overlap_hides_latency;
    Alcotest.test_case "double await is memoized" `Quick test_double_await;
    Alcotest.test_case "exception delivered at await" `Quick
      test_exception_at_await;
    Alcotest.test_case "await_all raises first failure" `Quick
      test_await_all_first_failure;
    Alcotest.test_case "remote resolution sends notify" `Quick
      test_remote_resolution_notifies;
    QCheck_alcotest.to_alcotest ~rand:(rand ()) prop_fan_out_plain;
    QCheck_alcotest.to_alcotest ~rand:(rand ()) prop_fan_out_faulted_coalesced;
    Alcotest.test_case "delivered table stays bounded" `Quick
      test_delivered_table_bounded;
    Alcotest.test_case "coalescing batches and preserves order" `Quick
      test_coalescing_batches_and_orders;
    Alcotest.test_case "raising op balances" `Quick test_raising_op_balances;
    Alcotest.test_case "nested raise balances" `Quick test_nested_raise_balances;
    Alcotest.test_case "dangling invoke unwinds" `Quick
      test_dangling_invoke_unwinds;
    Alcotest.test_case "exception paths sanitizer-clean" `Quick
      test_exception_paths_sanitized_clean;
    Alcotest.test_case "join_all types its failures" `Quick
      test_join_all_collects_and_types;
    Alcotest.test_case "pipelined SOR matches sync checksum" `Quick
      test_sor_pipe_matches_sync;
    Alcotest.test_case "pipelined SOR stable under faults" `Quick
      test_sor_pipe_faulted_checksum_stable;
  ]
