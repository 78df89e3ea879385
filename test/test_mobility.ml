(* MoveTo / Locate / Attach / immutability, including bound-thread
   co-migration (§3.5). *)

module A = Amber

let test_move_updates_descriptors () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"o" () in
      let addr = o.A.Aobject.addr in
      A.Api.move_to rt o ~dest:2;
      Alcotest.(check int) "ground truth" 2 (Util.location o);
      Alcotest.(check bool) "resident at dest" true
        (A.Descriptor.is_resident (A.Runtime.descriptors rt 2) addr);
      (match A.Descriptor.get (A.Runtime.descriptors rt 0) addr with
      | Some (A.Descriptor.Forwarded 2) -> ()
      | _ -> Alcotest.fail "source should forward to 2"))

let test_move_to_same_node_is_noop () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"o" () in
      let before = (A.Runtime.counters rt).A.Runtime.object_moves in
      A.Api.move_to rt o ~dest:0;
      Alcotest.(check int) "still here" 0 (Util.location o);
      Alcotest.(check int) "no move recorded" before
        (A.Runtime.counters rt).A.Runtime.object_moves)

let test_move_cost_table1 () =
  let per_move =
    Util.run (fun rt ->
        let o = A.Api.create rt ~size:1024 ~name:"ball" () in
        A.Api.move_to rt o ~dest:1;
        (* Steady state: mover on node 0 with a 1-hop-accurate hint. *)
        let t0 = A.Api.now rt in
        let flip = ref 2 in
        for _ = 1 to 6 do
          A.Api.move_to rt o ~dest:!flip;
          flip := (if !flip = 1 then 2 else 1)
        done;
        (A.Api.now rt -. t0) /. 6.0)
  in
  Alcotest.(check bool) "approx 12.4 ms" true
    (per_move > 11e-3 && per_move < 14e-3)

let test_locate () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"o" () in
      Alcotest.(check int) "at home" 0 (A.Api.locate rt o);
      A.Api.move_to rt o ~dest:3;
      Alcotest.(check int) "after move" 3 (A.Api.locate rt o))

(* What one chain walker teaches the chain (§3.3).  A thread on node 1
   moves [o] 2 -> 3 -> 4 -> 5, which leaves the home node 0 four hops
   behind; [walk] then runs from node 0, and [want] is every node's
   descriptor afterwards. *)
let chain_after ~walk ~want () =
  Util.run ~nodes:6 (fun rt ->
      let o = A.Api.create rt ~name:"o" () in
      let anchor = A.Api.create rt ~name:"anchor" () in
      A.Api.move_to rt anchor ~dest:1;
      let mover =
        A.Api.start_invoke rt anchor (fun () ->
            List.iter (fun d -> A.Api.move_to rt o ~dest:d) [ 2; 3; 4; 5 ])
      in
      A.Api.join rt mover;
      let chain () =
        List.init 6 (fun n ->
            match
              A.Descriptor.get (A.Runtime.descriptors rt n) o.A.Aobject.addr
            with
            | Some A.Descriptor.Resident -> "R"
            | Some (A.Descriptor.Forwarded f) -> Printf.sprintf "F%d" f
            | Some (A.Descriptor.Replica m) -> Printf.sprintf "P%d" m
            | None -> "-")
      in
      Alcotest.(check (list string))
        "before" [ "F2"; "F5"; "F3"; "F4"; "F5"; "R" ] (chain ());
      walk rt o;
      Alcotest.(check (list string)) "after" want (chain ()))

let test_locate_compresses_chain =
  chain_after
    ~walk:(fun rt o ->
      let t0 = A.Api.now rt in
      Alcotest.(check int) "found" 5 (A.Api.locate rt o);
      let first = A.Api.now rt -. t0 in
      let t1 = A.Api.now rt in
      ignore (A.Api.locate rt o : int);
      let second = A.Api.now rt -. t1 in
      Alcotest.(check bool) "second lookup faster" true (second < first))
    ~want:[ "F5"; "F5"; "F5"; "F5"; "F5"; "R" ]

let test_invoke_compresses_chain =
  chain_after
    ~walk:(fun rt o ->
      Alcotest.(check int)
        "ran at" 5
        (A.Api.invoke rt o (fun () -> A.Api.my_node rt)))
    ~want:[ "F5"; "F5"; "F5"; "F5"; "F5"; "R" ]

let test_move_compresses_chain =
  chain_after
    ~walk:(fun rt o -> A.Api.move_to rt o ~dest:1)
    ~want:[ "F1"; "R"; "F1"; "F1"; "F1"; "F1" ]

let test_bound_thread_moves_with_object () =
  let finished_on =
    Util.run (fun rt ->
        let room = A.Api.create rt ~name:"room" (ref 0) in
        let t =
          A.Api.start rt (fun () ->
              A.Api.invoke rt room (fun n ->
                  for _ = 1 to 20 do
                    Sim.Fiber.consume 1e-3;
                    incr n
                  done;
                  A.Api.my_node rt))
        in
        Topaz.Kthread.sleep ~engine:(A.Runtime.engine rt) 5e-3;
        A.Api.move_to rt room ~dest:3;
        let finished_on = A.Api.join rt t in
        Alcotest.(check int) "all increments happened" 20
          !(room.A.Aobject.state);
        finished_on)
  in
  Alcotest.(check int) "thread followed the object" 3 finished_on

let test_mover_bound_to_object_follows () =
  (* A thread moving the object it is executing inside ends up at the
     destination itself. *)
  let where =
    Util.run (fun rt ->
        let o = A.Api.create rt ~name:"o" () in
        A.Api.invoke rt o (fun () ->
            A.Api.move_to rt o ~dest:2;
            A.Api.my_node rt))
  in
  Alcotest.(check int) "mover followed" 2 where

let test_attach_co_locates () =
  Util.run (fun rt ->
      let parent = A.Api.create rt ~name:"p" () in
      let child = A.Api.create rt ~name:"c" () in
      A.Api.move_to rt parent ~dest:2;
      A.Api.attach rt ~parent ~child;
      Alcotest.(check int) "child moved to parent" 2 (Util.location child))

let test_attached_move_together () =
  Util.run (fun rt ->
      let parent = A.Api.create rt ~name:"p" () in
      let child = A.Api.create rt ~name:"c" () in
      let grandchild = A.Api.create rt ~name:"g" () in
      A.Api.attach rt ~parent ~child;
      A.Api.attach rt ~parent:child ~child:grandchild;
      A.Api.move_to rt parent ~dest:3;
      Alcotest.(check int) "child" 3 (Util.location child);
      Alcotest.(check int) "grandchild" 3 (Util.location grandchild))

let test_attached_child_cannot_move_alone () =
  Util.run (fun rt ->
      let parent = A.Api.create rt ~name:"p" () in
      let child = A.Api.create rt ~name:"c" () in
      A.Api.attach rt ~parent ~child;
      Alcotest.check_raises "attached"
        (Invalid_argument "Mobility.move_to: object is attached; move its root")
        (fun () -> A.Api.move_to rt child ~dest:1))

let test_unattach_restores_independence () =
  Util.run (fun rt ->
      let parent = A.Api.create rt ~name:"p" () in
      let child = A.Api.create rt ~name:"c" () in
      A.Api.attach rt ~parent ~child;
      A.Api.unattach rt ~child;
      A.Api.move_to rt child ~dest:1;
      A.Api.move_to rt parent ~dest:2;
      Alcotest.(check int) "child independent" 1 (Util.location child);
      Alcotest.(check int) "parent independent" 2 (Util.location parent))

let test_attach_cycle_rejected () =
  Util.run (fun rt ->
      let a = A.Api.create rt ~name:"a" () in
      let b = A.Api.create rt ~name:"b" () in
      A.Api.attach rt ~parent:a ~child:b;
      Alcotest.check_raises "cycle"
        (Invalid_argument "Mobility.attach: attachment would create a cycle")
        (fun () -> A.Api.attach rt ~parent:b ~child:a))

let test_attach_self_rejected () =
  Util.run (fun rt ->
      let a = A.Api.create rt ~name:"a" () in
      Alcotest.check_raises "self"
        (Invalid_argument "Mobility.attach: cannot attach an object to itself")
        (fun () -> A.Api.attach rt ~parent:a ~child:a))

let test_immutable_move_copies () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"o" (ref 9) in
      A.Api.set_immutable rt o;
      A.Api.move_to rt o ~dest:2;
      A.Api.move_to rt o ~dest:3;
      Alcotest.(check int) "master stays home" 0 (Util.location o);
      Alcotest.(check bool) "replica on 2" true (A.Aobject.usable_on o 2);
      Alcotest.(check bool) "replica on 3" true (A.Aobject.usable_on o 3);
      let c = A.Runtime.counters rt in
      Alcotest.(check int) "two copies, no moves" 2 c.A.Runtime.object_copies;
      Alcotest.(check int) "no moves" 0 c.A.Runtime.object_moves)

let test_immutable_copy_idempotent () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"o" () in
      A.Api.set_immutable rt o;
      A.Api.move_to rt o ~dest:2;
      let before = (A.Runtime.counters rt).A.Runtime.object_copies in
      A.Api.move_to rt o ~dest:2;
      Alcotest.(check int) "no second copy" before
        (A.Runtime.counters rt).A.Runtime.object_copies)

let test_destroy () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"o" () in
      let addr = o.A.Aobject.addr in
      A.Api.destroy rt o;
      Alcotest.(check bool) "descriptor cleared" true
        (A.Descriptor.get (A.Runtime.descriptors rt 0) addr = None);
      Alcotest.(check bool) "heap block freed" false
        (Vaspace.Heap.is_live (A.Runtime.heap rt 0) addr))

let test_dangling_invoke_detected () =
  Util.run (fun rt ->
      (* Distinct sizes everywhere so the freed block is NOT reused (block
         reuse legitimately revives the address, see the §3.2 test). *)
      let o = A.Api.create rt ~size:208 ~name:"doomed" (ref 0) in
      A.Api.destroy rt o;
      (match A.Api.invoke rt o (fun r -> !r) with
      | _ -> Alcotest.fail "expected dangling-reference failure"
      | exception Failure msg ->
        Alcotest.(check bool) "diagnostic names the problem" true
          (String.length msg > 0));
      (* Also from another node (goes through the home-node fallback). *)
      let anchor = A.Api.create rt ~size:96 ~name:"anchor" () in
      A.Api.move_to rt anchor ~dest:2;
      let t =
        A.Api.start_invoke rt anchor (fun () ->
            match A.Api.invoke rt o (fun r -> !r) with
            | _ -> false
            | exception Failure _ -> true)
      in
      Alcotest.(check bool) "detected remotely too" true (A.Api.join rt t))

let test_dangling_locate_detected () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~size:208 ~name:"doomed" () in
      A.Api.destroy rt o;
      match A.Api.locate rt o with
      | _ -> Alcotest.fail "expected failure"
      | exception Failure _ -> ())

let test_destroyed_block_reuse_is_fresh () =
  (* §3.2: the freed block may be reused whole by a new object; the new
     object works normally at the same address. *)
  Util.run (fun rt ->
      let o1 = A.Api.create rt ~size:48 ~name:"old" () in
      let addr1 = o1.A.Aobject.addr in
      A.Api.destroy rt o1;
      let o2 = A.Api.create rt ~size:48 ~name:"new" (ref 5) in
      Alcotest.(check int) "block reused" addr1 o2.A.Aobject.addr;
      Alcotest.(check int) "new object fully functional" 5
        (A.Api.invoke rt o2 (fun r -> !r)))

let test_destroy_remote_rejected () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"o" () in
      A.Api.move_to rt o ~dest:1;
      Alcotest.check_raises "remote"
        (Invalid_argument "Runtime.destroy_object: object is not resident here")
        (fun () -> A.Api.destroy rt o))

let test_attach_deep_cycle_rejected () =
  (* is_ancestor must walk the whole chain, not just the direct parent. *)
  Util.run (fun rt ->
      let a = A.Api.create rt ~name:"a" () in
      let b = A.Api.create rt ~name:"b" () in
      let c = A.Api.create rt ~name:"c" () in
      A.Api.attach rt ~parent:a ~child:b;
      A.Api.attach rt ~parent:b ~child:c;
      Alcotest.check_raises "a -> b -> c -> a"
        (Invalid_argument "Mobility.attach: attachment would create a cycle")
        (fun () -> A.Api.attach rt ~parent:c ~child:a))

let test_reattach_after_unattach () =
  Util.run (fun rt ->
      let parent = A.Api.create rt ~name:"p" () in
      let child = A.Api.create rt ~name:"c" () in
      A.Api.attach rt ~parent ~child;
      A.Api.move_to rt parent ~dest:2;
      A.Api.unattach rt ~child;
      (* Independent again: the child can wander off... *)
      A.Api.move_to rt child ~dest:1;
      Alcotest.(check int) "child moved alone" 1 (Util.location child);
      Alcotest.(check int) "parent unaffected" 2 (Util.location parent);
      (* ...and a re-attach restores co-residency and joint movement. *)
      A.Api.attach rt ~parent ~child;
      Alcotest.(check int) "re-attach co-locates" 2 (Util.location child);
      A.Api.move_to rt parent ~dest:3;
      Alcotest.(check int) "moves together again" 3 (Util.location child))

let test_attach_immutable_child_replicates () =
  (* Attaching an immutable child to a remote parent must make the child
     usable at the parent's node via a replica; the master stays put. *)
  Util.run (fun rt ->
      let child = A.Api.create rt ~name:"c" (ref 7) in
      A.Api.set_immutable rt child;
      let parent = A.Api.create rt ~name:"p" () in
      A.Api.move_to rt parent ~dest:2;
      let copies_before = (A.Runtime.counters rt).A.Runtime.object_copies in
      A.Api.attach rt ~parent ~child;
      Alcotest.(check bool) "replica at the parent's node" true
        (A.Aobject.usable_on child 2);
      Alcotest.(check int) "master still at home" 0 (Util.location child);
      Alcotest.(check int) "exactly one installed copy" (copies_before + 1)
        (A.Runtime.counters rt).A.Runtime.object_copies;
      Alcotest.(check int) "replica readable in place" 7
        (A.Api.invoke rt parent (fun () ->
             A.Api.invoke rt child (fun r -> !r))))

let test_settle_dangling_through_stale_chain () =
  (* Stale forwarding pointers at bystanders lead a settling thread toward
     a destroyed object: the chase must end in a clean dangling failure,
     not a loop or a crash. *)
  Util.run (fun rt ->
      let o = A.Api.create rt ~size:208 ~name:"doomed" (ref 0) in
      let addr = o.A.Aobject.addr in
      A.Api.destroy rt o;
      A.Descriptor.set_forwarded (A.Runtime.descriptors rt 2) addr 3;
      A.Descriptor.set_forwarded (A.Runtime.descriptors rt 3) addr 2;
      let anchor = A.Api.create rt ~size:96 ~name:"anchor" () in
      A.Api.move_to rt anchor ~dest:2;
      let t =
        A.Api.start_invoke rt anchor (fun () ->
            match A.Api.invoke rt o (fun r -> !r) with
            | _ -> false
            | exception Failure _ -> true)
      in
      Alcotest.(check bool) "settle raised a clean failure" true
        (A.Api.join rt t))

let suite =
  [
    Alcotest.test_case "move updates descriptors" `Quick
      test_move_updates_descriptors;
    Alcotest.test_case "move to same node is no-op" `Quick
      test_move_to_same_node_is_noop;
    Alcotest.test_case "move cost (Table 1)" `Quick test_move_cost_table1;
    Alcotest.test_case "locate" `Quick test_locate;
    Alcotest.test_case "locate compresses chains" `Quick
      test_locate_compresses_chain;
    Alcotest.test_case "invoke compresses chains" `Quick
      test_invoke_compresses_chain;
    Alcotest.test_case "move compresses chains" `Quick
      test_move_compresses_chain;
    Alcotest.test_case "bound thread moves with object" `Quick
      test_bound_thread_moves_with_object;
    Alcotest.test_case "mover inside object follows it" `Quick
      test_mover_bound_to_object_follows;
    Alcotest.test_case "attach co-locates" `Quick test_attach_co_locates;
    Alcotest.test_case "attachments move together" `Quick
      test_attached_move_together;
    Alcotest.test_case "attached child cannot move alone" `Quick
      test_attached_child_cannot_move_alone;
    Alcotest.test_case "unattach restores independence" `Quick
      test_unattach_restores_independence;
    Alcotest.test_case "attach cycle rejected" `Quick test_attach_cycle_rejected;
    Alcotest.test_case "attach to self rejected" `Quick test_attach_self_rejected;
    Alcotest.test_case "immutable move copies" `Quick test_immutable_move_copies;
    Alcotest.test_case "immutable copy idempotent" `Quick
      test_immutable_copy_idempotent;
    Alcotest.test_case "destroy" `Quick test_destroy;
    Alcotest.test_case "dangling invoke detected" `Quick
      test_dangling_invoke_detected;
    Alcotest.test_case "dangling locate detected" `Quick
      test_dangling_locate_detected;
    Alcotest.test_case "freed block reuse works (§3.2)" `Quick
      test_destroyed_block_reuse_is_fresh;
    Alcotest.test_case "attach deep cycle rejected" `Quick
      test_attach_deep_cycle_rejected;
    Alcotest.test_case "re-attach after unattach" `Quick
      test_reattach_after_unattach;
    Alcotest.test_case "attach immutable child replicates" `Quick
      test_attach_immutable_child_replicates;
    Alcotest.test_case "settle dangling through stale chain" `Quick
      test_settle_dangling_through_stale_chain;
    Alcotest.test_case "destroy of remote object rejected" `Quick
      test_destroy_remote_rejected;
  ]
