(* The protocol audit facility, and its use as an oracle after stress. *)

module A = Amber

let test_clean_world_passes () =
  Util.run (fun rt ->
      let objs =
        List.init 5 (fun i ->
            let o = A.Api.create rt ~name:(string_of_int i) () in
            A.Api.move_to rt o ~dest:(i mod 4);
            A.Aobject.Any o)
      in
      Alcotest.(check int) "no violations" 0
        (List.length (A.Audit.check_objects rt objs));
      A.Audit.check_exn rt objs)

let test_detects_missing_residency () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"broken" () in
      (* Sabotage the descriptor space directly. *)
      A.Descriptor.clear (A.Runtime.descriptors rt 0) o.A.Aobject.addr;
      let vs = A.Audit.check_objects rt [ A.Aobject.Any o ] in
      Alcotest.(check bool) "violations reported" true (List.length vs > 0);
      match A.Audit.check_exn rt [ A.Aobject.Any o ] with
      | () -> Alcotest.fail "check_exn should raise"
      | exception Failure _ -> ())

let test_detects_spurious_residency () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"dup" () in
      A.Descriptor.set_resident (A.Runtime.descriptors rt 3) o.A.Aobject.addr;
      let vs = A.Audit.check_objects rt [ A.Aobject.Any o ] in
      Alcotest.(check bool) "spurious copy found" true
        (List.exists (fun v -> v.A.Audit.node = 3) vs))

let test_detects_broken_chain () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"loop" () in
      A.Api.move_to rt o ~dest:2;
      (* Create a forwarding cycle between two bystander nodes. *)
      A.Descriptor.set_forwarded (A.Runtime.descriptors rt 1) o.A.Aobject.addr 3;
      A.Descriptor.set_forwarded (A.Runtime.descriptors rt 3) o.A.Aobject.addr 1;
      let vs = A.Audit.check_objects rt [ A.Aobject.Any o ] in
      Alcotest.(check bool) "cycle detected" true
        (List.exists
           (fun v -> v.A.Audit.problem = "forwarding chain does not terminate")
           vs))

let test_detects_mutual_forwarding_through_home () =
  (* The PR-1 livelock shape: two stale descriptors forwarding to each
     other, with the object's home node inside the cycle — a chase
     starting there ping-pongs forever.  The audit must report it as a
     non-terminating chain (the visited-set check catches the repeat on
     the second hop rather than after exhausting a hop budget). *)
  Util.run (fun rt ->
      (* Created on node 0, so node 0 is the home node. *)
      let o = A.Api.create rt ~name:"pingpong" () in
      A.Api.move_to rt o ~dest:2;
      A.Descriptor.set_forwarded (A.Runtime.descriptors rt 0) o.A.Aobject.addr 1;
      A.Descriptor.set_forwarded (A.Runtime.descriptors rt 1) o.A.Aobject.addr 0;
      let vs = A.Audit.check_objects rt [ A.Aobject.Any o ] in
      Alcotest.(check bool) "cycle through home detected" true
        (List.exists
           (fun v -> v.A.Audit.problem = "forwarding chain does not terminate")
           vs))

let test_immutable_replicas_audited () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"imm" () in
      A.Api.set_immutable rt o;
      A.Api.move_to rt o ~dest:1;
      A.Api.move_to rt o ~dest:2;
      A.Audit.check_exn rt [ A.Aobject.Any o ])

let test_chain_length_diagnostic () =
  Util.run ~nodes:6 (fun rt ->
      let o = A.Api.create rt ~name:"o" () in
      let anchor = A.Api.create rt ~name:"anchor" () in
      A.Api.move_to rt anchor ~dest:1;
      let mover =
        A.Api.start_invoke rt anchor (fun () ->
            List.iter (fun d -> A.Api.move_to rt o ~dest:d) [ 2; 3; 4; 5 ])
      in
      A.Api.join rt mover;
      let before = A.Audit.max_chain_length rt o in
      ignore (A.Api.locate rt o : int);
      let after = A.Audit.max_chain_length rt o in
      Alcotest.(check bool) "chains exist after moves" true (before >= 2);
      Alcotest.(check bool) "locate compressed them" true (after < before))

let test_chain_length_hop_boundary () =
  (* [chain_length] measures chains of up to exactly 64 hops and drops
     longer ones as non-terminating.  Lay out a linear chain
     1→2→…→66 toward the master at 66: node 2's walk takes exactly 64
     hops and must be measured; node 1's takes 65 and must be reported
     as a chain that does not terminate — and the 65-hop walk must not
     inflate [max_chain_length] past the boundary. *)
  Util.run ~nodes:67 ~cpus:1 (fun rt ->
      let o = A.Api.create rt ~name:"long" () in
      A.Api.move_to rt o ~dest:66;
      for i = 1 to 65 do
        A.Descriptor.set_forwarded
          (A.Runtime.descriptors rt i)
          o.A.Aobject.addr (i + 1)
      done;
      Alcotest.(check int) "64-hop chain measured, 65-hop chain dropped" 64
        (A.Audit.max_chain_length rt o);
      let vs = A.Audit.check_objects rt [ A.Aobject.Any o ] in
      let non_terminating n =
        List.exists
          (fun v ->
            v.A.Audit.node = n
            && v.A.Audit.problem = "forwarding chain does not terminate")
          vs
      in
      Alcotest.(check bool) "65-hop walk reported" true (non_terminating 1);
      Alcotest.(check bool) "64-hop walk is legal" false (non_terminating 2))

let test_chain_length_visited_before_budget () =
  (* A chain that re-enters a visited node is dropped the moment the
     repeat is seen — three hops into a 1→2→3→1 loop — not after
     exhausting the 64-hop budget, so a short cycle among bystanders
     cannot masquerade as a long-but-legal chain. *)
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"loopy" () in
      A.Api.move_to rt o ~dest:2;
      A.Descriptor.set_forwarded (A.Runtime.descriptors rt 1) o.A.Aobject.addr 3;
      A.Descriptor.set_forwarded (A.Runtime.descriptors rt 3) o.A.Aobject.addr 1;
      (* The cycle walks are dropped from the max, leaving the home
         node's direct hop as the longest measured chain. *)
      Alcotest.(check int) "cycle walks dropped from max" 1
        (A.Audit.max_chain_length rt o))

(* A running chase (not an offline audit) that walks into a forwarding
   cycle: the chaser passes the hop budget and fails typed, naming the
   object, and nothing repairs the cycle.  Under AmberSan the final
   audit reports the cycle as incoherence. *)
let run_cycle_mid_chase ~sanitize =
  let o =
    Session.run ~ppf:Util.quiet
      { Session.off with Session.sanitize }
      (A.Config.make ~nodes:4 ~cpus:2 ())
      (fun rt ->
        let o = A.Api.create rt ~name:"prey" (ref 7) in
        A.Api.move_to rt o ~dest:2;
        (* Two bystanders forward to each other; a chase starting inside
           the loop ping-pongs until its hop budget trips. *)
        A.Descriptor.set_forwarded (A.Runtime.descriptors rt 1) o.A.Aobject.addr
          3;
        A.Descriptor.set_forwarded (A.Runtime.descriptors rt 3) o.A.Aobject.addr
          1;
        let t =
          A.Athread.start_on rt ~node:1 ~name:"chaser" (fun () ->
              A.Api.invoke rt o (fun r -> !r))
        in
        match A.Athread.join rt t with
        | _ -> Alcotest.fail "the chaser resolved the cycle"
        | exception A.Aobject.Chain_exhausted { addr; trail } ->
          Alcotest.(check int) "names the object" o.A.Aobject.addr addr;
          Alcotest.(check bool) "trail stays on the cycle" true
            (trail <> [] && List.for_all (fun n -> n = 1 || n = 3) trail))
  in
  Alcotest.(check bool) "the body caught the failure" true
    (Result.is_ok o.Session.result);
  Option.iter
    (fun rep ->
      let reported n =
        List.exists
          (fun v ->
            v.A.Audit.node = n
            && v.A.Audit.problem = "forwarding chain does not terminate")
          rep.Analysis.Ambersan.violations
      in
      Alcotest.(check bool) "AmberSan reports the cycle" true
        (reported 1 && reported 3))
    o.Session.sanitizer

let test_cycle_mid_chase_plain () = run_cycle_mid_chase ~sanitize:false
let test_cycle_mid_chase_sanitized () = run_cycle_mid_chase ~sanitize:true

let test_replica_lifecycle_audited () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"life" (ref 0) in
      let copy r = ref !r in
      A.Api.replicate rt ~copy o ~dest:1;
      A.Api.replicate rt ~copy o ~dest:2;
      Alcotest.(check int) "two replicas granted" 2
        (List.length o.A.Aobject.replicas);
      A.Audit.check_exn rt [ A.Aobject.Any o ];
      (* A write recalls every replica; the audit stays clean after. *)
      A.Api.invoke rt ~mode:A.San_hooks.Write o (fun r -> incr r);
      Alcotest.(check (list int)) "replicas recalled" [] o.A.Aobject.replicas;
      A.Audit.check_exn rt [ A.Aobject.Any o ])

let test_detects_forwarded_naming_replica () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"repl" (ref 0) in
      A.Api.replicate rt ~copy:(fun r -> ref !r) o ~dest:2;
      A.Audit.check_exn rt [ A.Aobject.Any o ];
      (* Sabotage: point a bystander's chain at the read-only copy — a
         writer following it would try to execute at the replica. *)
      A.Descriptor.set_forwarded (A.Runtime.descriptors rt 1) o.A.Aobject.addr 2;
      let vs = A.Audit.check_objects rt [ A.Aobject.Any o ] in
      Alcotest.(check bool) "forwarded-to-replica reported" true
        (List.exists
           (fun v ->
             v.A.Audit.node = 1
             && v.A.Audit.problem = "forwarded descriptor names replica node 2")
           vs))

let test_detects_stale_replica_snapshot () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"stale" (ref 0) in
      A.Api.replicate rt ~copy:(fun r -> ref !r) o ~dest:1;
      (* Sabotage: bump the epoch behind the protocol's back, as if a
         write forgot its invalidation round. *)
      o.A.Aobject.epoch <- o.A.Aobject.epoch + 1;
      let vs = A.Audit.check_objects rt [ A.Aobject.Any o ] in
      Alcotest.(check bool) "stale snapshot reported" true
        (List.exists
           (fun v ->
             v.A.Audit.node = 1
             && v.A.Audit.problem
                = "replica snapshot is stale (epoch 0, object at 1)")
           vs))

let test_detects_replica_surviving_deletion () =
  Util.run (fun rt ->
      let o = A.Api.create rt ~name:"del" (ref 0) in
      A.Api.replicate rt ~copy:(fun r -> ref !r) o ~dest:3;
      let addr = o.A.Aobject.addr in
      (* Deleting out from under live replicas is refused outright. *)
      (match A.Api.destroy rt o with
      | () -> Alcotest.fail "destroy should refuse with live replicas"
      | exception Invalid_argument _ -> ());
      (* Simulate a buggy deletion that freed the master anyway and left
         the replica descriptor behind, still serving freed state. *)
      A.Descriptor.clear (A.Runtime.descriptors rt 0) addr;
      let vs = A.Audit.check_deleted rt ~addr ~name:"del" in
      Alcotest.(check bool) "surviving replica reported" true
        (List.exists
           (fun v ->
             v.A.Audit.node = 3
             && v.A.Audit.problem = "replica survives master deletion")
           vs))

(* Use the audit as the oracle for a randomized mobility storm. *)
let prop_audit_after_storm =
  QCheck.Test.make ~name:"descriptor space coherent after mobility storms"
    ~count:12
    QCheck.(int_bound 1000)
    (fun salt ->
      Util.run ~nodes:5 ~cpus:2 (fun rt ->
          let rng = Sim.Rng.make (Int64.of_int (salt + 99)) in
          let objs =
            Array.init 6 (fun i ->
                A.Api.create rt ~name:(Printf.sprintf "s%d" i) (ref 0))
          in
          let ts =
            List.init 4 (fun w ->
                let ops =
                  List.init 12 (fun _ ->
                      ( Sim.Rng.int rng 6,
                        Sim.Rng.int rng 4,
                        Sim.Rng.int rng 5 ))
                in
                A.Api.start rt ~name:(Printf.sprintf "w%d" w) (fun () ->
                    List.iter
                      (fun (o, kind, dest) ->
                        match kind with
                        | 0 | 1 -> A.Api.move_to rt objs.(o) ~dest
                        | 2 -> A.Api.invoke rt objs.(o) (fun c -> incr c)
                        | _ -> ignore (A.Api.locate rt objs.(o) : int))
                      ops))
          in
          List.iter (fun t -> A.Api.join rt t) ts;
          A.Audit.check_objects rt
            (Array.to_list (Array.map (fun o -> A.Aobject.Any o) objs))
          = []))

let suite =
  [
    Alcotest.test_case "clean world passes" `Quick test_clean_world_passes;
    Alcotest.test_case "detects missing residency" `Quick
      test_detects_missing_residency;
    Alcotest.test_case "detects spurious residency" `Quick
      test_detects_spurious_residency;
    Alcotest.test_case "detects broken chains" `Quick test_detects_broken_chain;
    Alcotest.test_case "detects mutual forwarding through home" `Quick
      test_detects_mutual_forwarding_through_home;
    Alcotest.test_case "immutable replicas audited" `Quick
      test_immutable_replicas_audited;
    Alcotest.test_case "chain-length diagnostic" `Quick
      test_chain_length_diagnostic;
    Alcotest.test_case "chain-length 64-hop boundary" `Quick
      test_chain_length_hop_boundary;
    Alcotest.test_case "chain-length visited set beats budget" `Quick
      test_chain_length_visited_before_budget;
    Alcotest.test_case "forwarding cycle discovered mid-chase" `Quick
      test_cycle_mid_chase_plain;
    Alcotest.test_case "forwarding cycle mid-chase, sanitized" `Quick
      test_cycle_mid_chase_sanitized;
    Alcotest.test_case "replica lifecycle audited" `Quick
      test_replica_lifecycle_audited;
    Alcotest.test_case "detects forwarded naming a replica" `Quick
      test_detects_forwarded_naming_replica;
    Alcotest.test_case "detects stale replica snapshot" `Quick
      test_detects_stale_replica_snapshot;
    Alcotest.test_case "detects replica surviving deletion" `Quick
      test_detects_replica_surviving_deletion;
    QCheck_alcotest.to_alcotest prop_audit_after_storm;
  ]
