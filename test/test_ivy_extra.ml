(* Additional Ivy coverage: page-table mechanics, DSM barrier, process
   interplay with the DSM, costs. *)

let test_page_table_initial_state () =
  let t = Ivy.Page_table.create ~node:1 ~pages:4 ~initial_owner:(fun p -> p) in
  Alcotest.(check int) "node" 1 (Ivy.Page_table.node t);
  Alcotest.(check int) "pages" 4 (Ivy.Page_table.pages t);
  let own = Ivy.Page_table.entry t 1 in
  Alcotest.(check bool) "owns its page" true own.Ivy.Page_table.is_owner;
  Alcotest.(check bool) "write access" true
    (own.Ivy.Page_table.access = Ivy.Page_table.Write);
  let other = Ivy.Page_table.entry t 2 in
  Alcotest.(check bool) "no access elsewhere" true
    (other.Ivy.Page_table.access = Ivy.Page_table.No_access);
  Alcotest.(check int) "hint points at owner" 2
    other.Ivy.Page_table.prob_owner

let test_page_table_range_check () =
  let t = Ivy.Page_table.create ~node:0 ~pages:2 ~initial_owner:(fun _ -> 0) in
  Alcotest.check_raises "range"
    (Invalid_argument "Page_table.entry: page out of range") (fun () ->
      ignore (Ivy.Page_table.entry t 5))

let test_entry_lock_serializes () =
  (* Two fibers contend for the same entry lock; the second waits. *)
  let e = Sim.Engine.create () in
  let m = Hw.Machine.create ~engine:e ~id:0 ~cpus:2 () in
  let t = Ivy.Page_table.create ~node:0 ~pages:1 ~initial_owner:(fun _ -> 0) in
  let entry = Ivy.Page_table.entry t 0 in
  let log = ref [] in
  let worker name =
    ignore
      (Hw.Machine.spawn m ~name (fun () ->
           Ivy.Page_table.lock_entry entry;
           log := (name ^ "-in") :: !log;
           Sim.Fiber.consume 0.01;
           log := (name ^ "-out") :: !log;
           Ivy.Page_table.unlock_entry entry))
  in
  worker "a";
  worker "b";
  ignore (Sim.Engine.run e);
  Alcotest.(check (list string)) "no interleaving"
    [ "a-in"; "a-out"; "b-in"; "b-out" ]
    (List.rev !log)

let test_dsm_barrier () =
  let generations =
    Util.run ~nodes:2 (fun rt ->
        let dsm = Ivy.Dsm.create rt ~pages:1 () in
        let barrier = ref None in
        Ivy.Process.join
          (Ivy.Process.spawn rt ~node:0 ~name:"init" (fun () ->
               barrier := Some (Ivy.Sync_dsm.Barrier.create dsm ~addr:0 ~parties:2)));
        let barrier = Option.get !barrier in
        let log = ref [] in
        let procs =
          List.init 2 (fun node ->
              Ivy.Process.spawn rt ~node ~name:(string_of_int node) (fun () ->
                  for round = 1 to 3 do
                    Sim.Fiber.consume (float_of_int (node + 1) *. 1e-3);
                    Ivy.Sync_dsm.Barrier.pass barrier;
                    log := (node, round) :: !log
                  done))
        in
        List.iter (fun p -> Ivy.Process.join p) procs;
        (* Rounds must be properly nested: nobody reaches round r+1 before
           everyone finished round r. *)
        let events = List.rev !log in
        let ok = ref true in
        let seen = Array.make 2 0 in
        List.iter
          (fun (node, round) ->
            seen.(node) <- round;
            if abs (seen.(0) - seen.(1)) > 1 then ok := false)
          events;
        if not !ok then Alcotest.fail "barrier rounds interleaved";
        3)
  in
  Alcotest.(check int) "three rounds" 3 generations

let test_migrated_process_accesses_locally () =
  (* A process that migrates to the data's node stops faulting — the
     function-shipping escape hatch of §4.1. *)
  Util.run ~nodes:2 (fun rt ->
      let dsm = Ivy.Dsm.create rt ~pages:1 ~initial_owner:(fun _ -> 1) () in
      let p =
        Ivy.Process.spawn rt ~node:0 ~name:"mover" (fun () ->
            Ivy.Process.migrate rt ~dest:1 ();
            for i = 0 to 9 do
              Ivy.Dsm.write_u8 dsm i (i * 2)
            done)
      in
      Ivy.Process.join p;
      let st = Ivy.Dsm.stats dsm in
      Alcotest.(check int) "no faults after migrating to the data" 0
        (st.Ivy.Dsm.read_faults + st.Ivy.Dsm.write_faults))

let test_costs_default_sane () =
  let c = Ivy.Costs.default in
  Alcotest.(check bool) "fault trap positive" true (c.Ivy.Costs.fault_trap_cpu > 0.0);
  Alcotest.(check bool) "request smaller than a page" true
    (c.Ivy.Costs.request_bytes < 1024)

let test_dsm_rejects_bad_page () =
  Util.run ~nodes:2 (fun rt ->
      let dsm = Ivy.Dsm.create rt ~pages:1 () in
      Ivy.Process.join
        (Ivy.Process.spawn rt ~node:0 ~name:"oops" (fun () ->
             match Ivy.Dsm.read_u8 dsm 99999 with
             | _ -> Alcotest.fail "expected range error"
             | exception Invalid_argument _ -> ())))

let suite =
  [
    Alcotest.test_case "page table initial state" `Quick
      test_page_table_initial_state;
    Alcotest.test_case "page table range check" `Quick
      test_page_table_range_check;
    Alcotest.test_case "entry lock serializes" `Quick test_entry_lock_serializes;
    Alcotest.test_case "DSM sense-reversing barrier" `Quick test_dsm_barrier;
    Alcotest.test_case "migrated process accesses locally" `Quick
      test_migrated_process_accesses_locally;
    Alcotest.test_case "default costs sane" `Quick test_costs_default_sane;
    Alcotest.test_case "out-of-range access rejected" `Quick
      test_dsm_rejects_bad_page;
  ]
