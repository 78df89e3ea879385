(* The model checker: schedule serialization, exhaustive exploration,
   random-walk exploration, counterexample replay, and the hidden
   mutation used by CI to prove the checker still catches the
   count-window dedup bug. *)

module M = Analysis.Modelcheck
module S = Analysis.Schedule

let contains ~affix s = Util.contains s affix

let find_fixture name =
  match M.find_fixture name with
  | Some f -> f
  | None -> Alcotest.failf "fixture %s missing" name

let test_fixture_registry () =
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (M.find_fixture n <> None))
    [ "replica"; "future"; "rpc"; "steal"; "crash-promo"; "crash-move" ];
  Alcotest.(check bool) "unknown rejected" true (M.find_fixture "nope" = None)

let test_explore_steal_clean () =
  let o = M.explore ~max_schedules:150 (find_fixture "steal") in
  Alcotest.(check bool) "no counterexample" true (o.M.counterexample = None);
  Alcotest.(check bool) "explored many schedules" true
    (o.M.stats.M.schedules >= 100);
  Alcotest.(check bool) "decision points counted" true
    (o.M.stats.M.decisions > o.M.stats.M.schedules)

(* The exploration order, pinned on every fixture: schedules, decisions,
   max depth and pruned branches after 200 schedules, and the branches
   still enqueued there.  A change that reorders, drops or repeats a
   branch moves one of them. *)
let test_explore_deterministic () =
  List.iter
    (fun (name, want, frontier) ->
      let st = (M.explore ~max_schedules:200 (find_fixture name)).M.stats in
      Alcotest.(check (list int))
        (name ^ ": schedules, decisions, depth, pruned")
        want
        [ st.M.schedules; st.M.decisions; st.M.max_depth; st.M.pruned ];
      Alcotest.(check (option int)) (name ^ ": frontier") (Some frontier)
        st.M.frontier)
    [
      ("replica", [ 200; 19472; 102; 0 ], 115);
      ("future", [ 200; 7354; 39; 0 ], 39);
      ("rpc", [ 200; 7563; 45; 0 ], 100);
      ("steal", [ 200; 5421; 30; 0 ], 17);
      ("crash-promo", [ 200; 5143; 30; 0 ], 20);
      ("crash-move", [ 200; 19614; 99; 0 ], 185);
    ]

(* A DFS run says how much of its frontier it left; a random walk has
   none to report. *)
let test_frontier_line () =
  let has_frontier o =
    List.exists
      (String.starts_with ~prefix:"unexplored branches")
      (M.stats_lines o.M.stats)
  in
  let dfs = M.explore ~max_schedules:5 (find_fixture "steal") in
  Alcotest.(check bool) "DFS prints its frontier" true (has_frontier dfs);
  let walk = M.fuzz ~seed:1 ~max_schedules:5 (find_fixture "steal") in
  Alcotest.(check bool) "random walk prints none" false (has_frontier walk)

let test_fuzz_clean_and_deterministic () =
  let run () =
    let o = M.fuzz ~seed:11 ~max_schedules:60 (find_fixture "rpc") in
    Alcotest.(check bool) "safe rpc clean under random walks" true
      (o.M.counterexample = None);
    (o.M.stats.M.decisions, o.M.stats.M.max_depth)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same walks" true (a = b)

let mutated_rpc () =
  M.apply_mutation M.Dedup_count_window (find_fixture "rpc")

let counterexample () =
  let o = M.fuzz ~seed:1 ~max_schedules:2000 (mutated_rpc ()) in
  match o.M.counterexample with
  | Some ce -> ce
  | None ->
    Alcotest.fail "random walks did not find the count-window dedup bug"

let test_mutation_found () =
  let _sched, violations = counterexample () in
  Alcotest.(check bool) "an exactly-once violation" true
    (List.exists
       (fun v -> contains ~affix:"exactly-once" v || contains ~affix:"delivered" v)
       violations)

let test_counterexample_replays () =
  let sched, violations = counterexample () in
  (* Replaying the recorded schedule against the mutated fixture must
     reproduce the violation bit-for-bit... *)
  Alcotest.(check (list string)) "replay reproduces the violations"
    violations
    (M.replay (mutated_rpc ()) sched);
  (* ...while the same schedule against the unmutated fixture is clean:
     the horizon-gated retirement is exactly what suppresses the
     duplicate. *)
  Alcotest.(check (list string)) "safe protocol survives the same schedule"
    [] (M.replay (find_fixture "rpc") sched)

let test_schedule_roundtrip () =
  let sched, _ = counterexample () in
  let text = S.to_string ~comments:[ "from test" ] sched in
  match S.of_string text with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok back ->
    Alcotest.(check int) "same length" (List.length sched) (List.length back);
    List.iter2
      (fun (a : S.decision) (b : S.decision) ->
        Alcotest.(check bool) "same decision" true
          (a.S.dom = b.S.dom && a.S.index = b.S.index
          && a.S.ncands = b.S.ncands && a.S.ident = b.S.ident))
      sched back

(* Crash-recovery fixtures: node death races object migration, replica
   installs and home-node repair.  Each must explore clean — every reader
   either sees the written value or a typed failure, and a surviving
   replica always yields a route — across a healthy schedule budget under
   both systematic DFS and seeded random walks. *)

let test_crash_fixtures_explore_clean () =
  List.iter
    (fun name ->
      let o = M.explore ~max_schedules:500 (find_fixture name) in
      Alcotest.(check bool) (name ^ " clean under DFS") true
        (o.M.counterexample = None);
      Alcotest.(check bool) (name ^ " explored full budget") true
        (o.M.stats.M.schedules >= 500))
    [ "crash-promo"; "crash-move" ]

let test_crash_fixtures_fuzz_clean () =
  List.iter
    (fun name ->
      let o = M.fuzz ~seed:1 ~max_schedules:500 (find_fixture name) in
      Alcotest.(check bool) (name ^ " clean under random walks") true
        (o.M.counterexample = None);
      Alcotest.(check bool) (name ^ " walked full budget") true
        (o.M.stats.M.schedules >= 500))
    [ "crash-promo"; "crash-move" ]

let mutated_crash_move () =
  M.apply_mutation M.Skip_home_repair (find_fixture "crash-move")

let crash_counterexample () =
  (* DFS plods through the front of the schedule tree; the interleaving
     that strands the reader needs the crash wedged between the move and
     the home-table repair, which random walks reach within a few
     schedules. *)
  let o = M.fuzz ~seed:1 ~max_schedules:2000 (mutated_crash_move ()) in
  match o.M.counterexample with
  | Some ce -> ce
  | None ->
    Alcotest.fail "random walks did not find the skipped-home-repair bug"

let test_crash_mutation_found () =
  let _sched, violations = crash_counterexample () in
  Alcotest.(check bool) "a stranded-reader violation" true
    (List.exists
       (fun v ->
         contains ~affix:"no surviving route" v
         || contains ~affix:"lost" v || contains ~affix:"read" v)
       violations)

let test_crash_counterexample_replays () =
  let sched, violations = crash_counterexample () in
  (* The recorded schedule must reproduce the violation bit-for-bit
     against the mutated fixture.  (Unlike the dedup regression above we
     do not replay it against the clean fixture: repairing the home
     table changes the decision structure, so the schedule diverges
     rather than passing vacuously — the clean-fixture guarantee is
     carried by the explore/fuzz tests instead.) *)
  Alcotest.(check (list string)) "replay reproduces the violations"
    violations
    (M.replay (mutated_crash_move ()) sched)

let test_schedule_rejects_garbage () =
  (match S.of_string "not a schedule" with
  | Ok _ -> Alcotest.fail "missing header accepted"
  | Error _ -> ());
  match S.of_string "# ambercheck schedule v1\nevent\tnonsense" with
  | Ok _ -> Alcotest.fail "bad line accepted"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "fixture registry" `Quick test_fixture_registry;
    Alcotest.test_case "explore: steal fixture clean" `Quick
      test_explore_steal_clean;
    Alcotest.test_case "explore: deterministic" `Quick
      test_explore_deterministic;
    Alcotest.test_case "explore: frontier line" `Quick test_frontier_line;
    Alcotest.test_case "fuzz: safe rpc clean, seeded walks repeat" `Quick
      test_fuzz_clean_and_deterministic;
    Alcotest.test_case "mutation: dedup bug found" `Quick test_mutation_found;
    Alcotest.test_case "mutation: counterexample replays" `Quick
      test_counterexample_replays;
    Alcotest.test_case "schedule: text round-trip" `Quick
      test_schedule_roundtrip;
    Alcotest.test_case "schedule: rejects garbage" `Quick
      test_schedule_rejects_garbage;
    Alcotest.test_case "crash fixtures: explore clean" `Quick
      test_crash_fixtures_explore_clean;
    Alcotest.test_case "crash fixtures: fuzz clean" `Quick
      test_crash_fixtures_fuzz_clean;
    Alcotest.test_case "crash mutation: stranded reader found" `Quick
      test_crash_mutation_found;
    Alcotest.test_case "crash mutation: counterexample replays" `Quick
      test_crash_counterexample_replays;
  ]
