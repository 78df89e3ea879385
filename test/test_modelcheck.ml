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
       violations);
  (* Each sanitizer finding is a violation of its own, on one line. *)
  List.iter
    (fun v ->
      Alcotest.(check bool) ("one line: " ^ v) false (String.contains v '\n'))
    violations;
  Alcotest.(check bool) "a sanitizer coherence finding" true
    (List.exists
       (fun v -> String.starts_with ~prefix:"sanitizer: coherence:" v)
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

(* Both counterexamples as written, pinned by length and digest.  Between
   them they carry every ident, key and label form a schedule file holds:
   deliveries, retransmit timers, chunks, dispatches, fiber runs, fault
   tags and unlabelled [ev<id>] events.  A change to how a candidate is
   named, keyed or labelled moves one. *)
let test_counterexample_text () =
  let digest (sched, _) =
    (List.length sched, Digest.to_hex (Digest.string (S.to_string sched)))
  in
  Alcotest.(check (pair int string))
    "dedup-count-window on rpc"
    (57, "3db0c2d9c198815a73caeba64a713a1e")
    (digest (counterexample ()));
  Alcotest.(check (pair int string))
    "skip-home-repair on crash-move"
    (90, "f3508ea56a6869075b0ba32b9ea989be")
    (digest (crash_counterexample ()))

(* --- conflict keys and the race scan ----------------------------------- *)

module C = Sim.Choice

let top = Vaspace.Layout.address_space_top

(* The id-carrying constructors, each with the prefix of the string a
   schedule file has always shown for it. *)
let key_forms =
  [|
    ("node:", C.node);
    ("net:n", C.net);
    ("obj:", C.obj);
    ("tcb:", C.tcb);
    ("lock:", C.lock);
    ("cond:", C.cond);
    ("fut:", C.fut);
  |]

let test_key_names () =
  List.iter
    (fun (want, k) -> Alcotest.(check string) want want (C.key_name k))
    [
      ("node:3", C.node 3);
      ("net:n2", C.net 2);
      ("obj:16777216", C.obj Vaspace.Layout.heap_base);
      ("tcb:7", C.tcb 7);
      ("lock:16777232", C.lock (Vaspace.Layout.heap_base + 16));
      ("cond:1", C.cond 1);
      ("fut:0", C.fut 0);
      ("obj:4294967296", C.obj top);
      ("rpc:dedup", C.rpc_dedup);
      ("rpc:calls", C.rpc_calls);
      ("", C.unknown);
    ]

(* Two (constructor, id) pairs with ids up to the top of the address
   space, the second often sharing the first's constructor or id: their
   keys are equal exactly when the pairs are, each renders its prefix and
   id, and none meets a constant key. *)
let prop_keys_distinct =
  let open QCheck.Gen in
  let id =
    frequency
      [ (3, int_bound top); (1, oneofl [ 0; 1; 15; 16; 17; top - 1; top ]) ]
  in
  let form = int_bound (Array.length key_forms - 1) in
  let pair_of (c, i) =
    let nearby =
      map (fun d -> min top (max 0 (i + d))) (int_range (-17) 17)
    in
    map
      (fun q -> ((c, i), q))
      (pair
         (frequency [ (1, return c); (1, form) ])
         (frequency [ (2, return i); (1, nearby); (1, id) ]))
  in
  QCheck.Test.make ~name:"keys never collide up to the address-space top"
    ~count:2000
    (QCheck.make
       ~print:QCheck.Print.(pair (pair int int) (pair int int))
       (pair form id >>= pair_of))
    (fun ((c1, i1), (c2, i2)) ->
      let key (c, i) = snd key_forms.(c) i in
      let k1 = key (c1, i1) and k2 = key (c2, i2) in
      let named (c, i) k = C.key_name k = fst key_forms.(c) ^ string_of_int i in
      named (c1, i1) k1 && named (c2, i2) k2
      && (k1 = k2) = (c1 = c2 && i1 = i2)
      && List.for_all
           (fun k -> k <> k1 && k <> k2)
           [ C.unknown; C.rpc_dedup; C.rpc_calls ])

(* A packet's fate compares field by field, renders as the tag schedule
   files have always carried, and hashes alike when equal. *)
let test_fault_idents () =
  let fate ?(verb = "dup") ?(kind = "probe0") ?(src = 0) ?(dst = 1) ?(seq = 3)
      () =
    C.Fault_tag { verb; kind; src; dst; seq }
  in
  Alcotest.(check string) "tag" "dup:probe0:0>1:3" (C.ident_name (fate ()));
  let same = fate ~kind:(String.concat "" [ "probe"; "0" ]) () in
  Alcotest.(check bool) "equal fields, equal idents" true
    (C.ident_equal (fate ()) same);
  Alcotest.(check bool) "equal idents hash alike" true
    (C.ident_hash (fate ()) = C.ident_hash same);
  List.iter
    (fun (what, other) ->
      Alcotest.(check bool) what false (C.ident_equal (fate ()) other))
    [
      ("verb", fate ~verb:"drop" ());
      ("kind", fate ~kind:"probe1" ());
      ("src", fate ~src:2 ());
      ("dst", fate ~dst:0 ());
      ("seq", fate ~seq:4 ());
      ("an event", C.Event_id 3);
      ("a thread", C.Tid 3);
    ];
  Alcotest.(check bool) "event 5 is not thread 5" false
    (C.ident_equal (C.Event_id 5) (C.Tid 5))

(* The explorer's race scan before the forward pass, kept as the
   reference: from each Event or Fiber decision, walk back to the latest
   earlier non-fault decision whose key set conflicts with its own. *)
let conflict ka kb =
  List.mem C.unknown ka || List.mem C.unknown kb
  || List.exists (fun k -> List.mem k kb) ka

let backward_partners trail =
  Array.mapi
    (fun j (dom, ks) ->
      match dom with
      | C.Fault -> -1
      | C.Event | C.Fiber ->
        let rec back i =
          if i < 0 then -1
          else if fst trail.(i) <> C.Fault && conflict (snd trail.(i)) ks then
            i
          else back (i - 1)
        in
        back (j - 1))
    trail

let arb_trail =
  let open QCheck.Gen in
  let key =
    frequency
      [
        (1, return C.unknown);
        ( 8,
          oneofl
            [
              C.node 0;
              C.node 1;
              C.net 0;
              C.net 1;
              C.obj 16;
              C.obj 32;
              C.tcb 3;
              C.lock 48;
              C.rpc_dedup;
            ] );
      ]
  in
  let decision =
    pair (oneofl [ C.Event; C.Fiber; C.Fault ]) (list_size (int_bound 3) key)
  in
  let print (dom, ks) =
    C.domain_name dom ^ "[" ^ String.concat "," (List.map C.key_name ks) ^ "]"
  in
  QCheck.make
    ~print:(fun t -> String.concat " " (Array.to_list (Array.map print t)))
    (array_size (int_bound 40) decision)

let prop_race_partners =
  QCheck.Test.make ~name:"forward race scan matches the backward walk"
    ~count:1000 arb_trail (fun trail ->
      M.race_partners trail = backward_partners trail)

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
    Alcotest.test_case "schedule: counterexample text pinned" `Quick
      test_counterexample_text;
    Alcotest.test_case "keys: old names" `Quick test_key_names;
    QCheck_alcotest.to_alcotest prop_keys_distinct;
    Alcotest.test_case "idents: packet fates compare by field" `Quick
      test_fault_idents;
    QCheck_alcotest.to_alcotest prop_race_partners;
  ]
