(* Instant marks in the span collector: the protocol trace behind
   [amber_sim trace], the flight recorder and the Perfetto instants. *)

(* A collector on [now] whose thread is [tid] (on node 3, cpu 1). *)
let now = ref 0.0 and tid = ref (-1)

let collector ?(marks = true) () =
  now := 0.0;
  tid := -1;
  let known v = if !tid < 0 then -1 else v in
  let t =
    Sim.Span.create
      ~clock:(fun () -> !now)
      ~current_tid:(fun () -> !tid)
      ~current_node:(fun () -> known 3)
      ~current_cpu:(fun () -> known 1)
      ()
  in
  Sim.Span.set_marks t marks;
  t

let mark t cat msg = Sim.Span.mark t ~category:cat (lazy msg)

let fields (m : Sim.Span.mark) =
  [ m.node; m.cpu; m.tid; m.obj; m.span; m.parent ]

(* Marks are off by default, span collection does not turn them on, and
   a mark that is not recorded never builds its detail. *)
let test_disabled_by_default () =
  let t = collector ~marks:false () in
  Sim.Span.set_enabled t true;
  mark t "x" "hello";
  Alcotest.(check int) "nothing recorded" 0 (List.length (Sim.Span.marks t))

let test_lazy_detail_not_forced_when_disabled () =
  let t = collector ~marks:false () in
  let forced = ref false in
  Sim.Span.mark t ~category:"x" (lazy (forced := true; "expensive"));
  Alcotest.(check bool) "not forced" false !forced

(* Emission order, even when [at] stamps a mark out of time order. *)
let test_records_in_order () =
  let t = collector () in
  now := 1.0;
  mark t "a" "one";
  Sim.Span.mark t ~category:"b" ~at:3.0 (lazy "two");
  now := 2.0;
  mark t "c" "three";
  let marks = Sim.Span.marks t in
  Alcotest.(check (list string)) "order" [ "one"; "two"; "three" ]
    (List.map (fun (m : Sim.Span.mark) -> m.detail) marks);
  Alcotest.(check (list (float 0.0))) "times" [ 1.0; 3.0; 2.0 ]
    (List.map (fun (m : Sim.Span.mark) -> m.time) marks)

let test_clear () =
  let t = collector () in
  mark t "x" "a";
  Sim.Span.clear t;
  Alcotest.(check int) "cleared" 0 (List.length (Sim.Span.marks t))

(* A mark carries the callbacks' context, the innermost span open on the
   emitting thread and that span's parent (0 for none), and no span id. *)
let test_structured_fields () =
  let t = collector () in
  Sim.Span.set_enabled t true;
  mark t "plain" "p";
  tid := 7;
  let outer = Sim.Span.start t Sim.Span.Invoke_remote () in
  let inner = Sim.Span.start t Sim.Span.Chase_hop () in
  Sim.Span.mark t ~category:"rich" ~obj:42 (lazy "r");
  Sim.Span.finish t inner;
  mark t "outer" "o";
  tid := 8;
  mark t "other thread" "t";
  Alcotest.(check (list (list int)))
    "context"
    [
      [ -1; -1; -1; -1; 0; 0 ];
      [ 3; 1; 7; 42; inner; outer ];
      [ 3; 1; 7; -1; outer; 0 ];
      [ 3; 1; 8; -1; 0; 0 ];
    ]
    (List.map fields (Sim.Span.marks t));
  Alcotest.(check int) "marks take no span id" 2 (Sim.Span.count t)

(* Under the FIFO MAC a packet queued behind a busy medium is marked at
   its transmit start, not at its submit instant. *)
let test_net_mark_at_transmit_start () =
  let e = Sim.Engine.create () in
  let spans = collector () in
  let n = Hw.Ethernet.create ~engine:e ~spans () in
  let send () =
    let p = Hw.Packet.make ~src:0 ~dst:1 ~size:936 ~kind:"k" ignore in
    ignore (Hw.Ethernet.send n p : float)
  in
  send ();
  let first_done = Hw.Ethernet.busy_until n in
  send ();
  Alcotest.(check (list (pair string (float 1e-12))))
    "net marks at transmit start"
    [ ("net", 0.0); ("net", first_done) ]
    (List.map
       (fun (m : Sim.Span.mark) -> (m.category, m.time))
       (Sim.Span.marks spans))

(* [--category] keeps exactly the marks of that category. *)
let test_by_category () =
  let lines args =
    let status, out =
      Util.cli ("trace" :: "--json" :: "--limit" :: "10000" :: args)
    in
    Alcotest.(check int) "exit 0" 0 status;
    List.filter (fun l -> l <> "") out
  in
  let all = lines [] and net = lines [ "--category"; "net" ] in
  Alcotest.(check bool) "some net marks" true (net <> []);
  Alcotest.(check (list string)) "the net subset"
    (List.filter (fun l -> Util.contains l "\"category\":\"net\"") all)
    net

(* Marks on or off, a 2-node SOR run's spans export byte-identically. *)
let test_marks_leave_spans () =
  let grid =
    Workloads.Sor_core.with_size Workloads.Sor_core.default ~rows:16 ~cols:32
  in
  let run marks =
    Amber.Cluster.run_value (Amber.Config.make ~nodes:2 ~cpus:2 ()) (fun rt ->
        let spans = Amber.Runtime.spans rt in
        Sim.Span.set_enabled spans true;
        Sim.Span.set_marks spans marks;
        ignore (Workloads.Sor_amber.run rt grid ~iters:3 ());
        (Sim.Span.spans spans, List.length (Sim.Span.marks spans)))
  in
  let (off, none), (on, some) = (run false, run true) in
  Alcotest.(check (pair int bool)) "marks recorded" (0, true) (none, some > 0);
  Alcotest.(check (list string)) "same spans"
    (Scope.Export.spans_jsonl off)
    (Scope.Export.spans_jsonl on)

(* --- per-thread span stacks ----------------------------------------------- *)

let span_of t id = Option.get (Sim.Span.find t id)
let parent_of t id = (span_of t id).Sim.Span.parent
let closed t id = (span_of t id).Sim.Span.t1 >= 0.0

(* Stacks are kept per tid, and event context (tid -1) has its own: spans
   nest per thread whatever the tid, beyond the stacks' first size too. *)
let test_stacks_nest_per_tid () =
  let t = collector ~marks:false () in
  Sim.Span.set_enabled t true;
  tid := 100;
  let outer = Sim.Span.start t Sim.Span.Invoke_remote () in
  tid := -1;
  let ev = Sim.Span.start t Sim.Span.Rpc_server () in
  tid := 100;
  let inner = Sim.Span.start t Sim.Span.Chase_hop () in
  tid := 37;
  let other = Sim.Span.start t Sim.Span.Lock_wait () in
  tid := -1;
  let ev_inner = Sim.Span.start t Sim.Span.Net_flight () in
  Alcotest.(check (list int))
    "parents" [ 0; 0; outer; 0; ev ]
    (List.map (parent_of t) [ outer; ev; inner; other; ev_inner ]);
  Alcotest.(check int) "current in event context" ev_inner (Sim.Span.current t);
  Sim.Span.finish t ev_inner;
  Alcotest.(check int) "event context pops" ev (Sim.Span.current t);
  tid := 100;
  Alcotest.(check int) "current on tid 100" inner (Sim.Span.current t);
  Sim.Span.finish t inner;
  Alcotest.(check int) "tid 100 pops" outer (Sim.Span.current t);
  tid := 37;
  Alcotest.(check int) "tid 37 untouched" other (Sim.Span.current t);
  tid := 5;
  Alcotest.(check int) "a tid with no spans" 0 (Sim.Span.current t);
  Sim.Span.set_enabled t false;
  tid := 100;
  Alcotest.(check int) "nothing current while disabled" 0 (Sim.Span.current t)

(* Finishing a span pops whatever was opened above it, and finishing one
   no longer on its stack leaves the stack alone. *)
let test_finish_pops_through () =
  let t = collector ~marks:false () in
  Sim.Span.set_enabled t true;
  tid := 70;
  let a = Sim.Span.start t Sim.Span.Invoke_local () in
  let b = Sim.Span.start t Sim.Span.Chase_hop () in
  let c = Sim.Span.start t Sim.Span.Lock_wait () in
  Sim.Span.finish t b;
  Alcotest.(check int) "b and c popped" a (Sim.Span.current t);
  Alcotest.(check (list bool)) "only b closed" [ false; true; false ]
    (List.map (closed t) [ a; b; c ]);
  Sim.Span.finish t c;
  Alcotest.(check int) "c was off the stack" a (Sim.Span.current t);
  Alcotest.(check bool) "c closed" true (closed t c)

(* [finish_all_for] closes one thread's open spans at the current time and
   empties its stack, leaving every other thread's alone. *)
let test_finish_all_for () =
  let t = collector ~marks:false () in
  Sim.Span.set_enabled t true;
  tid := 90;
  let a = Sim.Span.start t Sim.Span.Invoke_remote () in
  let b = Sim.Span.start t Sim.Span.Lock_wait () in
  tid := 2;
  let other = Sim.Span.start t Sim.Span.Join_wait () in
  now := 4.0;
  Sim.Span.finish_all_for t ~tid:90;
  Sim.Span.finish_all_for t ~tid:500;
  Alcotest.(check (list (float 0.0))) "closed at the kill instant" [ 4.0; 4.0 ]
    (List.map (fun id -> (span_of t id).Sim.Span.t1) [ a; b ]);
  Alcotest.(check int) "tid 2 untouched" other (Sim.Span.current t);
  tid := 90;
  Alcotest.(check int) "tid 90 emptied" 0 (Sim.Span.current t);
  let fresh = Sim.Span.start t Sim.Span.Invoke_local () in
  Alcotest.(check int) "a new span on tid 90 is a root" 0 (parent_of t fresh)

(* [clear] empties every stack: no span after it has a parent. *)
let test_clear_empties_stacks () =
  let t = collector ~marks:false () in
  Sim.Span.set_enabled t true;
  List.iter
    (fun v ->
      tid := v;
      ignore (Sim.Span.start t Sim.Span.Invoke_local () : int))
    [ -1; 3; 64; 200 ];
  Sim.Span.clear t;
  Alcotest.(check int) "no spans" 0 (Sim.Span.count t);
  List.iter
    (fun v ->
      tid := v;
      Alcotest.(check int) (Printf.sprintf "tid %d current" v) 0
        (Sim.Span.current t);
      let id = Sim.Span.start t Sim.Span.Invoke_local () in
      Alcotest.(check int) (Printf.sprintf "tid %d root" v) 0 (parent_of t id))
    [ -1; 3; 64; 200 ]

let suite =
  [
    Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
    Alcotest.test_case "lazy detail not forced when disabled" `Quick
      test_lazy_detail_not_forced_when_disabled;
    Alcotest.test_case "records kept in order" `Quick test_records_in_order;
    Alcotest.test_case "filter by category" `Quick test_by_category;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "structured fields" `Quick test_structured_fields;
    Alcotest.test_case "net mark keeps its transmit start" `Quick
      test_net_mark_at_transmit_start;
    Alcotest.test_case "marks leave spans byte-identical" `Quick
      test_marks_leave_spans;
    Alcotest.test_case "stacks nest per tid" `Quick test_stacks_nest_per_tid;
    Alcotest.test_case "finish pops through" `Quick test_finish_pops_through;
    Alcotest.test_case "finish_all_for" `Quick test_finish_all_for;
    Alcotest.test_case "clear empties every stack" `Quick
      test_clear_empties_stacks;
  ]
