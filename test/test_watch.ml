(* Amber-Watch: series registry semantics (a disabled registry is
   inert), SLO burn-rate verdicts
   under overload vs. moderate load, and the failure flight recorder.

   The registry tests are pure (hand-advanced clock, no cluster); the
   integration tests run real serving sessions with the sampling tick
   armed. *)

module A = Amber

(* --- series registry ----------------------------------------------------- *)

let test_series_disabled_inert () =
  let now = ref 0.0 in
  let m = Sim.Series.create ~clock:(fun () -> !now) () in
  let probed = ref 0 in
  Sim.Series.probe m ~name:"g" (fun () ->
      incr probed;
      1.0);
  let w = Sim.Series.window m ~name:"w" () in
  Sim.Series.observe w 5.0;
  (* Disabled: observe is dropped, sample is a no-op, probes never run. *)
  Sim.Series.sample m;
  Alcotest.(check int) "probe not called" 0 !probed;
  Alcotest.(check int) "no samples" 0 (Sim.Series.samples_taken m);
  List.iter
    (fun s -> Alcotest.(check int) "no points" 0 (Sim.Series.length s))
    (Sim.Series.all m)

let test_series_sampling () =
  let now = ref 0.0 in
  let m = Sim.Series.create ~clock:(fun () -> !now) () in
  let v = ref 2.0 in
  Sim.Series.probe m ~name:"gauge" ~node:1 (fun () -> !v);
  let c = ref 0 in
  Sim.Series.counter m ~name:"count" (fun () -> float_of_int !c);
  Sim.Series.enable m;
  now := 1.0;
  v := 3.0;
  c := 7;
  Sim.Series.sample m;
  now := 2.0;
  v := 4.0;
  c := 9;
  Sim.Series.sample m;
  let find name =
    match Sim.Series.find m name with
    | Some s -> s
    | None -> Alcotest.failf "series %s missing" name
  in
  let g = find "gauge@1" in
  Alcotest.(check int) "gauge points" 2 (Sim.Series.length g);
  (match Sim.Series.last g with
  | Some p ->
    Alcotest.(check (float 0.0)) "gauge t" 2.0 p.Sim.Series.at;
    Alcotest.(check (float 0.0)) "gauge v" 4.0 p.Sim.Series.v
  | None -> Alcotest.fail "gauge empty");
  let ct = find "count" in
  (match Sim.Series.last ct with
  | Some p -> Alcotest.(check (float 0.0)) "counter v" 9.0 p.Sim.Series.v
  | None -> Alcotest.fail "counter empty")

let test_series_window_derives () =
  let now = ref 0.0 in
  let m = Sim.Series.create ~clock:(fun () -> !now) () in
  let w = Sim.Series.window m ~name:"lat" ~scale:1e3 () in
  Sim.Series.enable m;
  for i = 1 to 100 do
    Sim.Series.observe w (float_of_int i /. 1e3)
  done;
  now := 0.5;
  Sim.Series.sample m;
  let pick suffix =
    match Sim.Series.find m ("lat." ^ suffix) with
    | Some s -> (
      match Sim.Series.last s with
      | Some p -> p.Sim.Series.v
      | None -> Alcotest.failf "lat.%s empty" suffix)
    | None -> Alcotest.failf "lat.%s missing" suffix
  in
  (* 1..100 ms observed: the log-bucketed percentiles land within a
     bucket width (5%) of the exact ranks, and rate = 100 / 0.5 s. *)
  let near name want got =
    if Float.abs (got -. want) > 0.05 *. want then
      Alcotest.failf "%s: wanted ~%g, got %g" name want got
  in
  near "p50" 50.0 (pick "p50");
  near "p99" 99.0 (pick "p99");
  Alcotest.(check (float 1e-9)) "rate" 200.0 (pick "rate");
  (* The window clears between ticks: an empty tick pushes no percentile
     point but keeps the rate series going (at zero). *)
  now := 1.0;
  Sim.Series.sample m;
  (match Sim.Series.find m "lat.p50" with
  | Some s -> Alcotest.(check int) "p50 points" 1 (Sim.Series.length s)
  | None -> ());
  Alcotest.(check (float 1e-9)) "empty-tick rate" 0.0 (pick "rate")

let test_series_ring_drops () =
  let now = ref 0.0 in
  let m = Sim.Series.create ~capacity:4 ~clock:(fun () -> !now) () in
  let v = ref 0.0 in
  Sim.Series.probe m ~name:"g" (fun () -> !v);
  Sim.Series.enable m;
  for i = 1 to 10 do
    now := float_of_int i;
    v := float_of_int i;
    Sim.Series.sample m
  done;
  let s = List.hd (Sim.Series.all m) in
  Alcotest.(check int) "kept" 4 (Sim.Series.length s);
  Alcotest.(check int) "dropped" 6 (Sim.Series.dropped s);
  Alcotest.(check int) "total dropped" 6 (Sim.Series.total_dropped m);
  (* Oldest points were overwritten: the ring holds 7..10. *)
  let first = ref nan in
  Sim.Series.iter_points s (fun p ->
      if Float.is_nan !first then first := p.Sim.Series.v);
  Alcotest.(check (float 0.0)) "oldest kept" 7.0 !first

(* --- the one counter list ------------------------------------------------- *)

(* A watched 2-node run with a move and a remote invoke; [body] runs
   after [Watch.stop], inside the main thread. *)
let watched_two_nodes body =
  let cfg = A.Config.make ~nodes:2 ~cpus:2 () in
  A.Cluster.run_value cfg (fun rt ->
      let w = Watch.attach rt () in
      let o = A.Api.create rt ~name:"o" (ref 0) in
      A.Api.move_to rt o ~dest:1;
      A.Api.invoke rt o incr;
      Watch.stop w;
      body rt w)

let dotted_lower_case name =
  let parts = String.split_on_char '.' name in
  List.length parts >= 2
  && List.for_all
       (fun p ->
         p <> ""
         && (match p.[0] with 'a' .. 'z' -> true | _ -> false)
         && String.for_all
              (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
              p)
       parts

(* Watch and the report read the same list: every entry is a series of
   its kind (once per node for a per-node entry) and a key of the
   captured report, under a unique dotted lower-case name. *)
let test_list_coverage () =
  let report, registry =
    watched_two_nodes (fun rt w ->
        (A.Stats_report.capture rt, Watch.registry w))
  in
  let names =
    List.map (fun e -> e.A.Stats_report.name) A.Stats_report.entries
  in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (e : A.Stats_report.entry) ->
      if not (dotted_lower_case e.name) then
        Alcotest.failf "%S is not dotted lower case" e.name;
      let want =
        match e.kind with
        | A.Stats_report.Counter -> Sim.Series.Cumulative
        | A.Stats_report.Gauge -> Sim.Series.Gauge
      in
      let qualified =
        if e.per_node then [ e.name ^ "@0"; e.name ^ "@1" ] else [ e.name ]
      in
      List.iter
        (fun q ->
          match Sim.Series.find registry q with
          | Some s ->
            if Sim.Series.kind s <> want then
              Alcotest.failf "series %s has the wrong kind" q
          | None -> Alcotest.failf "no series %s" q)
        qualified;
      match List.assoc_opt e.name report.A.Stats_report.values with
      | Some v ->
        Alcotest.(check int)
          (e.name ^ " values")
          (if e.per_node then 2 else 1)
          (Array.length v)
      | None -> Alcotest.failf "%s missing from the report" e.name)
    A.Stats_report.entries

(* The engine watches itself: after [Watch.stop] the last events point
   is the engine's own count. *)
let test_engine_series () =
  let last, executed =
    watched_two_nodes (fun rt w ->
        match Sim.Series.find (Watch.registry w) "sim.engine.events" with
        | Some s ->
          ( Option.map (fun p -> p.Sim.Series.v) (Sim.Series.last s),
            Sim.Engine.events_executed (A.Runtime.engine rt) )
        | None -> Alcotest.fail "no sim.engine.events series")
  in
  Alcotest.(check bool) "events executed" true (executed > 0);
  Alcotest.(check (option (float 0.0)))
    "last point is the engine's count"
    (Some (float_of_int executed))
    last

(* --- SLO rule parsing and burn-rate evaluation ---------------------------- *)

let test_slo_parse () =
  (match Watch.Slo.parse "serve.latency_ms.p99<=60@0.1" with
  | Ok r ->
    Alcotest.(check string) "series" "serve.latency_ms.p99" r.Watch.Slo.series;
    Alcotest.(check bool) "op" true (r.Watch.Slo.op = Watch.Slo.Le);
    Alcotest.(check (float 1e-9)) "threshold" 60.0 r.Watch.Slo.threshold;
    Alcotest.(check (float 1e-9)) "budget" 0.1 r.Watch.Slo.budget
  | Error e -> Alcotest.fail e);
  (match Watch.Slo.parse "x.rate>=800" with
  | Ok r ->
    Alcotest.(check bool) "ge" true (r.Watch.Slo.op = Watch.Slo.Ge);
    Alcotest.(check (float 1e-9)) "default budget" Watch.Slo.default_budget
      r.Watch.Slo.budget
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Watch.Slo.parse bad with
      | Ok _ -> Alcotest.failf "parsed %S" bad
      | Error _ -> ())
    [ ""; "x"; "x<=y"; "x<=1@0"; "x<=1@1.5"; "x==1" ]

let eval_rule rule points =
  let now = ref 0.0 in
  let m = Sim.Series.create ~clock:(fun () -> !now) () in
  let v = ref 0.0 in
  Sim.Series.probe m ~name:"s" (fun () -> !v);
  Sim.Series.enable m;
  List.iteri
    (fun i x ->
      now := float_of_int (i + 1);
      v := x;
      Sim.Series.sample m)
    points;
  Watch.Slo.evaluate m rule

let test_slo_burn_gate () =
  let rule =
    match Watch.Slo.parse "s<=10@0.25" with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  (* A lone bad tick in 60 never fires (long-window burn stays < 1). *)
  let quiet = List.init 60 (fun i -> if i = 30 then 100.0 else 1.0) in
  let o = eval_rule rule quiet in
  Alcotest.(check bool) "lone breach quiet" false o.Watch.Slo.fired;
  Alcotest.(check int) "bad counted" 1 o.Watch.Slo.bad;
  (* A sustained breach fires once both windows burn >= 1. *)
  let burning = List.init 60 (fun i -> if i >= 20 then 100.0 else 1.0) in
  let o = eval_rule rule burning in
  Alcotest.(check bool) "sustained breach fires" true o.Watch.Slo.fired;
  (match o.Watch.Slo.fire_at with
  | Some t -> Alcotest.(check bool) "fires after onset" true (t > 20.0)
  | None -> Alcotest.fail "no fire time");
  (* Missing series: no data, never fires. *)
  let rule2 =
    match Watch.Slo.parse "nope<=1" with Ok r -> r | Error e -> Alcotest.fail e
  in
  let m = Sim.Series.create ~clock:(fun () -> 0.0) () in
  let o = Watch.Slo.evaluate m rule2 in
  Alcotest.(check int) "no points" 0 o.Watch.Slo.points;
  Alcotest.(check bool) "no fire" false o.Watch.Slo.fired

(* --- watched serving: transparency, overload, determinism ----------------- *)

let serve_cfg ~rps =
  {
    Serve.default_cfg with
    Serve.arrival = Serve.Trafficgen.Poisson rps;
    duration = 0.3;
    keys = 16;
    admission = Some Serve.default_admission;
  }

let watched_serve ~rps ~slo seed =
  let cfg = A.Config.make ~nodes:4 ~cpus:2 ~seed:(Int64.of_int seed) () in
  let rules =
    List.map
      (fun s ->
        match Watch.Slo.parse s with
        | Ok r -> r
        | Error e -> Alcotest.fail e)
      slo
  in
  let out = ref None in
  A.Cluster.run_value cfg (fun rt ->
      let w = Watch.attach rt ~slo:rules () in
      let r = Serve.run rt (serve_cfg ~rps) in
      Watch.stop w;
      out := Some (r, Watch.outcomes w, Watch.slo_fired w));
  Option.get !out

let p99_rule = "serve.latency_ms.p99<=60@0.1"

(* 4x the sustainable rate: admission sheds, the admitted tail blows
   through the objective, and the burn-rate monitor trips. *)
let test_slo_fires_under_overload () =
  let r, outcomes, fired = watched_serve ~rps:2000.0 ~slo:[ p99_rule ] 42 in
  Alcotest.(check bool) "sheds load" true (r.Serve.rejected > 0);
  Alcotest.(check bool) "monitor fired" true fired;
  match outcomes with
  | [ o ] ->
    Alcotest.(check bool) "has data" true (o.Watch.Slo.points > 0);
    Alcotest.(check bool) "fast burn >= 1" true (o.Watch.Slo.peak_fast >= 1.0)
  | _ -> Alcotest.fail "one outcome expected"

(* Moderate load: the same rule stays quiet. *)
let test_slo_quiet_at_moderate () =
  let _, _, fired = watched_serve ~rps:200.0 ~slo:[ p99_rule ] 42 in
  Alcotest.(check bool) "monitor quiet" false fired

(* --- flight recorder ------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains = Util.contains

(* Stale artifacts from a previous run would mask a regression. *)
let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let test_flight_dump_on_crash () =
  let dir = fresh_dir "amber-flight-test" in
  let cfg =
    A.Config.make ~nodes:4 ~cpus:2 ~seed:42L
      ~crashes:[ { A.Config.cnode = 2; at = 0.1; restart = None } ]
      ()
  in
  let fl = ref None in
  A.Cluster.run_value cfg (fun rt ->
      let f = Watch.Flight.attach rt ~dir in
      fl := Some f;
      ignore (Serve.run rt (serve_cfg ~rps:300.0) : Serve.result));
  let f = Option.get !fl in
  Alcotest.(check bool) "dumped" true (Watch.Flight.dump_count f > 0);
  let dump = List.hd (Watch.Flight.dumps f) in
  Alcotest.(check bool) "file exists" true (Sys.file_exists dump);
  let doc = read_file dump in
  Alcotest.(check bool) "typed header" true (contains doc "\"node_dead\"");
  Alcotest.(check bool) "victim id" true (contains doc "\"node\":2");
  Alcotest.(check bool) "trailing trace" true (contains doc "\"trace\"");
  Alcotest.(check bool) "victim spans" true (contains doc "\"spans\"");
  (* Dedupe: the same (kind, node) never dumps twice. *)
  let names = List.map Filename.basename (Watch.Flight.dumps f) in
  let uniq = List.sort_uniq compare names in
  Alcotest.(check int) "no duplicate dumps" (List.length uniq)
    (List.length names)

(* The window is closed on the right.  A 2 Mbit/s wire keeps SOR's
   boundary exchanges queued, and under the FIFO MAC a queued packet is
   marked at its later transmit start: at the failure the collector
   already holds marks stamped after it, which must stay out. *)
let test_flight_window_closed () =
  let dir = fresh_dir "amber-flight-window" in
  let cfg =
    A.Config.make ~nodes:4 ~cpus:2 ~seed:42L
      ~crashes:[ { A.Config.cnode = 3; at = 0.2; restart = None } ]
      ()
  in
  let cfg = { cfg with A.Config.ether_bandwidth_bps = 2e6 } in
  let grid =
    Workloads.Sor_core.with_size Workloads.Sor_core.default ~rows:61 ~cols:421
  in
  let queued = ref false in
  (try
     A.Cluster.run_value cfg (fun rt ->
         ignore (Watch.Flight.attach rt ~dir : Watch.Flight.t);
         A.Runtime.on_failure rt (fun ~kind:_ ~node:_ ~detail:_ ->
             queued :=
               !queued
               || List.exists
                    (fun (m : Sim.Span.mark) -> m.time > A.Runtime.now rt)
                    (Sim.Span.marks (A.Runtime.spans rt)));
         ignore (Workloads.Sor_amber.run rt grid ~iters:10 ()))
   with Topaz.Rpc.Node_dead _ -> ());
  Alcotest.(check bool) "marks after the failure exist" true !queued;
  let doc = read_file (Filename.concat dir "postmortem-0-node_dead-n3.json") in
  (* Every mark object opens with its time; nothing else does. *)
  let times =
    List.filter_map
      (fun obj -> Scanf.sscanf_opt obj "\"time\":%f," Fun.id)
      (String.split_on_char '{' doc)
  in
  Alcotest.(check bool) "non-empty window" true (times <> []);
  List.iter
    (fun t ->
      if t < 0.2 -. Watch.Flight.window -. 1e-9 || t > 0.2 +. 1e-9
      then Alcotest.failf "mark at %.9f outside the window" t)
    times

(* A crash-free, failure-free run dumps nothing (and creates no files). *)
let test_flight_silent_without_failures () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "amber-flight-silent"
  in
  let cfg = A.Config.make ~nodes:2 ~cpus:2 ~seed:7L () in
  let fl = ref None in
  A.Cluster.run_value cfg (fun rt ->
      let f = Watch.Flight.attach rt ~dir in
      fl := Some f;
      ignore
        (Workloads.Fixtures.clean_counter rt ~threads:2 ~increments:5
          : Workloads.Fixtures.result));
  Alcotest.(check int) "no dumps" 0 (Watch.Flight.dump_count (Option.get !fl))

let suite =
  [
    Alcotest.test_case "disabled registry is inert" `Quick
      test_series_disabled_inert;
    Alcotest.test_case "probes and counters sample" `Quick test_series_sampling;
    Alcotest.test_case "window derives percentiles and rate" `Quick
      test_series_window_derives;
    Alcotest.test_case "ring drops oldest and counts" `Quick
      test_series_ring_drops;
    Alcotest.test_case "every listed counter is watched and reported" `Quick
      test_list_coverage;
    Alcotest.test_case "engine events series" `Quick test_engine_series;
    Alcotest.test_case "slo rule parsing" `Quick test_slo_parse;
    Alcotest.test_case "burn-rate multi-window gate" `Quick test_slo_burn_gate;
    Alcotest.test_case "slo fires under overload" `Quick
      test_slo_fires_under_overload;
    Alcotest.test_case "slo quiet at moderate load" `Quick
      test_slo_quiet_at_moderate;
    Alcotest.test_case "flight recorder dumps on crash" `Quick
      test_flight_dump_on_crash;
    Alcotest.test_case "flight recorder silent without failures" `Quick
      test_flight_silent_without_failures;
    Alcotest.test_case "flight window closed on the right" `Quick
      test_flight_window_closed;
  ]
