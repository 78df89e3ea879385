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
  Sim.Series.counter m ~name:"count" (fun () -> !c);
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

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_flight_dump_on_crash () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "amber-flight-test" in
  (* Stale artifacts from a previous run would mask a regression. *)
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  let cfg =
    A.Config.make ~nodes:4 ~cpus:2 ~seed:42L
      ~crashes:[ { A.Config.cnode = 2; at = 0.1; restart = None } ]
      ()
  in
  let fl = ref None in
  A.Cluster.run_value cfg (fun rt ->
      let f = Watch.Flight.attach rt ~dir () in
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

(* A crash-free, failure-free run dumps nothing (and creates no files). *)
let test_flight_silent_without_failures () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "amber-flight-silent"
  in
  let cfg = A.Config.make ~nodes:2 ~cpus:2 ~seed:7L () in
  let fl = ref None in
  A.Cluster.run_value cfg (fun rt ->
      let f = Watch.Flight.attach rt ~dir () in
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
  ]
