(* Amber-Serve: traffic generation distributions, admission control and
   the overload acceptance story.

   The generator tests are pure (they drive [Serve.Trafficgen] with a
   raw [Sim.Rng.t], no cluster); the admission unit tests exercise the
   token bucket and cutoff against a hand-advanced clock; the
   integration tests run real serving sessions and check the headline
   claim — at 2x capacity, admission control sheds load and keeps the
   admitted tail bounded while the uncontrolled run degrades. *)

module A = Amber
module T = Serve.Trafficgen

let rng_of seed = Sim.Rng.make (Int64.of_int seed)

(* --- traffic generation ------------------------------------------------- *)

let gen ?(arrival = T.Poisson 500.0) ?(duration = 2.0) ?(skew = 1.0) seed =
  T.generate ~rng:(rng_of seed) ~arrival ~mix:T.default_mix ~keys:32 ~skew
    ~duration

let prop_generator_deterministic =
  QCheck.Test.make ~name:"same seed, byte-identical schedule" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      T.to_string (gen seed) = T.to_string (gen seed)
      && T.to_string (gen ~arrival:(T.Bursty
                                      {
                                        rate = 200.0;
                                        factor = 8.0;
                                        on_mean = 0.05;
                                        off_mean = 0.2;
                                      })
                        seed)
         = T.to_string (gen ~arrival:(T.Bursty
                                        {
                                          rate = 200.0;
                                          factor = 8.0;
                                          on_mean = 0.05;
                                          off_mean = 0.2;
                                        })
                          seed))

let test_poisson_mean () =
  (* 500 rps over 20 s: the empirical rate of ~10k arrivals should sit
     within a few percent of the configured mean. *)
  let reqs = gen ~duration:20.0 42 in
  let rate = float_of_int (List.length reqs) /. 20.0 in
  Alcotest.(check bool)
    (Printf.sprintf "empirical rate %.1f within 5%% of 500" rate)
    true
    (abs_float (rate -. 500.0) < 25.0)

let test_zipf_skew () =
  (* Zipf(1) over 32 keys: rank 0 should carry ~1/H_32 = 24.6% of the
     draws, and a long sample should hit it far more than uniform 1/32
     would. *)
  let reqs = gen ~duration:20.0 7 in
  let n = List.length reqs in
  let hits =
    List.length (List.filter (fun (r : T.request) -> r.key = 0) reqs)
  in
  let frac = float_of_int hits /. float_of_int n in
  let h32 = ref 0.0 in
  for k = 1 to 32 do
    h32 := !h32 +. (1.0 /. float_of_int k)
  done;
  let expect = 1.0 /. !h32 in
  Alcotest.(check bool)
    (Printf.sprintf "rank-0 frequency %.3f near Zipf prediction %.3f" frac
       expect)
    true
    (abs_float (frac -. expect) < 0.03);
  let uniform = gen ~duration:20.0 ~skew:0.0 7 in
  let uhits =
    List.length (List.filter (fun (r : T.request) -> r.key = 0) uniform)
  in
  Alcotest.(check bool)
    "skewed sample hits the hot key far more than uniform" true
    (hits > 3 * uhits)

let test_bursty_mean_rate () =
  (* The MMPP's long-run rate is the phase-time-weighted mix of the on
     and off rates; a long sample should land near it, and well above
     the base rate. *)
  let arrival =
    T.Bursty { rate = 100.0; factor = 10.0; on_mean = 0.05; off_mean = 0.15 }
  in
  let expect = T.mean_rate arrival in
  let reqs = gen ~arrival ~duration:50.0 99 in
  let rate = float_of_int (List.length reqs) /. 50.0 in
  Alcotest.(check bool)
    (Printf.sprintf "bursty empirical rate %.1f near analytic %.1f" rate expect)
    true
    (abs_float (rate -. expect) /. expect < 0.15);
  Alcotest.(check bool) "burstiness raises the rate above base" true
    (rate > 150.0)

let test_class_mix () =
  let reqs = gen ~duration:20.0 13 in
  let n = float_of_int (List.length reqs) in
  let frac c =
    float_of_int
      (List.length (List.filter (fun (r : T.request) -> r.cls = c) reqs))
    /. n
  in
  Alcotest.(check bool)
    "class mix near 0.7/0.2/0.1" true
    (abs_float (frac T.Read -. 0.7) < 0.03
    && abs_float (frac T.Write -. 0.2) < 0.03
    && abs_float (frac T.Compute -. 0.1) < 0.03)

let bursty =
  T.Bursty { rate = 200.0; factor = 8.0; on_mean = 0.05; off_mean = 0.2 }

let stream ?(arrival = T.Poisson 500.0) ?(duration = 2.0) seed =
  T.stream ~rng:(rng_of seed) ~arrival ~mix:T.default_mix ~keys:32 ~skew:1.0
    ~duration

(* The stream draws what the list did, at every seed.  The digests pin
   these schedules: a change to the draw order would move every serve
   number, so it must show here first. *)
let test_stream_matches_generate () =
  List.iter
    (fun (name, arrival, digests) ->
      List.iter2
        (fun seed want ->
          let got = T.to_string (List.of_seq (stream ~arrival seed)) in
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d: stream = generate" name seed)
            (T.to_string (gen ~arrival seed))
            got;
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d: schedule digest" name seed)
            want
            (Digest.to_hex (Digest.string got)))
        [ 1; 2; 3 ] digests)
    [
      ( "poisson",
        T.Poisson 500.0,
        [
          "249e270c790303337ff1890ae325307d";
          "3ae445e96e11806406ebc841af14b805";
          "a188d83d395c53bb07d0b9d2637ee91d";
        ] );
      ( "bursty",
        bursty,
        [
          "89182c2383fb0f354c511d9067744ee0";
          "0d0a5f1147a2b8972fb688f3ab42fdb2";
          "4470b404312f31630674ef9449ed7c56";
        ] );
    ]

(* Arrivals are drawn as they are taken, so the head of a stream whose
   full schedule would hold half a billion requests comes back at once. *)
let test_stream_is_lazy () =
  List.iter
    (fun arrival ->
      let head = List.of_seq (Seq.take 10 (stream ~arrival ~duration:1e6 5)) in
      Alcotest.(check int) "ten arrivals" 10 (List.length head);
      Alcotest.(check bool) "in time order" true
        (List.sort compare head = head))
    [ T.Poisson 500.0; bursty ]

(* --- admission control -------------------------------------------------- *)

let test_bucket_refill () =
  let b = Serve.Admission.bucket ~rate:10.0 ~burst:4.0 in
  Alcotest.(check (float 1e-9)) "starts full" 4.0
    (Serve.Admission.tokens b ~now:0.0);
  for _ = 1 to 4 do
    Alcotest.(check bool) "take while tokens remain" true
      (Serve.Admission.try_take b ~now:0.0)
  done;
  Alcotest.(check bool) "empty bucket rejects" false
    (Serve.Admission.try_take b ~now:0.0);
  (* 0.25 s at 10 tok/s credits 2.5 tokens. *)
  Alcotest.(check (float 1e-9)) "lazy refill credits rate*dt" 2.5
    (Serve.Admission.tokens b ~now:0.25);
  (* A long gap caps at burst, and time never flows backward. *)
  Alcotest.(check (float 1e-9)) "refill caps at burst" 4.0
    (Serve.Admission.tokens b ~now:10.0);
  Alcotest.(check (float 1e-9)) "earlier now ignored" 4.0
    (Serve.Admission.tokens b ~now:5.0)

let prop_bucket_bounded =
  (* Whatever interleaving of takes and refills, the level stays within
     [0, burst]. *)
  QCheck.Test.make ~name:"bucket level stays within [0, burst]" ~count:200
    QCheck.(list (pair (float_bound_inclusive 1.0) bool))
    (fun steps ->
      let b = Serve.Admission.bucket ~rate:5.0 ~burst:3.0 in
      let now = ref 0.0 in
      List.for_all
        (fun (dt, take) ->
          now := !now +. dt;
          if take then ignore (Serve.Admission.try_take b ~now:!now : bool);
          let level = Serve.Admission.tokens b ~now:!now in
          level >= 0.0 && level <= 3.0)
        steps)

let test_cutoff_before_bucket () =
  let t =
    Serve.Admission.create ~classes:[ ("read", 10.0, 2.0) ] ~cutoff:4
  in
  (* Depth at the cutoff rejects without consuming a token... *)
  Alcotest.(check bool) "queue-full rejects" false
    (Serve.Admission.admit t ~now:0.0 ~cls:"read" ~depth:4);
  (* ...so both tokens are still there for admittable requests. *)
  Alcotest.(check bool) "token survives queue-full rejection" true
    (Serve.Admission.admit t ~now:0.0 ~cls:"read" ~depth:0);
  Alcotest.(check bool) "second token too" true
    (Serve.Admission.admit t ~now:0.0 ~cls:"read" ~depth:0);
  Alcotest.(check bool) "then the bucket is dry" false
    (Serve.Admission.admit t ~now:0.0 ~cls:"read" ~depth:0);
  (* A class with no configured bucket is limited by the cutoff alone. *)
  Alcotest.(check bool) "unbucketed class rides the cutoff" true
    (Serve.Admission.admit t ~now:0.0 ~cls:"compute" ~depth:3)

(* --- configuration rules ------------------------------------------------ *)

(* An infinite rate or duration would issue requests without end, so
   [validate] rejects it before anything runs.  Checked here rather than
   through the CLI, where a broken rule would exhaust memory. *)
let test_validate_rejects_unbounded () =
  let base = Serve.default_cfg in
  let burst factor =
    T.Bursty { rate = 100.0; factor; on_mean = 0.05; off_mean = 0.1 }
  in
  List.iter
    (fun (what, cfg) ->
      match Serve.validate cfg with
      | () -> Alcotest.failf "%s accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("infinite rate", { base with Serve.arrival = T.Poisson infinity });
      ("nan rate", { base with Serve.arrival = T.Poisson nan });
      ("infinite burst factor", { base with Serve.arrival = burst infinity });
      ("infinite duration", { base with Serve.duration = infinity });
    ]

(* --- serving integration ------------------------------------------------ *)

let run_serve ?(nodes = 4) ?(seed = 11) ?faults ?crashes ?(crash_rate = 0.0)
    cfg =
  let faults = Option.value faults ~default:Hw.Ethernet.no_faults in
  let ccfg =
    A.Config.make ~nodes ~cpus:4 ~seed:(Int64.of_int seed) ~faults
      ?crashes ~crash_rate ()
  in
  A.Cluster.run_value ccfg (fun rt -> Serve.run rt cfg)

let capacity = Serve.capacity_rps Serve.default_cfg ~nodes:4

let serve_cfg ?(rate_mult = 0.5) ?(admission = None) () =
  {
    Serve.default_cfg with
    Serve.arrival = T.Poisson (rate_mult *. capacity);
    duration = 0.3;
    admission;
  }

let p99 (r : Serve.result) =
  Sim.Stats.Summary.percentile r.Serve.latency 99.0

let test_accounting_closes () =
  let r = run_serve (serve_cfg ()) in
  Alcotest.(check int) "issued = completed + rejected + failed" r.Serve.issued
    (r.Serve.completed + r.Serve.rejected + r.Serve.failed);
  Alcotest.(check bool) "moderate load completes everything" true
    (r.Serve.completed = r.Serve.issued && r.Serve.issued > 50)

let test_overload_acceptance () =
  (* The PR's headline acceptance: at 2x nominal capacity, admission
     control sheds load (rejects > 0) and keeps the admitted p99 within
     3x the moderate-load p99, while the uncontrolled run's tail
     degrades well past that bound. *)
  let moderate = run_serve (serve_cfg ~rate_mult:0.5 ()) in
  let controlled =
    run_serve
      (serve_cfg ~rate_mult:2.0 ~admission:(Some Serve.default_admission) ())
  in
  let uncontrolled = run_serve (serve_cfg ~rate_mult:2.0 ()) in
  Alcotest.(check bool) "admission sheds load under overload" true
    (controlled.Serve.rejected > 0);
  Alcotest.(check bool) "uncontrolled run sheds nothing" true
    (uncontrolled.Serve.rejected = 0);
  let m = p99 moderate and c = p99 controlled and u = p99 uncontrolled in
  Alcotest.(check bool)
    (Printf.sprintf "admitted p99 %.1fms within 3x moderate p99 %.1fms"
       (c *. 1e3) (m *. 1e3))
    true
    (c <= 3.0 *. m);
  Alcotest.(check bool)
    (Printf.sprintf "uncontrolled p99 %.1fms degrades past the bound"
       (u *. 1e3))
    true
    (u > 3.0 *. m && u > 2.0 *. c);
  (* Shedding keeps goodput near capacity rather than collapsing. *)
  Alcotest.(check bool) "controlled goodput stays above half capacity" true
    (controlled.Serve.goodput_rps > 0.5 *. capacity)

let test_typed_rejection () =
  (* The first shed request surfaces as a typed [Amber.Overload.Overloaded]
     carrying the shedding node and the request class — under packet
     faults too, since rejection notices ride the reliable channel. *)
  let faults =
    { Hw.Ethernet.no_faults with Hw.Ethernet.drop_prob = 0.02; dup_prob = 0.01 }
  in
  let r =
    run_serve ~faults
      (serve_cfg ~rate_mult:2.0 ~admission:(Some Serve.default_admission) ())
  in
  Alcotest.(check bool) "a rejection was sampled" true
    (r.Serve.sample_rejection <> None);
  (match r.Serve.sample_rejection with
  | Some (A.Overload.Overloaded { node; cls }) ->
    Alcotest.(check bool) "rejecting node is in the cluster" true
      (node >= 0 && node < 4);
    Alcotest.(check bool) "class is one of the mix" true
      (List.mem cls [ "read"; "write"; "compute" ])
  | Some e ->
      Alcotest.failf "unexpected rejection exn: %s" (Printexc.to_string e)
  | None -> ());
  (* The registered printer renders the payload. *)
  match r.Serve.sample_rejection with
  | Some e ->
    let s = Printexc.to_string e in
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "printer names the exception" true
      (contains s "Overloaded")
  | None -> ()

let test_crash_resolves_failed () =
  (* A fail-stop crash mid-window strands in-flight requests; the drain
     deadline must convert them to failures so the accounting still
     closes (no hangs). *)
  let r =
    run_serve
      ~crashes:[ { A.Config.cnode = 3; at = 0.05; restart = None } ]
      (serve_cfg ~rate_mult:0.5 ())
  in
  Alcotest.(check int) "accounting closes across a crash" r.Serve.issued
    (r.Serve.completed + r.Serve.rejected + r.Serve.failed)

(* The CLI's fail-stop run, end to end: every request of every class
   resolves exactly once, and the run ends before the drain deadline
   (duration + 2 s grace).  A post toward the corpse used to retransmit
   for its whole budget; the deadline counted it failed, then its late
   give-up counted it failed again. *)
let test_cli_fail_stop_classes_close () =
  let status, lines =
    Util.cli
      [ "serve"; "--nodes"; "4"; "--cpus"; "4"; "--rps"; "400"; "--duration";
        "0.5"; "--sim-seed"; "42"; "--crash"; "2@0.2" ]
  in
  Alcotest.(check int) "exit 0" 0 status;
  let scan fmt f l = try Some (Scanf.sscanf l fmt f) with _ -> None in
  let classes =
    List.filter_map
      (scan "  %s issued %d, ok %d, rej %d, fail %d%!" (fun c i o r f ->
           (c, i, o + r + f)))
      lines
  in
  Alcotest.(check int) "three class lines" 3 (List.length classes);
  List.iter
    (fun (c, issued, resolved) ->
      Alcotest.(check int) (c ^ ": ok + rej + fail = issued") issued resolved)
    classes;
  match
    List.filter_map
      (scan "serve (%_[^)]): issued %_d, completed %_d, rejected %_d, failed \
             %_d in %f virtual s" Fun.id)
      lines
  with
  | [ elapsed ] ->
    Alcotest.(check bool) "ends before the drain deadline" true (elapsed < 2.5)
  | _ -> Alcotest.fail "no summary line"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_generator_deterministic;
    Alcotest.test_case "poisson arrivals hit the configured mean rate" `Quick
      test_poisson_mean;
    Alcotest.test_case "zipf skew concentrates traffic on hot keys" `Quick
      test_zipf_skew;
    Alcotest.test_case "bursty arrivals hit the analytic mean rate" `Quick
      test_bursty_mean_rate;
    Alcotest.test_case "class mix matches the configured weights" `Quick
      test_class_mix;
    Alcotest.test_case "stream draws the generated schedule" `Quick
      test_stream_matches_generate;
    Alcotest.test_case "stream draws arrivals as they are taken" `Quick
      test_stream_is_lazy;
    Alcotest.test_case "token bucket refills lazily and caps at burst" `Quick
      test_bucket_refill;
    QCheck_alcotest.to_alcotest prop_bucket_bounded;
    Alcotest.test_case "queue cutoff rejects before burning tokens" `Quick
      test_cutoff_before_bucket;
    Alcotest.test_case "validate rejects unbounded traffic" `Quick
      test_validate_rejects_unbounded;
    Alcotest.test_case "moderate load: accounting closes, nothing shed" `Quick
      test_accounting_closes;
    Alcotest.test_case
      "2x overload: admission bounds the tail, no admission degrades" `Quick
      test_overload_acceptance;
    Alcotest.test_case "shed requests surface as typed Overloaded" `Quick
      test_typed_rejection;
    Alcotest.test_case "crash mid-window resolves as failures, not hangs"
      `Quick test_crash_resolves_failed;
    Alcotest.test_case "cli fail-stop run: every class closes" `Quick
      test_cli_fail_stop_classes_close;
  ]
