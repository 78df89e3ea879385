(* Seed-sweep determinism: the simulation is a pure function of its
   configuration.  Run the same scenario twice per seed and require the
   full stats report — counters, latencies, per-node utilization, fault
   recovery — to hash identically.  Covers the racy counter fixture
   (contended invocations, lost-update interleavings) and the
   read-mostly workload with replication under packet loss (replica
   installs, invalidation rounds, retransmits). *)

module A = Amber

let faults =
  {
    Hw.Ethernet.drop_prob = 0.02;
    dup_prob = 0.01;
    delay_prob = 0.0;
    delay_spike = 0.0;
    stalls = [];
  }

(* Every sweep runs through the run harness and digests what it prints:
   the full report plus every attached layer's sections. *)
let session_text ?(layers = Session.off) cfg body =
  let buf = Buffer.create 4096 in
  let o =
    Session.run ~ppf:(Format.formatter_of_buffer buf)
      { layers with Session.report = true }
      cfg body
  in
  (o, Buffer.contents buf)

let report_digest ?layers cfg body =
  Digest.string (snd (session_text ?layers cfg body))

let hybrid =
  {
    Session.off with
    Session.balance =
      {
        Balance.Driver.default_cfg with
        Balance.Driver.policy = Balance.Rebalancer.Hybrid;
        steal = true;
      };
  }

let racy_fixture_digest seed =
  let cfg = A.Config.make ~nodes:4 ~cpus:2 ~seed:(Int64.of_int seed) () in
  report_digest cfg (fun rt ->
      ignore
        (Workloads.Fixtures.racy_counter rt ~threads:4 ~increments:10
          : Workloads.Fixtures.result))

let read_mostly_digest seed =
  let cfg =
    A.Config.make ~nodes:3 ~cpus:2 ~seed:(Int64.of_int seed) ~faults ()
  in
  report_digest cfg (fun rt ->
      ignore
        (Workloads.Read_mostly.run rt
           {
             Workloads.Read_mostly.objects = 3;
             readers_per_node = 2;
             reads_per_reader = 12;
             write_every = 6;
             replicate = true;
           }
          : Workloads.Read_mostly.result))

let balanced_sor_digest seed =
  let cfg = A.Config.make ~nodes:4 ~cpus:2 ~seed:(Int64.of_int seed) () in
  report_digest ~layers:hybrid cfg (fun rt ->
      let p =
        Workloads.Sor_core.with_size Workloads.Sor_core.default ~rows:16
          ~cols:64
      in
      let c =
        {
          (Workloads.Sor_amber.default_cfg rt) with
          Workloads.Sor_amber.placement = Some (fun _ -> 0);
        }
      in
      ignore
        (Workloads.Sor_amber.run rt p ~cfg:c ~iters:4 ()
          : Workloads.Sor_amber.result))

(* Pipelined SOR exercises the whole async stack — helper threads,
   future-notify datagrams, pipelined barriers — under packet loss with
   coalescing framing on top.  Both layers are driven purely by the
   seeded event clock, so the digest must reproduce per seed. *)
let async_sor_digest seed =
  let cfg =
    A.Config.make ~nodes:4 ~cpus:2 ~seed:(Int64.of_int seed) ~faults
      ~coalesce:Topaz.Rpc.default_coalesce ()
  in
  report_digest cfg (fun rt ->
      let p =
        Workloads.Sor_core.with_size Workloads.Sor_core.default ~rows:16
          ~cols:64
      in
      ignore (Workloads.Sor_pipe.run rt p ~iters:4 () : Workloads.Sor_pipe.result))

let sweep name digest_of =
  List.iter
    (fun seed ->
      let a = digest_of seed and b = digest_of seed in
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d reproducible" name seed)
        (Digest.to_hex a) (Digest.to_hex b))
    [ 1; 7; 13; 42; 99; 123; 2026; 31337; 65537; 999983 ]

let test_racy_fixture_sweep () = sweep "racy fixture" racy_fixture_digest
let test_read_mostly_sweep () = sweep "read-mostly" read_mostly_digest

let test_balanced_sor_sweep () =
  sweep "skewed sor + hybrid balancing" balanced_sor_digest

let test_async_sor_sweep () =
  sweep "pipelined sor + faults + coalescing" async_sor_digest

(* A crashed run is still a pure function of its configuration: the
   transient outage, the fail-stop funeral, replica promotion and chain
   repair all ride the seeded event clock, so the full report — crash
   counters included — must hash identically run-to-run.  Probabilistic
   crash mode draws from its own split stream, covered by the same
   sweep. *)
let crashed_sor_digest seed =
  let cfg =
    A.Config.make ~nodes:4 ~cpus:2 ~seed:(Int64.of_int seed)
      ~crashes:[ { A.Config.cnode = 3; at = 20e-3; restart = Some 60e-3 } ]
      ~crash_rate:0.3 ()
  in
  report_digest cfg (fun rt ->
      let p =
        Workloads.Sor_core.with_size Workloads.Sor_core.default ~rows:16
          ~cols:64
      in
      let c = Workloads.Sor_amber.default_cfg rt in
      ignore
        (Workloads.Sor_amber.run rt p ~cfg:c ~iters:4 ()
          : Workloads.Sor_amber.result))

let test_crashed_sor_sweep () = sweep "sor + crash injection" crashed_sor_digest

(* Everything at once: replicated serving with admission control under
   hybrid balancing plus a transient crash and probabilistic crash mode.
   The serving layer's only global-stream interaction is one split at
   [Serve.run] entry, and the serve report section rides the same
   deterministic accounting, so the full report (serve lines included)
   must hash identically run-to-run. *)
let served_digest seed =
  let cfg =
    A.Config.make ~nodes:4 ~cpus:2 ~seed:(Int64.of_int seed)
      ~crashes:[ { A.Config.cnode = 3; at = 30e-3; restart = Some 80e-3 } ]
      ~crash_rate:0.3 ()
  in
  report_digest ~layers:hybrid cfg (fun rt ->
      ignore
        (Serve.run rt
           {
             Serve.default_cfg with
             Serve.arrival = Serve.Trafficgen.Poisson 250.0;
             duration = 0.15;
             keys = 16;
             replicate = true;
             admission = Some Serve.default_admission;
           }
          : Serve.result))

let test_served_sweep () =
  sweep "serving + admission + balancing + crashes" served_digest

(* With the watch tick armed, the sampled series become part of the
   deterministic surface: every point of every series (the JSONL dump
   renders timestamps and values in full) plus the report — watch
   section included — must hash identically run-to-run, crash
   injection and all. *)
let watched_serve_digest seed =
  let cfg =
    A.Config.make ~nodes:4 ~cpus:2 ~seed:(Int64.of_int seed)
      ~crashes:[ { A.Config.cnode = 3; at = 30e-3; restart = Some 80e-3 } ]
      ~crash_rate:0.3 ()
  in
  let o, text =
    session_text
      ~layers:
        {
          Session.off with
          Session.watch = Some { Session.interval = 2e-3; slo = [] };
        }
      cfg
      (fun rt ->
        ignore
          (Serve.run rt
             {
               Serve.default_cfg with
               Serve.arrival = Serve.Trafficgen.Poisson 250.0;
               duration = 0.15;
               keys = 16;
               admission = Some Serve.default_admission;
             }
            : Serve.result))
  in
  let series =
    Scope.Export.series_jsonl (Watch.series (Option.get o.Session.watch))
  in
  Digest.string (String.concat "\n" (text :: series))

let test_watched_serve_sweep () =
  sweep "watched serving + crashes" watched_serve_digest

(* With profiling on, the span forest itself is part of the deterministic
   surface: ids, parents, kinds, attribution and timestamps must all
   reproduce run-to-run. *)
let span_digest seed =
  let cfg = A.Config.make ~nodes:4 ~cpus:2 ~seed:(Int64.of_int seed) () in
  let o =
    Session.run ~ppf:Util.quiet
      { Session.off with Session.profile = true }
      cfg
      (fun rt ->
        ignore
          (Workloads.Fixtures.racy_counter rt ~threads:4 ~increments:10
            : Workloads.Fixtures.result))
  in
  Digest.string
    (String.concat ""
       (List.map
          (fun (s : Sim.Span.span) ->
            Printf.sprintf "%d %d %b %s %s %d %d %d %d %.9f %.9f\n" s.id
              s.parent s.async (Sim.Span.kind_name s.kind) s.label s.node
              s.tid s.obj s.arg s.t0 s.t1)
          (Scope.Profile.spans (Option.get o.Session.profile))))

let test_span_sweep () = sweep "span trace" span_digest

let suite =
  [
    Alcotest.test_case "racy fixture reports reproducible over 10 seeds"
      `Quick test_racy_fixture_sweep;
    Alcotest.test_case
      "read-mostly + faults reports reproducible over 10 seeds" `Quick
      test_read_mostly_sweep;
    Alcotest.test_case
      "skewed sor under hybrid balancing reproducible over 10 seeds" `Quick
      test_balanced_sor_sweep;
    Alcotest.test_case
      "pipelined sor + faults + coalescing reproducible over 10 seeds" `Quick
      test_async_sor_sweep;
    Alcotest.test_case "sor + crash injection reproducible over 10 seeds"
      `Quick test_crashed_sor_sweep;
    Alcotest.test_case
      "serving + admission + balancing + crashes reproducible over 10 seeds"
      `Quick test_served_sweep;
    Alcotest.test_case
      "watched serving + crashes series reproducible over 10 seeds" `Quick
      test_watched_serve_sweep;
    Alcotest.test_case "span traces reproducible over 10 seeds" `Quick
      test_span_sweep;
  ]
