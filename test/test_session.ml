(* The run harness.  One inertness matrix: for every workload, a run with
   every layer off is byte-identical to a bare [Cluster.run_value], and
   each observing layer (profile, watch, flight recorder, sanitizer)
   leaves the base report byte-identical.  Plus the CLI's exit codes
   (typed failure, usage errors) and section printing, end to end. *)

module A = Amber
module W = Workloads

type workload = {
  name : string;
  nodes : int;
  faults : Hw.Ethernet.faults option;
  body : A.Runtime.t -> unit;
}

let grid = W.Sor_core.with_size W.Sor_core.default ~rows:16 ~cols:32

let lossy =
  {
    Hw.Ethernet.drop_prob = 0.02;
    dup_prob = 0.01;
    delay_prob = 0.0;
    delay_spike = 0.0;
    stalls = [];
  }

let workloads =
  let w ?(nodes = 3) ?faults name body = { name; nodes; faults; body } in
  [
    w "sor amber" (fun rt -> ignore (W.Sor_amber.run rt grid ~iters:3 ()));
    w "sor async" (fun rt ->
        ignore (W.Sor_amber.run_pipelined rt grid ~iters:3 ()));
    w "sor ivy" (fun rt -> ignore (W.Sor_ivy.run rt grid ~iters:3 ()));
    w "sor seq" (fun rt -> ignore (W.Sor_seq.run rt grid ~iters:3));
    w "workqueue" (fun rt ->
        ignore
          (W.Work_queue.run rt
             {
               W.Work_queue.items = 40;
               work_cpu = 10e-3;
               batch = 4;
               workers_per_node = 2;
               move_queue_at = Some 15;
             }));
    w "matmul" (fun rt ->
        ignore
          (W.Matmul.run rt
             {
               W.Matmul.n = 24;
               block = 12;
               replicate = true;
               workers_per_node = 2;
               flop_cpu = 5e-6;
             }));
    w "tsp" (fun rt ->
        ignore
          (W.Tsp.run rt
             {
               W.Tsp.cities = 7;
               seed = 7;
               workers_per_node = 2;
               expand_cpu = 50e-6;
               centralize = false;
               skew = false;
             }));
    w "readmostly" ~faults:lossy (fun rt ->
        ignore
          (W.Read_mostly.run rt
             {
               W.Read_mostly.objects = 3;
               readers_per_node = 2;
               reads_per_reader = 12;
               write_every = 6;
               replicate = true;
             }));
    w "serve" ~nodes:4 (fun rt ->
        ignore
          (Serve.run rt
             {
               Serve.default_cfg with
               Serve.arrival = Serve.Trafficgen.Poisson 300.0;
               duration = 0.1;
               keys = 16;
               admission = Some Serve.default_admission;
             }));
    w "racy fixture" ~nodes:4 (fun rt ->
        ignore (W.Fixtures.racy_counter rt ~threads:4 ~increments:10));
  ]

let config ?crashes ?crash_rate ?coalesce w =
  A.Config.make ~nodes:w.nodes ~cpus:2 ~seed:42L ?faults:w.faults ?crashes
    ?crash_rate ?coalesce ()

(* The body's own snapshot of the report, taken as it returns. *)
let captured w rt =
  w.body rt;
  A.Stats_report.capture rt

let text r = Format.asprintf "%a" A.Stats_report.pp r
let base r = text { r with A.Stats_report.extra = [] }

let in_session ?cfg layers w =
  let cfg = Option.value cfg ~default:(config w) in
  let o = Session.run ~ppf:Util.quiet layers cfg (captured w) in
  Result.get_ok o.Session.result

let flight_dir =
  Filename.concat (Filename.get_temp_dir_name ()) "amber-session-flight"

let observers =
  [
    ("profile", { Session.off with Session.profile = true });
    ( "watch",
      {
        Session.off with
        Session.watch = Some { Session.interval = 5e-3; slo = [] };
      } );
    ("flight recorder", { Session.off with Session.flight = Some flight_dir });
    ("sanitizer", { Session.off with Session.sanitize = true });
  ]

let test_inert w () =
  let bare = A.Cluster.run_value (config w) (captured w) in
  (* Every layer off, including the balancer [run] always starts with its
     inert default: the printed report is the bare one, byte for byte. *)
  let buf = Buffer.create 4096 in
  ignore
    (Session.run ~ppf:(Format.formatter_of_buffer buf)
       { Session.off with Session.report = true }
       (config w) w.body);
  Alcotest.(check string) "all off: full report" ("\n" ^ text bare)
    (Buffer.contents buf);
  List.iter
    (fun (name, layers) ->
      Alcotest.(check string)
        (name ^ " leaves the base report")
        (base bare)
        (base (in_session layers w)))
    observers;
  (* Explicitly empty crash options and no coalescing arm nothing. *)
  let cfg = config ~crashes:[] ~crash_rate:0.0 ?coalesce:None w in
  let explicit = in_session ~cfg Session.off w in
  Alcotest.(check string) "explicit no-crash, no-coalesce" (text bare)
    (text explicit);
  Alcotest.(check bool) "crashes not enabled" false
    (A.Config.crashes_enabled cfg);
  let get = A.Stats_report.get explicit in
  Alcotest.(check (pair (float 0.0) (float 0.0)))
    "no coalescing tracked" (0.0, 0.0)
    (get "topaz.coalesce.eligible", get "topaz.coalesce.frames")

(* --- the CLI, end to end -------------------------------------------------- *)

let cli = Util.cli

(* A typed failure ends the run with exit 5, after the sections of the
   layers already attached; the watch tick is stopped, so the run
   quiesces instead of ticking forever. *)
let test_cli_fail_stop () =
  let status, lines =
    cli
      [ "sor"; "-n"; "4"; "-p"; "4"; "--rows"; "61"; "--cols"; "421";
        "--iters"; "10"; "--crash"; "3@0.2s"; "--sanitize"; "--watch";
        "--flight-recorder"; flight_dir ]
  in
  Alcotest.(check int) "exit 5" 5 status;
  List.iter
    (fun prefix ->
      Alcotest.(check bool) (prefix ^ " printed") true
        (List.exists (String.starts_with ~prefix) lines))
    [ "failed: Rpc.Node_dead"; "AmberSan:"; "flight recorder:" ]

(* The balancer's daemons die with the crashed node; stopping them must
   not turn the typed failure into an internal error. *)
let test_cli_balanced_fail_stop () =
  let status, lines =
    cli
      [ "sor"; "-n"; "4"; "-p"; "4"; "--rows"; "16"; "--cols"; "64";
        "--iters"; "4"; "--skew"; "--balance=hybrid"; "--steal";
        "--crash"; "3@0.02s" ]
  in
  Alcotest.(check int) "exit 5" 5 status;
  Alcotest.(check bool) "typed failure printed" true
    (List.exists (String.starts_with ~prefix:"failed: Rpc.Node_dead") lines)

(* A run whose engine drains with the main thread unfinished is a typed
   failure too: exit 5 and a [failed:] line, not an internal error. *)
let test_deadlock_exits_5 () =
  let buf = Buffer.create 64 in
  let o =
    Session.run ~ppf:(Format.formatter_of_buffer buf) Session.off
      (A.Config.make ~nodes:1 ~cpus:1 ())
      (fun _ -> Sim.Fiber.block (fun _ -> ()))
  in
  Alcotest.(check int) "exit 5" 5 o.Session.status;
  Alcotest.(check string) "typed failure printed"
    "failed: Amber.Cluster.Deadlock\n" (Buffer.contents buf)

(* A chase around a stale cycle through the home node fails typed: exit
   5 and a [failed:] line naming the object's address. *)
let test_chain_exhausted_exits_5 () =
  let buf = Buffer.create 256 in
  let o =
    Session.run ~ppf:(Format.formatter_of_buffer buf) Session.off
      (A.Config.make ~nodes:3 ~cpus:1 ())
      (fun rt ->
        let o = A.Api.create rt ~name:"ghost" () in
        A.Api.move_to rt o ~dest:2;
        let fwd n next =
          A.Descriptor.set_forwarded (A.Runtime.descriptors rt n)
            o.A.Aobject.addr next
        in
        fwd 0 1;
        fwd 1 0;
        A.Api.locate rt o)
  in
  Alcotest.(check int) "exit 5" 5 o.Session.status;
  Alcotest.(check bool) "typed failure printed" true
    (String.starts_with ~prefix:"failed: Aobject.Chain_exhausted { addr = 0x"
       (Buffer.contents buf))

let test_cli_usage_errors () =
  List.iter
    (fun args ->
      Alcotest.(check int) (String.concat " " args) 124 (fst (cli args)))
    [
      [ "sor"; "--nodes"; "0" ];
      [ "serve"; "--cpus=-1" ];
      [ "sor"; "--system"; "ivy"; "--async" ];
      [ "sor"; "--system"; "seq"; "--skew" ];
      [ "sor"; "--system"; "ivy"; "--sections"; "4" ];
      [ "sor"; "--system"; "seq"; "--balance"; "hybrid" ];
      [ "sor"; "--system"; "ivy"; "--steal" ];
      [ "sor"; "--balance=steal_only" ];
      [ "trace"; "--category"; "move" ];
      [ "sor"; "--sections"; "0" ];
      [ "sor"; "--sections"; "5000"; "--rows"; "4"; "--cols"; "8" ];
      [ "sor"; "-n"; "4"; "--cols"; "4" ];
      [ "sor"; "--rows"; "0" ];
      [ "sor"; "--cols"; "0" ];
      [ "sor"; "--iters"; "0" ];
      [ "sor"; "--system"; "seq"; "--iters"; "0" ];
      [ "sor"; "--system"; "ivy"; "--iters"; "0" ];
      [ "workqueue"; "--items"; "0" ];
      [ "workqueue"; "--batch"; "0" ];
      [ "workqueue"; "--workers"; "0" ];
      [ "matmul"; "--size"; "0" ];
      [ "matmul"; "--block"; "0" ];
      [ "matmul"; "--size"; "10"; "--block"; "4" ];
      [ "tsp"; "--cities"; "2" ];
      [ "tsp"; "--cities"; "20" ];
      [ "sor"; "--drop"; "1.5" ];
      [ "sor"; "--drop=-0.1" ];
      [ "sor"; "--stall"; "1:0.5:0.2" ];
      [ "sor"; "--crash"; "0@0.1" ];
      [ "sor"; "--crash"; "9@0.1" ];
      [ "sor"; "--crash"; "1@0.1"; "--crash"; "1@0.2" ];
      [ "sor"; "--crash"; "1@0.5:0.2" ];
      [ "sor"; "--crash=1@-0.5" ];
      [ "sor"; "--crash-rate"; "1.5" ];
      [ "sor"; "--crash-rate=-0.5" ];
      [ "sor"; "--steal"; "--gossip-interval"; "0" ];
      [ "sor"; "--steal"; "--gossip-interval=-1" ];
      [ "sor"; "--watch"; "--watch-interval"; "0" ];
      [ "readmostly"; "--objects"; "0" ];
      [ "readmostly"; "--reads"; "0" ];
      [ "readmostly"; "--readers=-1" ];
      [ "fixture"; "--threads=-2" ];
    ]

(* Under --report the profile and sanitizer sections print inside the
   report only: one header each, and no standalone copy. *)
let test_cli_sections_once () =
  let status, lines =
    cli
      [ "sor"; "-n"; "2"; "-p"; "2"; "--rows"; "16"; "--cols"; "32";
        "--iters"; "2"; "--report"; "--profile"; "--sanitize" ]
  in
  Alcotest.(check int) "exit 0" 0 status;
  let count p = List.length (List.filter p lines) in
  let has sub l = Util.contains l sub in
  Alcotest.(check int) "profile: header" 1 (count (String.equal "profile:"));
  Alcotest.(check int) "sanitizer: header" 1
    (count (String.equal "sanitizer:"));
  Alcotest.(check int) "one span summary" 1 (count (has " spans over "));
  Alcotest.(check int) "no standalone verdict" 0
    (count (String.starts_with ~prefix:"AmberSan:"));
  Alcotest.(check int) "critical path still printed" 1
    (count (String.starts_with ~prefix:"critical path over"))

let suite =
  List.map
    (fun w ->
      Alcotest.test_case (w.name ^ ": layers inert") `Quick (test_inert w))
    workloads
  @ [
      Alcotest.test_case "cli: fail-stop exits 5" `Quick test_cli_fail_stop;
      Alcotest.test_case "cli: balanced fail-stop exits 5" `Quick
        test_cli_balanced_fail_stop;
      Alcotest.test_case "deadlock exits 5" `Quick test_deadlock_exits_5;
      Alcotest.test_case "chain exhausted exits 5" `Quick
        test_chain_exhausted_exits_5;
      Alcotest.test_case "cli: usage errors exit 124" `Quick
        test_cli_usage_errors;
      Alcotest.test_case "cli: each section prints once" `Quick
        test_cli_sections_once;
    ]
