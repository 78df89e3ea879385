(* amber_sim — command-line driver for the Amber reproduction.

   Subcommands:
     sor         run Red/Black SOR (amber | ivy | seq) with custom parameters
     workqueue   run the distributed work-queue workload
     matmul      run the replicated matrix multiply
     tsp         run branch-and-bound TSP with work stealing
     readmostly  run the read-mostly workload (replicas vs remote invokes)
     serve       serve open-loop traffic with per-class SLO reporting
     trace       run a small scenario with protocol tracing and dump it
     fixture     run a seeded sanitizer fixture
     check       model-check a protocol fixture

   Every workload subcommand runs through [Session], which attaches the
   optional layers (sanitizer, profiler, watch, flight recorder,
   balancer) and prints their sections; this file only maps flags onto
   a [Session.t].  Exit status: 0; 3 on sanitizer findings; 4 when an
   SLO burns; 5 when a typed failure (node death, object loss, an
   exhausted forwarding chain, overload, failed join, deadlock) ends the
   run; 124 on a usage error.

   Examples:
     amber_sim sor --nodes 8 --cpus 4 --iters 20
     amber_sim sor --system ivy --nodes 4 --rows 32 --cols 64
     amber_sim sor --profile --jsonl --out trace.json
     amber_sim serve --admission --watch --slo 'serve.latency_ms.p99<=60'
     amber_sim workqueue --items 400 --move-at 150 *)

open Cmdliner

let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when x > 0.0 -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected a positive number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let nodes_arg =
  Arg.(
    value & opt positive 4
    & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Cluster nodes.")

let cpus_arg =
  Arg.(
    value & opt positive 4
    & info [ "cpus"; "p" ] ~docv:"P" ~doc:"CPUs per node.")

(* --- fault injection (shared by every subcommand) ------------------------ *)

let stall_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ n; f; u ] -> (
      try
        Ok
          {
            Hw.Ethernet.node = int_of_string (String.trim n);
            from_t = float_of_string (String.trim f);
            until_t = float_of_string (String.trim u);
          }
      with _ -> Error (`Msg "stall: expected NODE:FROM:UNTIL"))
    | _ -> Error (`Msg "stall: expected NODE:FROM:UNTIL")
  in
  let print ppf (s : Hw.Ethernet.stall) =
    Format.fprintf ppf "%d:%g:%g" s.Hw.Ethernet.node s.Hw.Ethernet.from_t
      s.Hw.Ethernet.until_t
  in
  Arg.conv (parse, print)

let faults_term =
  let drop =
    Arg.(
      value & opt float 0.0
      & info [ "drop" ] ~docv:"P" ~doc:"Per-packet loss probability, [0,1).")
  in
  let dup =
    Arg.(
      value & opt float 0.0
      & info [ "dup" ] ~docv:"P"
          ~doc:"Per-packet duplicate-delivery probability, [0,1).")
  in
  let delay_prob =
    Arg.(
      value & opt float 0.0
      & info [ "delay-prob" ] ~docv:"P"
          ~doc:"Per-packet latency-spike probability, [0,1).")
  in
  let delay_spike =
    Arg.(
      value & opt float 10e-3
      & info [ "delay-spike" ] ~docv:"SECONDS"
          ~doc:"Extra delivery latency on a spike (default 10 ms).")
  in
  let stalls =
    Arg.(
      value
      & opt_all stall_conv []
      & info [ "stall" ] ~docv:"NODE:FROM:UNTIL"
          ~doc:
            "Hold packets arriving at NODE between virtual times FROM and \
             UNTIL (seconds); repeatable.")
  in
  let mk drop_prob dup_prob delay_prob delay_spike stalls =
    { Hw.Ethernet.drop_prob; dup_prob; delay_prob; delay_spike; stalls }
  in
  Term.(const mk $ drop $ dup $ delay_prob $ delay_spike $ stalls)

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sim-seed" ] ~docv:"S"
        ~doc:
          "Simulation seed (also seeds the fault pattern; same seed, same \
           faults).")

(* --- crash injection (shared by every subcommand) ------------------------ *)

let crash_conv =
  (* NODE@T[:RESTART]; times are virtual seconds and accept a trailing
     "s" (e.g. 3@0.2s:0.6s). *)
  let seconds s =
    let s = String.trim s in
    let n = String.length s in
    let s = if n > 0 && s.[n - 1] = 's' then String.sub s 0 (n - 1) else s in
    float_of_string s
  in
  let parse s =
    match String.index_opt s '@' with
    | None -> Error (`Msg "crash: expected NODE@T[:RESTART]")
    | Some i -> (
      try
        let cnode = int_of_string (String.trim (String.sub s 0 i)) in
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        match String.split_on_char ':' rest with
        | [ t ] -> Ok { Amber.Config.cnode; at = seconds t; restart = None }
        | [ t; r ] ->
          Ok { Amber.Config.cnode; at = seconds t; restart = Some (seconds r) }
        | _ -> Error (`Msg "crash: expected NODE@T[:RESTART]")
      with _ -> Error (`Msg "crash: expected NODE@T[:RESTART]"))
  in
  let print ppf (c : Amber.Config.crash) =
    match c.Amber.Config.restart with
    | None ->
      Format.fprintf ppf "%d@@%g" c.Amber.Config.cnode c.Amber.Config.at
    | Some r ->
      Format.fprintf ppf "%d@@%g:%g" c.Amber.Config.cnode c.Amber.Config.at r
  in
  Arg.conv (parse, print)

let crashes_term =
  let crashes =
    Arg.(
      value
      & opt_all crash_conv []
      & info [ "crash" ] ~docv:"NODE@T[:RESTART]"
          ~doc:
            "Crash NODE at virtual time T (seconds; values may carry a \
             trailing \"s\").  With :RESTART the outage is transient — the \
             node freezes, drops its packets, and resumes at RESTART.  \
             Without it the crash is fail-stop: the node's threads and \
             unreplicated objects are lost and replicated objects are \
             re-mastered on a surviving replica.  Repeatable; at most one \
             crash per node, and node 0 is not crashable.")
  in
  let rate =
    Arg.(
      value & opt float 0.0
      & info [ "crash-rate" ] ~docv:"P"
          ~doc:
            "Probabilistic crash mode: each node > 0 independently suffers \
             one transient crash with probability P, at a seed-derived \
             virtual time (same seed, same crashes).")
  in
  let mk crashes rate = (crashes, rate) in
  Term.(const mk $ crashes $ rate)

(* [Amber.Config.validate] owns the rules, the fault and crash rules
   among them; a configuration it rejects is a usage error. *)
let config_term =
  let mk nodes cpus faults seed (crashes, crash_rate) =
    let seed =
      match seed with
      | Some s -> Int64.of_int s
      | None -> Amber.Config.default.Amber.Config.seed
    in
    let cfg =
      Amber.Config.make ~nodes ~cpus ~seed ~faults ~crashes ~crash_rate ()
    in
    match Amber.Config.validate cfg with
    | () -> Ok cfg
    | exception Invalid_argument e -> Error (`Msg e)
  in
  Term.(
    term_result ~usage:true
      (const mk $ nodes_arg $ cpus_arg $ faults_term $ seed_arg $ crashes_term))

(* --- run-harness layers (mapped onto a Session.t) ------------------------ *)

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Run under AmberSan: report data races, lock-order cycles and \
           coherence drift; exit 3 on any finding.")

let report_arg =
  Arg.(
    value & flag
    & info [ "report" ]
        ~doc:
          "Print the full cluster report after the run: per-node \
           utilization, protocol counters and one section per attached \
           layer.")

let balance_term =
  let policy =
    let policy_conv =
      Arg.enum
        [
          ("off", Balance.Rebalancer.Off);
          ("affinity", Balance.Rebalancer.Affinity);
          ("hybrid", Balance.Rebalancer.Hybrid);
        ]
    in
    Arg.(
      value
      & opt policy_conv Balance.Rebalancer.Off
      & info [ "balance" ] ~docv:"POLICY"
          ~doc:
            "Adaptive placement policy: $(b,off), $(b,affinity) or \
             $(b,hybrid) (affinity + load spreading).")
  in
  let steal =
    Arg.(
      value & flag
      & info [ "steal" ]
          ~doc:
            "Let idle nodes steal runnable unbound threads from loaded \
             peers.")
  in
  let gossip =
    Arg.(
      value & opt positive_float 10e-3
      & info [ "gossip-interval" ] ~docv:"SECONDS"
          ~doc:"Load-board gossip / steal tick period (default 10 ms).")
  in
  let mk policy steal gossip_interval =
    { Balance.Driver.policy; steal; gossip_interval }
  in
  Term.(const mk $ policy $ steal $ gossip)

let profile_term ~jsonl =
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Enable causal span tracing and print the virtual-time profile \
             and critical-path decomposition after the run.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the span trace as Chrome trace-event JSON (loadable in \
             Perfetto) to $(docv).  Implies $(b,--profile).")
  in
  let jsonl =
    if jsonl then
      Arg.(
        value & flag
        & info [ "jsonl" ]
            ~doc:
              "Also dump every span as one JSON object per line on stdout.  \
               Implies $(b,--profile).")
    else Term.const false
  in
  let mk profile out jsonl = (profile || out <> None || jsonl, out, jsonl) in
  Term.(const mk $ profile $ out $ jsonl)

let slo_conv =
  let parse s =
    match Watch.Slo.parse s with Ok r -> Ok r | Error e -> Error (`Msg e)
  in
  let print ppf (r : Watch.Slo.rule) =
    Format.pp_print_string ppf r.Watch.Slo.text
  in
  Arg.conv (parse, print)

let watch_term =
  let watch_flag =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "Enable continuous telemetry: sample the scheduler, RPC, \
             replication, balance and serve instruments on a recurring \
             virtual-time tick into bounded time series, summarized in the \
             report's $(b,watch:) section and exportable with \
             $(b,--watch-out) / $(b,--watch-csv).")
  in
  let interval =
    Arg.(
      value & opt positive_float 5e-3
      & info [ "watch-interval" ] ~docv:"SECONDS"
          ~doc:"Sampling tick period, virtual seconds (default 5 ms).")
  in
  let watch_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "watch-out" ] ~docv:"FILE"
          ~doc:
            "Write every sampled series to $(docv) as JSON Lines (one \
             series object per line).  Implies $(b,--watch).")
  in
  let watch_csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "watch-csv" ] ~docv:"FILE"
          ~doc:
            "Write every sampled series to $(docv) as long-format CSV \
             (series,node,kind,time_s,value).  Implies $(b,--watch).")
  in
  let slo =
    Arg.(
      value
      & opt_all slo_conv []
      & info [ "slo" ] ~docv:"RULE"
          ~doc:
            "Multi-window SLO burn-rate rule over a sampled series, e.g. \
             $(b,serve.latency_ms.p99<=60) or \
             $(b,serve.latency_ms.rate>=800\\@0.2) (\\@BUDGET is the \
             allowed bad-sample fraction, default 0.1).  The run exits 4 \
             when both the short and the long trailing windows burn the \
             budget at rate >= 1.  Repeatable; implies $(b,--watch).")
  in
  let flight =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-recorder" ] ~docv:"DIR"
          ~doc:
            "Arm the failure flight recorder: on any typed failure (node \
             death, object loss, first overload shed, sanitizer finding) \
             dump a postmortem JSON artifact — the trailing trace window \
             plus the victim node's final spans — under $(docv).")
  in
  let mk watch interval out csv slo flight =
    let on = watch || out <> None || csv <> None || slo <> [] in
    ((if on then Some { Session.interval; slo } else None), out, csv, flight)
  in
  Term.(const mk $ watch_flag $ interval $ watch_out $ watch_csv $ slo $ flight)

(* The layers a subcommand offers; the rest stay off. *)
let session_term ?(report = false) ?(balance = false) ?(profile = false)
    ?(jsonl = false) ?(watch = false) () =
  let opt on term off = if on then term else Term.const off in
  let mk sanitize report balance (profile, out, jsonl)
      (watch, watch_out, watch_csv, flight) =
    {
      Session.sanitize;
      report;
      balance;
      profile;
      out;
      jsonl;
      watch;
      watch_out;
      watch_csv;
      flight;
    }
  in
  Term.(
    const mk $ sanitize_arg
    $ opt report report_arg false
    $ opt balance balance_term Balance.Driver.default_cfg
    $ opt profile (profile_term ~jsonl) (false, None, false)
    $ opt watch watch_term (None, None, None, None))

let status (o : _ Session.outcome) = o.Session.status

(* --- sor ---------------------------------------------------------------- *)

let sor_cmd =
  let system =
    Arg.(
      value
      & opt (enum [ ("amber", `Amber); ("ivy", `Ivy); ("seq", `Seq) ]) `Amber
      & info [ "system" ] ~docv:"SYSTEM"
          ~doc:"Implementation to run: $(b,amber), $(b,ivy) or $(b,seq).")
  in
  let rows =
    Arg.(value & opt positive 122 & info [ "rows" ] ~docv:"R" ~doc:"Grid rows.")
  in
  let cols =
    Arg.(
      value & opt positive 842 & info [ "cols" ] ~docv:"C" ~doc:"Grid columns.")
  in
  let iters =
    Arg.(
      value & opt positive 10
      & info [ "iters"; "i" ] ~docv:"I" ~doc:"Iterations.")
  in
  let sections =
    Arg.(
      value
      & opt (some positive) None
      & info [ "sections" ] ~docv:"S"
          ~doc:"Section count (amber only); at most the column count.")
  in
  let no_overlap =
    Arg.(
      value & flag
      & info [ "no-overlap" ]
          ~doc:"Disable overlapping of edge exchange with computation.")
  in
  let skew =
    Arg.(
      value & flag
      & info [ "skew" ]
          ~doc:
            "Pathological placement: create every section on node 0 \
             (amber only; a load-balancer stress input).")
  in
  let async_flag =
    Arg.(
      value & flag
      & info [ "async" ]
          ~doc:
            "Run the pipelined variant (amber only): futures-based edge \
             exchange and convergence barrier overlapping the interior \
             computation.")
  in
  let coalesce_window =
    Arg.(
      value
      & opt (some float) None
      & info [ "coalesce-window" ] ~docv:"SECONDS"
          ~doc:
            "Enable wire-level datagram coalescing with the given flush \
             window (e.g. 200e-6).")
  in
  let run cfg s system rows cols iters sections no_overlap skew async coalesce =
    let bal = s.Session.balance in
    let amber_only =
      [
        ("--async", async);
        ("--skew", skew);
        ("--sections", sections <> None);
        ("--balance", bal.Balance.Driver.policy <> Balance.Rebalancer.Off);
        ("--steal", bal.Balance.Driver.steal);
      ]
    in
    let nsections =
      Option.value sections
        ~default:
          (Workloads.Sor_amber.default_sections ~nodes:cfg.Amber.Config.nodes)
    in
    match (system, List.find_opt snd amber_only) with
    | (`Seq | `Ivy), Some (flag, _) ->
      `Error (true, flag ^ " applies to --system amber only")
    | `Amber, _ when nsections > cols ->
      `Error
        ( true,
          match sections with
          | Some n -> Printf.sprintf "--sections %d exceeds --cols %d" n cols
          | None ->
            Printf.sprintf "the default %d sections exceed --cols %d" nsections
              cols )
    | _ ->
      let cfg =
        match coalesce with
        | Some w when w > 0.0 ->
          {
            cfg with
            Amber.Config.rpc_coalesce = Some { Topaz.Rpc.flush_window = w };
          }
        | Some _ | None -> cfg
      in
      let nodes = cfg.Amber.Config.nodes in
      let cpus = cfg.Amber.Config.cpus_per_node in
      let p = Workloads.Sor_core.with_size Workloads.Sor_core.default ~rows ~cols in
      let speedup elapsed =
        Workloads.Sor_seq.predicted_elapsed p ~iters /. elapsed
      in
      let sor_cfg rt =
        let c = Workloads.Sor_amber.default_cfg rt in
        let c =
          match sections with
          | Some s -> { c with Workloads.Sor_amber.sections = s }
          | None -> c
        in
        let c =
          if skew then
            { c with Workloads.Sor_amber.placement = Some (fun _ -> 0) }
          else c
        in
        { c with Workloads.Sor_amber.overlap = not no_overlap }
      in
      (* Each system's body returns the printer of its own summary. *)
      let body : Amber.Runtime.t -> unit -> unit =
        match system with
        | `Seq ->
          fun rt ->
            let r = Workloads.Sor_seq.run rt p ~iters in
            fun () ->
              Printf.printf
                "sequential: %d iterations in %.3f virtual s (checksum %.6g)\n"
                r.Workloads.Sor_seq.iterations
                r.Workloads.Sor_seq.compute_elapsed
                r.Workloads.Sor_seq.checksum
        | `Ivy ->
          fun rt ->
            let r = Workloads.Sor_ivy.run rt p ~iters () in
            fun () ->
              Printf.printf
                "ivy %dNx%dP: compute %.3f virtual s, speedup %.2f, checksum \
                 %.6g\n"
                nodes cpus r.Workloads.Sor_ivy.compute_elapsed
                (speedup r.Workloads.Sor_ivy.compute_elapsed)
                r.Workloads.Sor_ivy.checksum;
              Printf.printf
                "  faults: %d read, %d write; invalidations: %d; %d bytes\n"
                r.Workloads.Sor_ivy.read_faults r.Workloads.Sor_ivy.write_faults
                r.Workloads.Sor_ivy.invalidations
                r.Workloads.Sor_ivy.transfer_bytes
        | `Amber ->
          fun rt ->
            let program, label =
              if async then (Workloads.Sor_amber.run_pipelined, "amber-async")
              else (Workloads.Sor_amber.run, "amber")
            in
            let r = program rt p ~cfg:(sor_cfg rt) ~iters () in
            fun () ->
              Printf.printf
                "%s %dNx%dP: compute %.3f virtual s, speedup %.2f, checksum \
                 %.6g\n"
                label nodes cpus r.Workloads.Sor_amber.compute_elapsed
                (speedup r.Workloads.Sor_amber.compute_elapsed)
                r.Workloads.Sor_amber.checksum;
              Printf.printf
                "  remote invocations: %d, thread migrations: %d%s\n"
                r.Workloads.Sor_amber.remote_invocations
                r.Workloads.Sor_amber.thread_migrations
                (if async then
                   Printf.sprintf ", async invocations: %d"
                     r.Workloads.Sor_amber.async_invocations
                 else "")
      in
      `Ok (status (Session.run ~print:(fun print -> print ()) s cfg body))
  in
  let term =
    Term.(
      ret
        (const run $ config_term
        $ session_term ~report:true ~balance:true ~profile:true ~jsonl:true
            ~watch:true ()
        $ system $ rows $ cols $ iters $ sections $ no_overlap $ skew
        $ async_flag $ coalesce_window))
  in
  Cmd.v (Cmd.info "sor" ~doc:"Run Red/Black SOR (the paper's §6 application).")
    term

(* --- workqueue ----------------------------------------------------------- *)

let workqueue_cmd =
  let items =
    Arg.(
      value & opt positive 200 & info [ "items" ] ~docv:"N" ~doc:"Work items.")
  in
  let batch =
    Arg.(
      value & opt positive 4
      & info [ "batch" ] ~docv:"B" ~doc:"Items per fetch.")
  in
  let workers =
    Arg.(
      value & opt positive 4
      & info [ "workers" ] ~docv:"W" ~doc:"Worker threads per node.")
  in
  let move_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "move-at" ] ~docv:"K"
          ~doc:"Migrate the queue after K items are taken.")
  in
  let run cfg s items batch workers move_at =
    let print (r : Workloads.Work_queue.result) =
      Printf.printf "processed %d items in %.3f virtual s\n"
        r.Workloads.Work_queue.processed r.Workloads.Work_queue.elapsed;
      Array.iteri
        (fun node count -> Printf.printf "  node %d: %d items\n" node count)
        r.Workloads.Work_queue.per_node;
      Printf.printf "queue finished on node %d\n"
        r.Workloads.Work_queue.queue_final_node
    in
    status
      (Session.run ~print s cfg (fun rt ->
           Workloads.Work_queue.run rt
             {
               Workloads.Work_queue.items;
               work_cpu = 10e-3;
               batch;
               workers_per_node = workers;
               move_queue_at = move_at;
             }))
  in
  let term =
    Term.(
      const run $ config_term $ session_term ~report:true () $ items $ batch
      $ workers $ move_at)
  in
  Cmd.v
    (Cmd.info "workqueue" ~doc:"Run the distributed work-queue workload.")
    term

(* --- matmul -------------------------------------------------------------- *)

let matmul_cmd =
  let n =
    Arg.(
      value & opt positive 96
      & info [ "size" ] ~docv:"N" ~doc:"Matrix dimension.")
  in
  let block =
    Arg.(
      value & opt positive 24
      & info [ "block" ] ~docv:"B" ~doc:"Block edge; must divide the size.")
  in
  let no_replicate =
    Arg.(
      value & flag
      & info [ "no-replicate" ]
          ~doc:"Keep A and B on node 0 instead of replicating.")
  in
  let run cfg s n block no_replicate =
    if n mod block <> 0 then
      `Error
        (true, Printf.sprintf "--block %d does not divide --size %d" block n)
    else
      let mcfg =
        {
          Workloads.Matmul.n;
          block;
          replicate = not no_replicate;
          workers_per_node = cfg.Amber.Config.cpus_per_node;
          flop_cpu = 5e-6;
        }
      in
      let want = Workloads.Matmul.reference_checksum mcfg in
      let print (r : Workloads.Matmul.result) =
        let ok =
          Float.abs (r.Workloads.Matmul.checksum -. want) <= 1e-6 *. want
        in
        Printf.printf
          "matmul %dx%d (%s): %.3f virtual s, %d remote invocations, %d copies \
           %s\n"
          n n
          (if no_replicate then "no replication" else "replicated inputs")
          r.Workloads.Matmul.elapsed r.Workloads.Matmul.remote_invocations
          r.Workloads.Matmul.copies
          (if ok then "(correct)" else "(WRONG)")
      in
      `Ok
        (status
           (Session.run ~print s cfg (fun rt -> Workloads.Matmul.run rt mcfg)))
  in
  let term =
    Term.(
      ret
        (const run $ config_term $ session_term () $ n $ block $ no_replicate))
  in
  Cmd.v (Cmd.info "matmul" ~doc:"Run the replicated matrix multiply.") term

(* --- tsp ----------------------------------------------------------------- *)

let tsp_cmd =
  let cities =
    Arg.(
      value & opt int 10
      & info [ "cities" ] ~docv:"C" ~doc:"Problem size (3-13).")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"S" ~doc:"Instance seed.")
  in
  let central =
    Arg.(
      value & flag
      & info [ "central" ] ~doc:"One shared pool instead of per-node pools.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ] ~doc:"Verify the result against brute force (slow).")
  in
  let skew =
    Arg.(
      value & flag
      & info [ "skew" ]
          ~doc:
            "Pathological placement: leave the per-node pools and bound \
             caches on node 0 (a load-balancer stress input).")
  in
  let run cfg s cities seed central check skew =
    if cities < 3 || cities > 13 then
      `Error (true, Printf.sprintf "--cities %d is outside 3..13" cities)
    else
      let tcfg =
        {
          Workloads.Tsp.cities;
          seed;
          workers_per_node = cfg.Amber.Config.cpus_per_node;
          expand_cpu = 50e-6;
          centralize = central;
          skew;
        }
      in
      let print (r : Workloads.Tsp.result) =
        Printf.printf
          "tsp %d cities (%s): best tour cost %d in %.3f virtual s\n" cities
          (if central then "central pool" else "per-node pools")
          r.Workloads.Tsp.best_cost r.Workloads.Tsp.elapsed;
        Printf.printf "  tour: %s\n"
          (String.concat " -> "
             (Array.to_list
                (Array.map string_of_int r.Workloads.Tsp.best_tour)));
        Printf.printf
          "  %d expansions, %d pruned, %d steals, %d remote invocations\n"
          r.Workloads.Tsp.expansions r.Workloads.Tsp.pruned
          r.Workloads.Tsp.steals r.Workloads.Tsp.remote_invocations;
        if check then begin
          let want = Workloads.Tsp.brute_force tcfg in
          Printf.printf "  brute force says %d: %s\n" want
            (if want = r.Workloads.Tsp.best_cost then "OPTIMAL" else "WRONG")
        end
      in
      `Ok
        (status
           (Session.run ~print s cfg (fun rt -> Workloads.Tsp.run rt tcfg)))
  in
  let term =
    Term.(
      ret
        (const run $ config_term $ session_term ~balance:true () $ cities
        $ seed $ central $ check $ skew))
  in
  Cmd.v
    (Cmd.info "tsp" ~doc:"Run parallel branch-and-bound TSP with work stealing.")
    term

(* --- readmostly ----------------------------------------------------------- *)

let readmostly_cmd =
  let objects =
    Arg.(
      value & opt positive 4
      & info [ "objects" ] ~docv:"N" ~doc:"Shared objects (mastered on node 0).")
  in
  let readers =
    Arg.(
      value & opt positive 2
      & info [ "readers" ] ~docv:"R" ~doc:"Reader threads per node.")
  in
  let reads =
    Arg.(
      value & opt positive 40
      & info [ "reads" ] ~docv:"K" ~doc:"Read invocations per reader.")
  in
  let write_every =
    Arg.(
      value & opt int 10
      & info [ "write-every" ] ~docv:"K"
          ~doc:
            "One write round (one write per object) after every K reads per \
             reader; 0 disables writes.")
  in
  let replicate =
    Arg.(
      value & flag
      & info [ "replicate" ]
          ~doc:
            "Install a read replica of every object on every node (and \
             refresh after each write round).")
  in
  let run cfg s objects readers reads write_every replicate =
    let print (r : Workloads.Read_mostly.result) =
      Printf.printf
        "read-mostly (%s): %d reads, %d writes in %.3f virtual s (checksum \
         %d)\n"
        (if replicate then "replicated" else "no replication")
        r.Workloads.Read_mostly.reads r.Workloads.Read_mostly.writes
        r.Workloads.Read_mostly.elapsed r.Workloads.Read_mostly.checksum;
      Printf.printf "  replica reads: %d, remote invocations: %d\n"
        r.Workloads.Read_mostly.replica_reads
        r.Workloads.Read_mostly.remote_invocations;
      let lat = r.Workloads.Read_mostly.read_latency in
      if Sim.Stats.Summary.count lat > 0 then
        Printf.printf "  remote-node read latency: mean %.1f us, p95 %.1f us\n"
          (Sim.Stats.Summary.mean lat *. 1e6)
          (Sim.Stats.Summary.percentile lat 95.0 *. 1e6)
    in
    status
      (Session.run ~print s cfg (fun rt ->
           Workloads.Read_mostly.run rt
             {
               Workloads.Read_mostly.objects;
               readers_per_node = readers;
               reads_per_reader = reads;
               write_every;
               replicate;
             }))
  in
  let term =
    Term.(
      const run $ config_term $ session_term ~report:true () $ objects
      $ readers $ reads $ write_every $ replicate)
  in
  Cmd.v
    (Cmd.info "readmostly"
       ~doc:
         "Run the read-mostly workload (read replicas vs remote invocations).")
    term

(* --- serve --------------------------------------------------------------- *)

let burst_conv =
  (* FACTOR:ON:OFF — on-phase rate multiplier plus mean on/off phase
     lengths in virtual seconds. *)
  let parse s =
    match String.split_on_char ':' s with
    | [ f; on; off ] -> (
      try Ok (float_of_string f, float_of_string on, float_of_string off)
      with _ -> Error (`Msg "burst: expected FACTOR:ON:OFF"))
    | _ -> Error (`Msg "burst: expected FACTOR:ON:OFF")
  in
  let print ppf (f, on, off) = Format.fprintf ppf "%g:%g:%g" f on off in
  Arg.conv (parse, print)

let mix_conv =
  (* read=W,write=W,compute=W (any subset; missing classes get weight 0). *)
  let parse s =
    try
      let mix =
        List.fold_left
          (fun m part ->
            match String.split_on_char '=' (String.trim part) with
            | [ "read"; w ] ->
              { m with Serve.Trafficgen.read = float_of_string w }
            | [ "write"; w ] ->
              { m with Serve.Trafficgen.write = float_of_string w }
            | [ "compute"; w ] ->
              { m with Serve.Trafficgen.compute = float_of_string w }
            | _ -> raise Exit)
          { Serve.Trafficgen.read = 0.0; write = 0.0; compute = 0.0 }
          (String.split_on_char ',' s)
      in
      Ok mix
    with _ -> Error (`Msg "classes: expected read=W,write=W,compute=W")
  in
  let print ppf (m : Serve.Trafficgen.mix) =
    Format.fprintf ppf "read=%g,write=%g,compute=%g" m.Serve.Trafficgen.read
      m.Serve.Trafficgen.write m.Serve.Trafficgen.compute
  in
  Arg.conv (parse, print)

let serve_cmd =
  let rps =
    Arg.(
      value & opt float 400.0
      & info [ "rps" ] ~docv:"RATE"
          ~doc:
            "Mean arrival rate, requests per virtual second (off-phase rate \
             when $(b,--burst) is given).")
  in
  let burst =
    Arg.(
      value
      & opt (some burst_conv) None
      & info [ "burst" ] ~docv:"FACTOR:ON:OFF"
          ~doc:
            "Bursty (Markov-modulated Poisson) arrivals: multiply the rate \
             by FACTOR during exponential on-phases of mean length ON \
             seconds, separated by off-phases of mean length OFF.")
  in
  let zipf =
    Arg.(
      value & opt float 1.0
      & info [ "zipf" ] ~docv:"S"
          ~doc:"Zipf exponent of the key popularity skew (0 = uniform).")
  in
  let objects =
    Arg.(
      value & opt int 64
      & info [ "objects" ] ~docv:"N"
          ~doc:"Service objects; key $(i,k) homes on node $(i,k) mod nodes.")
  in
  let duration =
    Arg.(
      value & opt float 0.5
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Traffic window, virtual seconds.")
  in
  let classes =
    Arg.(
      value
      & opt mix_conv Serve.Trafficgen.default_mix
      & info [ "classes" ] ~docv:"MIX"
          ~doc:
            "Request class mix as read=W,write=W,compute=W relative \
             weights (default read=0.7,write=0.2,compute=0.1).")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Service worker threads per node.")
  in
  let admission =
    Arg.(
      value & flag
      & info [ "admission" ]
          ~doc:
            "Enable per-class admission control (token bucket + queue-depth \
             cutoff) on every node; overload is shed as typed rejections \
             instead of queueing without bound.")
  in
  let admit_rate =
    Arg.(
      value & opt float 0.0
      & info [ "admit-rate" ] ~docv:"RATE"
          ~doc:
            "Aggregate admission token rate per node (req/s), split across \
             classes by mix weight; 0 derives it from the node's nominal \
             service capacity.")
  in
  let admit_burst =
    Arg.(
      value & opt float 4.0
      & info [ "admit-burst" ] ~docv:"TOKENS"
          ~doc:"Per-class token bucket capacity.")
  in
  let cutoff =
    Arg.(
      value & opt int 8
      & info [ "cutoff" ] ~docv:"N"
          ~doc:"Per-node admitted-but-unfinished request cutoff.")
  in
  let replicate =
    Arg.(
      value & flag
      & info [ "replicate" ]
          ~doc:"Replicate every service object on every node.")
  in
  (* [Serve.validate] owns the rules; a configuration it rejects is a
     usage error. *)
  let serve_term =
    let mk rps burst zipf objects duration classes workers admission
        admit_rate admit_burst cutoff replicate =
      let arrival =
        match burst with
        | None -> Serve.Trafficgen.Poisson rps
        | Some (factor, on_mean, off_mean) ->
          Serve.Trafficgen.Bursty { rate = rps; factor; on_mean; off_mean }
      in
      let scfg =
        {
          Serve.arrival;
          duration;
          keys = objects;
          skew = zipf;
          mix = classes;
          workers_per_node = workers;
          replicate;
          admission =
            (if admission then
               Some { Serve.admit_rate; admit_burst; cutoff }
             else None);
        }
      in
      match Serve.validate scfg with
      | () -> Ok scfg
      | exception Invalid_argument e -> Error (`Msg e)
    in
    Term.(
      term_result ~usage:true
        (const mk $ rps $ burst $ zipf $ objects $ duration $ classes
       $ workers $ admission $ admit_rate $ admit_burst $ cutoff $ replicate))
  in
  let run cfg s scfg =
    let print (r : Serve.result) =
      Printf.printf
        "serve (%s, %d nodes): issued %d, completed %d, rejected %d, failed \
         %d in %.3f virtual s\n"
        (match scfg.Serve.arrival with
        | Serve.Trafficgen.Poisson r -> Printf.sprintf "poisson %.0f rps" r
        | Serve.Trafficgen.Bursty b ->
          Printf.sprintf "bursty %.0fx%.0f rps" b.rate b.factor)
        cfg.Amber.Config.nodes r.Serve.issued r.Serve.completed
        r.Serve.rejected r.Serve.failed r.Serve.elapsed;
      Printf.printf "  goodput %.1f rps, reject %.1f%%\n" r.Serve.goodput_rps
        (100.0 *. r.Serve.reject_frac);
      let lat = r.Serve.latency in
      if Sim.Stats.Summary.count lat > 0 then
        Printf.printf
          "  admitted latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n"
          (Sim.Stats.Summary.percentile lat 50.0 *. 1e3)
          (Sim.Stats.Summary.percentile lat 95.0 *. 1e3)
          (Sim.Stats.Summary.percentile lat 99.0 *. 1e3);
      List.iter
        (fun (st : Serve.class_stats) ->
          Printf.printf "  %-7s issued %d, ok %d, rej %d, fail %d\n"
            (Serve.Trafficgen.cls_name st.Serve.cls)
            st.Serve.issued st.Serve.completed st.Serve.rejected
            st.Serve.failed)
        r.Serve.per_class
    in
    status (Session.run ~print s cfg (fun rt -> Serve.run rt scfg))
  in
  let term =
    Term.(
      const run $ config_term
      $ session_term ~report:true ~balance:true ~profile:true ~watch:true ()
      $ serve_term)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve open-loop traffic (Poisson or bursty, Zipf-skewed, mixed \
          read/write/compute) with per-class SLO reporting and optional \
          admission control.  With $(b,--watch) and $(b,--slo) it runs \
          under continuous telemetry and exits 4 when an SLO burns.")
    term

(* --- trace --------------------------------------------------------------- *)

let trace_cmd =
  let limit =
    Arg.(
      value & opt int 60
      & info [ "limit" ] ~docv:"N" ~doc:"Maximum records to print.")
  in
  let category =
    let cats =
      List.map
        (fun c -> (c, c))
        [ "create"; "crash"; "fault"; "migrate"; "net"; "san"; "sched" ]
    in
    Arg.(
      value
      & opt (some (enum cats)) None
      & info [ "category" ] ~docv:"CAT"
          ~doc:("Only records of this category: " ^ doc_alts_enum cats ^ "."))
  in
  let lint_flag =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Record sanitizer events during the run and lint the trace \
             offline with AmberSan afterwards.  Findings are reported on \
             stdout and the exit status is 3, exactly like an online \
             $(b,--sanitize) run; a clean trace exits 0.")
  in
  let variant =
    Arg.(
      value
      & opt (enum [ ("racy", `Racy); ("clean", `Clean) ]) `Clean
      & info [ "variant" ] ~docv:"V"
          ~doc:
            "Which scenario to trace: $(b,clean) (lock-ordered increments, \
             lints clean) or $(b,racy) (the same increments with the lock \
             removed, so $(b,--lint) must flag the Read/Write races and \
             exit 3).")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the selected records as JSON Lines on stdout (one object \
             per record) instead of the human-readable listing.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Also collect causal spans during the run and write them, with \
             the records as instant events, to $(docv) as Chrome \
             trace-event JSON (loadable in Perfetto).")
  in
  let run cfg limit category lint json out variant =
    let body rt =
      Sim.Span.set_marks (Amber.Runtime.spans rt) true;
      if out <> None || lint then
        Sim.Span.set_enabled (Amber.Runtime.spans rt) true;
      if lint then
        (* Record the "san" event stream without online analysis. *)
        ignore (Analysis.Ambersan.attach ~analyze:false rt : Analysis.Ambersan.t);
      let counter = Amber.Api.create rt ~name:"counter" (ref 0) in
      Amber.Api.move_to rt counter ~dest:(min 1 (cfg.Amber.Config.nodes - 1));
      let lock = Amber.Sync.Lock.create rt () in
      (* The racy variant runs the same two-step increment without the
         lock: the Read and Write steps of different workers carry no
         happens-before edge, which offline lint must flag. *)
      let increment =
        match variant with
        | `Clean ->
          fun () ->
            Amber.Sync.Lock.with_lock rt lock (fun () ->
                Amber.Api.invoke rt counter (fun c -> incr c))
        | `Racy ->
          fun () ->
            let v =
              Amber.Invoke.invoke rt ~mode:Amber.San_hooks.Read counter
                (fun c -> !c)
            in
            Sim.Fiber.consume 200e-6;
            Amber.Invoke.invoke rt ~mode:Amber.San_hooks.Write counter
              (fun c -> c := v + 1)
      in
      let ts =
        List.init 3 (fun i ->
            Amber.Api.start rt ~name:(Printf.sprintf "w%d" i) (fun () ->
                for _ = 1 to 3 do
                  increment ()
                done))
      in
      List.iter (fun t -> Amber.Api.join rt t) ts;
      rt
    in
    let o = Session.run Session.off cfg body in
    match o.Session.result with
    | Error _ -> o.Session.status
    | Ok rt ->
      let collector = Amber.Runtime.spans rt in
      let marks = Sim.Span.marks collector in
      let records =
        List.filter
          (fun (m : Sim.Span.mark) ->
            Option.fold ~none:true ~some:(String.equal m.category) category)
          marks
      in
      let shown = List.filteri (fun i _ -> i < limit) records in
      if json then
        List.iter (fun m -> print_endline (Scope.Export.mark_json m)) shown
      else begin
        Printf.printf "protocol trace (%d records, showing up to %d):\n"
          (List.length records) limit;
        List.iter (Format.printf "%a@." Sim.Span.pp_mark) shown
      end;
      (match out with
      | None -> ()
      | Some path ->
        let spans = Sim.Span.spans collector in
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Scope.Export.chrome_json ~marks spans));
        if not json then
          Printf.printf "wrote %s (%d spans)\n" path (List.length spans));
      if lint then begin
        let rep = Analysis.Ambersan.lint_trace marks in
        Format.printf "offline lint: %a" Analysis.Ambersan.pp_report rep;
        let span_findings =
          Analysis.Spanlint.lint (Sim.Span.spans collector)
        in
        (match span_findings with
        | [] -> print_endline "span balance: OK"
        | fs ->
          Printf.printf "span balance: %d findings\n" (List.length fs);
          List.iter (fun f -> print_endline ("  " ^ f)) fs);
        if Analysis.Ambersan.failed rep || span_findings <> [] then 3 else 0
      end
      else 0
  in
  let term =
    Term.(
      const run $ config_term $ limit $ category $ lint_flag $ json_flag
      $ trace_out $ variant)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a small scenario with protocol tracing enabled and dump it.")
    term

(* --- fixture ------------------------------------------------------------- *)

let fixture_cmd =
  let variant =
    Arg.(
      value
      & opt (enum [ ("racy", `Racy); ("clean", `Clean) ]) `Racy
      & info [ "variant" ] ~docv:"V"
          ~doc:
            "Which counter fixture to run: $(b,racy) (unsynchronized \
             read-modify-write, AmberSan must flag it) or $(b,clean) (the \
             same protocol under a lock).")
  in
  let threads =
    Arg.(
      value & opt positive 4
      & info [ "threads" ] ~docv:"T" ~doc:"Incrementing threads.")
  in
  let increments =
    Arg.(
      value & opt positive 25
      & info [ "increments" ] ~docv:"K" ~doc:"Increments per thread.")
  in
  let run cfg s variant threads increments =
    let print (r : Workloads.Fixtures.result) =
      Printf.printf "counter: %d of %d expected increments%s\n"
        r.Workloads.Fixtures.final r.Workloads.Fixtures.expected
        (if r.Workloads.Fixtures.final = r.Workloads.Fixtures.expected then ""
         else " (updates lost)")
    in
    status
      (Session.run ~print s cfg (fun rt ->
           match variant with
           | `Racy -> Workloads.Fixtures.racy_counter rt ~threads ~increments
           | `Clean ->
             Workloads.Fixtures.clean_counter rt ~threads ~increments))
  in
  let term =
    Term.(
      const run $ config_term $ session_term () $ variant $ threads
      $ increments)
  in
  Cmd.v
    (Cmd.info "fixture"
       ~doc:"Run a seeded sanitizer fixture (racy or clean shared counter).")
    term

(* --- check (schedule-space model checking) -------------------------------- *)

let check_cmd =
  let fixture_arg =
    let names =
      "all"
      :: List.map Analysis.Modelcheck.fixture_name Analysis.Modelcheck.fixtures
    in
    Arg.(
      value
      & pos 0 (enum (List.map (fun n -> (n, n)) names)) "all"
      & info [] ~docv:"FIXTURE"
          ~doc:
            (Printf.sprintf
               "Protocol fixture to check: %s.  $(b,all) runs every fixture."
               (String.concat ", " names)))
  in
  let max_schedules =
    Arg.(
      value & opt int 4000
      & info [ "max-schedules" ] ~docv:"N"
          ~doc:"Stop after exploring N schedules (complete plus truncated).")
  in
  let max_depth =
    Arg.(
      value & opt int 3000
      & info [ "max-depth" ] ~docv:"D"
          ~doc:
            "Abandon any single execution after D decision points (bounds \
             retransmission-timer storms).")
  in
  let fault_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-budget" ] ~docv:"K"
          ~doc:
            "Per-execution budget of non-deliver fault choices (drop or \
             duplicate); default is the fixture's own.")
  in
  let schedule_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule-out" ] ~docv:"FILE"
          ~doc:"Write the counterexample schedule (if any) to $(docv).")
  in
  let schedule_in =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "schedule-in" ] ~docv:"FILE"
          ~doc:
            "Skip exploration: replay the schedule in $(docv) against the \
             (single) fixture and report that one execution's verdict.")
  in
  let mutate =
    (* deliberately undocumented: re-introduces known-fixed bugs so CI can
       assert the checker still finds them *)
    Arg.(
      value
      & opt (some (enum Analysis.Modelcheck.mutations)) None
      & info [ "mutate" ] ~docv:"BUG" ~docs:"HIDDEN OPTIONS")
  in
  let random =
    Arg.(
      value
      & opt (some int) None
      & info [ "random" ] ~docv:"SEED"
          ~doc:
            "Random-walk mode: instead of systematic DFS with partial-order \
             reduction, draw every decision uniformly at random \
             (deterministically, from $(docv)).  Samples deep reorderings \
             that DFS only reaches one race reversal at a time; \
             counterexamples stay replayable.")
  in
  let run fixture max_schedules max_depth fault_budget schedule_out
      schedule_in mutation random =
    let fixtures =
      List.filter
        (fun fx ->
          fixture = "all" || Analysis.Modelcheck.fixture_name fx = fixture)
        Analysis.Modelcheck.fixtures
    in
    let fixtures =
      match mutation with
      | None -> fixtures
      | Some m -> List.map (Analysis.Modelcheck.apply_mutation m) fixtures
    in
    match (schedule_in, fixtures) with
    | Some path, [ fx ] -> (
      match Analysis.Schedule.load path with
      | exception Sys_error e -> `Error (true, e)
      | Error e -> `Error (true, Printf.sprintf "%s: %s" path e)
      | Ok sched -> (
        Printf.printf "replaying %d recorded decisions against %s:\n"
          (List.length sched)
          (Analysis.Modelcheck.fixture_name fx);
        match Analysis.Modelcheck.replay ~max_depth fx sched with
        | [] ->
          print_endline "replay: no violation";
          `Ok 0
        | violations ->
          List.iter (fun v -> Printf.printf "  VIOLATION: %s\n" v) violations;
          `Ok 3))
    | Some _, _ -> `Error (true, "--schedule-in needs a single named fixture")
    | None, _ ->
      let status = ref 0 in
      List.iter
        (fun fx ->
          let name = Analysis.Modelcheck.fixture_name fx in
          Printf.printf "checking %s (%s)...\n%!" name
            (Analysis.Modelcheck.fixture_descr fx);
          let o =
            match random with
            | Some seed ->
              Analysis.Modelcheck.fuzz ~max_schedules ~max_depth ?fault_budget
                ~seed fx
            | None ->
              Analysis.Modelcheck.explore ~max_schedules ~max_depth
                ?fault_budget fx
          in
          List.iter
            (fun l -> print_endline ("  " ^ l))
            (Analysis.Modelcheck.stats_lines o.Analysis.Modelcheck.stats);
          match o.Analysis.Modelcheck.counterexample with
          | None -> Printf.printf "  %s: no violation found\n" name
          | Some (sched, violations) ->
            status := 3;
            List.iter
              (fun v -> Printf.printf "  VIOLATION: %s\n" v)
              violations;
            Printf.printf "  counterexample (%d decisions):\n"
              (List.length sched);
            Format.printf "%a" Analysis.Schedule.pp sched;
            (match schedule_out with
            | None -> ()
            | Some path ->
              Analysis.Schedule.save
                ~comments:
                  [
                    Printf.sprintf "fixture: %s" name;
                    Printf.sprintf "violations: %s"
                      (String.concat " | " violations);
                  ]
                path sched;
              Printf.printf
                "  schedule written to %s (replay with: amber_sim check %s \
                 --schedule-in %s)\n"
                path name path))
        fixtures;
      `Ok !status
  in
  let term =
    Term.(
      ret
        (const run $ fixture_arg $ max_schedules $ max_depth $ fault_budget
       $ schedule_out $ schedule_in $ mutate $ random))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check a protocol fixture: systematically explore the \
          schedule space (event, fiber and fault choices) with \
          partial-order reduction, auditing every execution with AmberSan \
          plus terminal invariants.  Exit 3 with a replayable \
          counterexample schedule on any violation.")
    term

let () =
  let doc = "Amber: parallel programming on a network of multiprocessors" in
  let info = Cmd.info "amber_sim" ~version:"1.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ sor_cmd; workqueue_cmd; matmul_cmd; tsp_cmd; readmostly_cmd;
            serve_cmd; trace_cmd; fixture_cmd; check_cmd ]))
