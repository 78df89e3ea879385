(* The six benchmark workloads and the per-layer ledger they report.

   A workload runs once per call, in the calling process: the harness
   gives every repetition a fresh child process, so heap and GC figures
   describe one run.  Each layer is reached only through its public
   functions; nothing here reaches into [lib/].

   Clocks: [Det] metrics are virtual time, counts and allocated words, a
   pure function of the seed and scale that must repeat bit for bit;
   [Host] metrics are the simulator's own cost, measured with the
   monotonic clock. *)

module A = Amber
module W = Workloads
module MC = Analysis.Modelcheck

type kind = Det | Host
type metric = { name : string; unit : string; kind : kind; value : float }

type opts = {
  seed : int;
  scale : float;  (** 1.0 is the full size documented in the README *)
  profile : bool;  (** attach [Scope.Profile] for the whole run *)
  probes : bool;  (** also run the layer probes and time serve's generator *)
  out : string option;  (** with [profile]: write span exports here *)
}

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;  (** failed operations plus one per failed output check *)
  failures : string list;
}

let det name unit value = { name; unit; kind = Det; value }
let host name unit value = { name; unit; kind = Host; value }
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let fi = float_of_int
let ratio a b = if b = 0.0 then 0.0 else a /. b
let scaled o n = max 1 (int_of_float (Float.round (fi n *. o.scale)))
let mb_of_words w = fi w *. fi (Sys.word_size / 8) /. 1048576.0

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Set-up is timed this many times per process and the median reported,
   so one cold start does not decide it. *)
let setups = 5

(* ------------------------------------------------------------------ *)
(* Ledger: layer counters of one runtime                               *)
(* ------------------------------------------------------------------ *)

(* Cumulative counters; a measured phase reports the difference between
   two snapshots.  [live_blocks] is a level, so the difference keeps the
   later value. *)
let counters rt =
  let eth = A.Runtime.ether rt and rpc = A.Runtime.rpc rt in
  let c = A.Runtime.counters rt in
  let coal = Topaz.Rpc.coalescing rpc in
  let retransmits = (Topaz.Rpc.reliability rpc).Topaz.Rpc.retransmits in
  let per_node f =
    List.fold_left
      (fun acc n -> acc +. f n)
      0.0
      (List.init (A.Runtime.nodes rt) Fun.id)
  in
  let machine f = per_node (fun n -> f (A.Runtime.machine rt n)) in
  let heap f = per_node (fun n -> fi (f (A.Runtime.heap rt n))) in
  [
    ("events", fi (Sim.Engine.events_executed (A.Runtime.engine rt)));
    ("vtime", A.Runtime.now rt);
    ( "cpu_capacity",
      machine (fun m -> fi (Hw.Machine.cpu_count m)) *. A.Runtime.now rt );
    ("cpu_busy", machine Hw.Machine.total_busy_time);
    ("dispatches", machine (fun m -> fi (Hw.Machine.dispatch_count m)));
    ("packets", fi (Hw.Ethernet.packets_sent eth));
    ("bytes", fi (Hw.Ethernet.bytes_sent eth));
    ("wire_busy", Hw.Ethernet.busy_seconds eth);
    ("wire_queueing", Hw.Ethernet.total_queueing eth);
    ("calls", fi (Topaz.Rpc.calls_made rpc));
    ("posts", fi (Topaz.Rpc.posts_made rpc));
    ("posts_rejected", fi (Topaz.Rpc.posts_rejected rpc));
    ("retransmits", fi (Sim.Stats.Counter.value retransmits));
    ("coal_eligible", fi coal.Topaz.Rpc.coal_eligible);
    ("coal_batched", fi coal.Topaz.Rpc.coal_batched);
    ("as_grants", heap Vaspace.Heap.grow_count);
    ("live_blocks", heap Vaspace.Heap.live_blocks);
    ("local", fi c.A.Runtime.local_invocations);
    ("remote", fi c.A.Runtime.remote_invocations);
    ("migrations", fi c.A.Runtime.thread_migrations);
    ("migration_bytes", fi c.A.Runtime.migration_bytes);
    ("moves", fi c.A.Runtime.object_moves);
    ("forward_hops", fi c.A.Runtime.forward_hops);
    ("home_fallbacks", fi c.A.Runtime.home_fallbacks);
    ("installs", fi c.A.Runtime.replica_installs);
    ("replica_reads", fi c.A.Runtime.replica_reads);
    ("invalidations", fi c.A.Runtime.replica_invalidations);
  ]

let diff later earlier =
  List.map2
    (fun (k, a) (_, b) -> if k = "live_blocks" then (k, a) else (k, a -. b))
    later earlier

let sum a b = List.map2 (fun (k, x) (_, y) -> (k, x +. y)) a b

(* What the host spent on a measured phase: time and allocation. *)
type host_cost = { host_s : float; minor_words : float; major : int }
type stamp = { at : float; minor : float; majors : int }

let stamp () =
  let majors = (Gc.quick_stat ()).Gc.major_collections in
  let minor = Gc.minor_words () in
  { at = now_s (); minor; majors }

let cost_since s0 =
  let at = now_s () in
  let minor = Gc.minor_words () in
  {
    host_s = at -. s0.at;
    minor_words = minor -. s0.minor;
    major = (Gc.quick_stat ()).Gc.major_collections - s0.majors;
  }

let layer_metrics cost l =
  let g k = List.assoc k l in
  let events = g "events" in
  [
    det "sim.engine.events" "count" events;
    host "sim.engine.host_ns_per_event" "ns"
      (ratio (cost.host_s *. 1e9) events);
    det "sim.gc.minor_words_per_event" "words" (ratio cost.minor_words events);
    host "sim.gc.major_collections" "count" (fi cost.major);
    det "hw.ethernet.packets" "count" (g "packets");
    det "hw.ethernet.kbytes" "KiB" (g "bytes" /. 1024.0);
    det "hw.ethernet.utilization" "ratio" (ratio (g "wire_busy") (g "vtime"));
    det "hw.ethernet.queue_us_per_packet" "virt_us"
      (ratio (g "wire_queueing" *. 1e6) (g "packets"));
    det "hw.machine.cpu_utilization" "ratio"
      (ratio (g "cpu_busy") (g "cpu_capacity"));
    det "hw.machine.dispatches" "count" (g "dispatches");
    det "topaz.rpc.calls" "count" (g "calls");
    det "topaz.rpc.posts" "count" (g "posts");
    det "topaz.rpc.posts_rejected" "count" (g "posts_rejected");
    det "topaz.rpc.retransmits" "count" (g "retransmits");
    det "topaz.rpc.coalesced_frac" "ratio"
      (ratio (g "coal_batched") (g "coal_eligible"));
    det "vaspace.as_grants" "count" (g "as_grants");
    det "vaspace.live_blocks" "count" (g "live_blocks");
    det "amber.invoke.local" "count" (g "local");
    det "amber.invoke.remote" "count" (g "remote");
    det "amber.thread.migrations" "count" (g "migrations");
    det "amber.thread.migration_kb" "KiB" (g "migration_bytes" /. 1024.0);
    det "amber.mobility.moves" "count" (g "moves");
    det "amber.mobility.forward_hops" "count" (g "forward_hops");
    det "amber.mobility.home_fallbacks" "count" (g "home_fallbacks");
    det "amber.coherence.installs" "count" (g "installs");
    det "amber.coherence.replica_reads" "count" (g "replica_reads");
    det "amber.coherence.invalidations" "count" (g "invalidations");
  ]

(* ------------------------------------------------------------------ *)
(* One cluster run split into set-up and measured phase                *)
(* ------------------------------------------------------------------ *)

type 'a phase = {
  value : 'a;
  rt : A.Runtime.t;
  setup_s : float;
  cost : host_cost;
  ledger : (string * float) list;
  heap_mb : float;
  prof : Scope.Profile.t option;
}

(* Set-up runs from the [Cluster.run_value] call to the end of
   [prepare]; the measured phase runs from there until [run_value]
   returns, so it includes the engine draining after [measure].
   Set-up-only runs before the measured one supply the other timings. *)
let run_cluster o cfg ~prepare ~measure =
  let setup_only () =
    let t0 = now_s () and t1 = ref 0.0 in
    A.Cluster.run_value cfg (fun rt ->
        ignore (prepare rt);
        t1 := now_s ());
    !t1 -. t0
  in
  let earlier = List.init (setups - 1) (fun _ -> setup_only ()) in
  let t0 = now_s () in
  let mark = ref None in
  let value =
    A.Cluster.run_value cfg (fun rt ->
        let prof =
          if o.profile then Some (Scope.Profile.attach rt) else None
        in
        let x = prepare rt in
        mark := Some (rt, prof, counters rt, stamp ());
        let v = measure rt x in
        Option.iter Scope.Profile.seal prof;
        v)
  in
  match !mark with
  | None -> invalid_arg "run_cluster: the main thread never reached measure"
  | Some (rt, prof, before, s) ->
    let cost = cost_since s in
    {
      value;
      rt;
      setup_s = median ((s.at -. t0) :: earlier);
      cost;
      ledger = diff (counters rt) before;
      heap_mb = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words;
      prof;
    }

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let export_spans ~dir ~workload ~clip spans =
  let lines = Scope.Export.spans_jsonl ~clip spans in
  write_file
    (Filename.concat dir (workload ^ ".spans.jsonl"))
    (String.concat "" (List.map (fun l -> l ^ "\n") lines));
  write_file
    (Filename.concat dir (workload ^ ".trace.json"))
    (Scope.Export.chrome_json ~clip spans)

let profile_metrics o ~workload prof =
  let spans = Scope.Profile.spans prof in
  let total = Scope.Profile.total prof in
  let cp = Scope.Profile.critical_path prof in
  let frac x = ratio x cp.Scope.Critical_path.total in
  let self = Hashtbl.create 16 in
  List.iter
    (fun ((s : Sim.Span.span), t) ->
      let k = Sim.Span.kind_name s.Sim.Span.kind in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt self k) in
      Hashtbl.replace self k (prev +. t))
    (Scope.Critical_path.exclusive_times ~spans ~total);
  Option.iter
    (fun dir -> export_spans ~dir ~workload ~clip:total spans)
    o.out;
  [
    det "sim.span.count" "count" (fi (List.length spans));
    det "scope.cp.compute_frac" "ratio" (frac cp.Scope.Critical_path.compute);
    det "scope.cp.network_frac" "ratio" (frac cp.Scope.Critical_path.network);
    det "scope.cp.queueing_frac" "ratio"
      (frac cp.Scope.Critical_path.queueing);
    det "scope.cp.coherence_frac" "ratio"
      (frac cp.Scope.Critical_path.coherence);
  ]
  @ List.map
      (fun (k, t) -> det (Printf.sprintf "scope.self.%s_s" k) "virt_s" t)
      (List.sort compare (List.of_seq (Hashtbl.to_seq self)))

(* The metrics every workload reports, then its own, then the ledger. *)
let finish o ~workload ~setup_s ~cost ~heap_mb ~attempted ~op_failures
    ~failures ?ledger ?prof extra =
  let failed = op_failures + List.length failures in
  let metrics =
    [
      host "host_wall_s" "s" cost.host_s;
      host "setup_wall_s" "s" setup_s;
      host "peak_heap_mb" "MB" heap_mb;
      det "alloc_kwords_per_op" "kwords"
        (ratio (cost.minor_words /. 1e3) (fi attempted));
      det "error_frac" "ratio" (ratio (fi failed) (fi attempted));
    ]
    @ extra
    @ (match ledger with Some l -> layer_metrics cost l | None -> [])
    @
    match prof with Some p -> profile_metrics o ~workload p | None -> []
  in
  { metrics; attempted; failed; failures }

let finish_phase o ~workload ph ~attempted ~op_failures ~failures extra =
  finish o ~workload ~setup_s:ph.setup_s ~cost:ph.cost ~heap_mb:ph.heap_mb
    ~attempted ~op_failures ~failures ~ledger:ph.ledger ?prof:ph.prof extra

let seeded_cfg o ~nodes ~cpus =
  A.Config.make ~nodes ~cpus ~seed:(Int64.of_int o.seed) ()

let percentile_ms s q =
  if Sim.Stats.Summary.count s = 0 then 0.0
  else Sim.Stats.Summary.percentile s q *. 1e3

let check cond fmt =
  Printf.ksprintf (fun msg -> if cond then [] else [ msg ]) fmt

(* ------------------------------------------------------------------ *)
(* sor-fig2: the paper's headline application                          *)
(* ------------------------------------------------------------------ *)

(* The seed draws the four boundary temperatures: the arithmetic (and so
   the checksum) changes with it, the communication pattern does not. *)
let sor_fig2 o =
  let iters = scaled o 1000 in
  let rng = Sim.Rng.make (Int64.of_int o.seed) in
  let temp () = Sim.Rng.uniform rng ~lo:0.0 ~hi:100.0 in
  let p =
    {
      W.Sor_core.default with
      W.Sor_core.top = temp ();
      bottom = temp ();
      left = temp ();
      right = temp ();
    }
  in
  let ph =
    run_cluster o
      (seeded_cfg o ~nodes:8 ~cpus:4)
      ~prepare:ignore
      ~measure:(fun rt () -> W.Sor_amber.run rt p ~iters ())
  in
  let r = ph.value in
  let want = W.Sor_core.Full_grid.checksum (W.Sor_core.reference p ~iters) in
  let speedup =
    W.Sor_seq.predicted_elapsed p ~iters /. r.W.Sor_amber.compute_elapsed
  in
  finish_phase o ~workload:"sor-fig2" ph ~attempted:iters ~op_failures:0
    ~failures:
      (check
         (r.W.Sor_amber.checksum = want)
         "sor-fig2: checksum %.17g, sequential reference %.17g"
         r.W.Sor_amber.checksum want)
    [
      det "virt_elapsed_s" "s" r.W.Sor_amber.compute_elapsed;
      det "paper_max_rel_err" "ratio" (abs_float (speedup -. 25.0) /. 25.0);
      det "amber.sor.speedup" "ratio" speedup;
    ]

(* ------------------------------------------------------------------ *)
(* serve-2x and serve-burst: open-loop serving with admission          *)
(* ------------------------------------------------------------------ *)

let serve_cfg arrival ~duration o =
  {
    Serve.default_cfg with
    Serve.arrival;
    duration = duration *. o.scale;
    admission = Some Serve.default_admission;
  }

let capacity = Serve.capacity_rps Serve.default_cfg ~nodes:4

(* Builds the workload's own arrival schedule outside any cluster: how
   long generation takes and how much heap the schedule holds. *)
let generator_probe o (c : Serve.cfg) =
  let rng = Sim.Rng.make (Int64.of_int o.seed) in
  let t0 = now_s () in
  let reqs =
    Serve.Trafficgen.generate ~rng ~arrival:c.Serve.arrival ~mix:c.Serve.mix
      ~keys:c.Serve.keys ~skew:c.Serve.skew ~duration:c.Serve.duration
  in
  let dt = now_s () -. t0 in
  [
    host "serve.probe.generate_ms" "ms" (dt *. 1e3);
    det "serve.probe.schedule_mb" "MB"
      (mb_of_words (Obj.reachable_words (Obj.repr reqs)));
  ]

let serve ~workload c o =
  let ph =
    run_cluster o
      (seeded_cfg o ~nodes:4 ~cpus:4)
      ~prepare:ignore
      ~measure:(fun rt () -> Serve.run rt c)
  in
  let r = ph.value in
  let per_class =
    List.concat_map
      (fun (st : Serve.class_stats) ->
        let cls = Serve.Trafficgen.cls_name st.Serve.cls in
        [
          det
            (Printf.sprintf "serve.%s.p99_ms" cls)
            "ms"
            (percentile_ms st.Serve.latency 99.0);
          det
            (Printf.sprintf "serve.%s.reject_frac" cls)
            "ratio"
            (ratio (fi st.Serve.rejected) (fi st.Serve.issued));
        ])
      r.Serve.per_class
  in
  let shed = List.assoc "posts_rejected" ph.ledger in
  let accounted = r.Serve.completed + r.Serve.rejected + r.Serve.failed in
  finish_phase o ~workload ph ~attempted:r.Serve.issued
    ~op_failures:r.Serve.failed
    ~failures:
      (check
         (accounted = r.Serve.issued)
         "%s: completed %d + rejected %d + failed %d <> issued %d" workload
         r.Serve.completed r.Serve.rejected r.Serve.failed r.Serve.issued
      @ check
          (shed = fi r.Serve.rejected)
          "%s: rpc shed %.0f posts, serve counted %d rejections" workload
          shed r.Serve.rejected)
    ([
       det "goodput_rps" "ops/s" r.Serve.goodput_rps;
       det "op_p50_ms" "ms" (percentile_ms r.Serve.latency 50.0);
       det "op_p99_ms" "ms" (percentile_ms r.Serve.latency 99.0);
       det "reject_frac" "ratio" r.Serve.reject_frac;
       det "serve.issued" "count" (fi r.Serve.issued);
     ]
    @ per_class
    @ if o.probes then generator_probe o c else [])

(* 2x the nominal capacity: the overload case. *)
let serve_2x o =
  serve ~workload:"serve-2x"
    (serve_cfg (Serve.Trafficgen.Poisson (2.0 *. capacity)) ~duration:300.0 o)
    o

(* MMPP whose long-run mean is 0.7x capacity: bursts of 3x the off-phase
   rate (50 ms on, 100 ms off), so shedding happens only inside bursts. *)
let serve_burst o =
  let on_mean = 0.05 and off_mean = 0.1 and factor = 3.0 in
  let rate =
    0.7 *. capacity *. (on_mean +. off_mean)
    /. ((factor *. on_mean) +. off_mean)
  in
  serve ~workload:"serve-burst"
    (serve_cfg
       (Serve.Trafficgen.Bursty { rate; factor; on_mean; off_mean })
       ~duration:600.0 o)
    o

(* ------------------------------------------------------------------ *)
(* replica-rw: readers on every node against a periodic writer         *)
(* ------------------------------------------------------------------ *)

(* Readers are long-lived and anchored: starting a thread per read would
   hit the spawn-before-register gap documented in the README. *)
let replica_rw o =
  let objects = 16 and readers_per_node = 2 and nodes = 4 in
  let duration = 300.0 *. o.scale in
  let think = 2e-3 and write_gap = 20e-3 in
  let cells = Array.init objects (fun _ -> ref 0) in
  let written = Array.make objects 0 in
  let rng = Sim.Rng.make (Int64.of_int o.seed) in
  let orders =
    Array.init (nodes * readers_per_node) (fun _ ->
        let a = Array.init objects Fun.id in
        Sim.Rng.shuffle_in_place rng a;
        a)
  in
  let latency = Sim.Stats.Summary.create () in
  let reads = ref 0 and writes = ref 0 and decreases = ref 0 in
  let copy r = ref !r in
  let prepare rt =
    let objs =
      Array.mapi
        (fun i cell ->
          A.Api.create rt ~size:512 ~name:(Printf.sprintf "rw%d" i) cell)
        cells
    in
    Array.iter (A.Placement.replicate_everywhere rt ~copy) objs;
    let anchor n =
      let a = A.Api.create rt ~size:64 ~name:(Printf.sprintf "anchor%d" n) () in
      if n <> 0 then A.Api.move_to rt a ~dest:n;
      a
    in
    (objs, Array.init nodes anchor)
  in
  let measure rt (objs, anchors) =
    let stop = ref false in
    let reader r () =
      let order = orders.(r) and seen = Array.make objects 0 in
      A.Api.invoke rt anchors.(r / readers_per_node) (fun () ->
          let i = ref 0 in
          while not !stop do
            let k = order.(!i mod objects) in
            let t = A.Api.now rt in
            let v =
              A.Api.invoke rt ~mode:A.San_hooks.Read objs.(k) (fun c -> !c)
            in
            Sim.Stats.Summary.add latency (A.Api.now rt -. t);
            if v < seen.(k) then incr decreases;
            seen.(k) <- v;
            incr reads;
            incr i;
            Sim.Fiber.consume think
          done)
    in
    let threads =
      List.init (nodes * readers_per_node) (fun r ->
          A.Api.start rt ~name:(Printf.sprintf "reader%d" r) (reader r))
    in
    let t0 = A.Api.now rt in
    let engine = A.Runtime.engine rt in
    while A.Api.now rt -. t0 < duration do
      let k = !writes mod objects in
      A.Api.invoke rt ~mode:A.San_hooks.Write objs.(k) incr;
      written.(k) <- written.(k) + 1;
      incr writes;
      A.Placement.replicate_everywhere rt ~copy objs.(k);
      Topaz.Kthread.sleep ~engine write_gap
    done;
    stop := true;
    ignore (A.Api.join_all rt threads : unit list)
  in
  let ph = run_cluster o (seeded_cfg o ~nodes ~cpus:4) ~prepare ~measure in
  let wrong = ref 0 in
  Array.iteri (fun i c -> if !c <> written.(i) then incr wrong) cells;
  finish_phase o ~workload:"replica-rw" ph ~attempted:(!reads + !writes)
    ~op_failures:!decreases
    ~failures:
      (check (!wrong = 0) "replica-rw: %d objects lost writes" !wrong
      @ check (!decreases = 0) "replica-rw: %d reads went backwards"
          !decreases)
    [
      det "goodput_rps" "ops/s" (fi (!reads + !writes) /. duration);
      det "op_p50_ms" "ms" (percentile_ms latency 50.0);
      det "op_p99_ms" "ms" (percentile_ms latency 99.0);
      det "amber.coherence.replica_hit_frac" "ratio"
        (ratio (List.assoc "replica_reads" ph.ledger) (fi !reads));
      det "amber.coherence.invalidations_per_write" "ratio"
        (ratio (List.assoc "invalidations" ph.ledger) (fi !writes));
      det "replica.reads" "count" (fi !reads);
      det "replica.writes" "count" (fi !writes);
    ]

(* ------------------------------------------------------------------ *)
(* table1-loop: the five §5 operations, one at a time                  *)
(* ------------------------------------------------------------------ *)

let table1_ops =
  [ "create"; "local_invoke"; "remote_invoke"; "move"; "start_join" ]

let table1_paper_ms = [ 0.18; 0.012; 8.32; 12.43; 1.33 ]

(* The seed picks the values the invoked objects hold, so every invoke
   result is checkable. *)
let table1_loop o =
  let iters = scaled o 120_000 in
  let rng = Sim.Rng.make (Int64.of_int o.seed) in
  let base = Sim.Rng.int rng 1_000_000 in
  let virt = Array.make 5 0.0 and hostt = Array.make 5 0.0 in
  let bad = ref 0 in
  let prepare rt =
    let local = A.Api.create rt ~size:64 ~name:"local" base in
    let home = A.Api.create rt ~size:64 ~name:"home" () in
    let target = A.Api.create rt ~size:64 ~name:"target" (base + 1) in
    A.Api.move_to rt target ~dest:1;
    let ball = A.Api.create rt ~size:1024 ~name:"ball" () in
    A.Api.move_to rt ball ~dest:1;
    (local, home, target, ball)
  in
  let measure rt (local, home, target, ball) =
    let timed op f =
      let v0 = A.Api.now rt and h0 = now_s () in
      let x = f () in
      hostt.(op) <- hostt.(op) +. (now_s () -. h0);
      virt.(op) <- virt.(op) +. (A.Api.now rt -. v0);
      x
    in
    let expect got want = if got <> want then incr bad in
    A.Api.invoke rt home (fun () ->
        for i = 1 to iters do
          let obj = timed 0 (fun () -> A.Api.create rt ~size:64 ~name:"o" i) in
          A.Api.destroy rt obj;
          expect
            (timed 1 (fun () -> A.Api.invoke rt local (fun v -> v + i)))
            (base + i);
          expect
            (timed 2 (fun () -> A.Api.invoke rt target (fun v -> v + i)))
            (base + 1 + i);
          let dest = 1 + (i mod 2) in
          timed 3 (fun () -> A.Api.move_to rt ball ~dest);
          expect (A.Api.locate rt ball) dest;
          expect
            (timed 4 (fun () -> A.Api.join rt (A.Api.start rt (fun () -> i))))
            i
        done)
  in
  let ph = run_cluster o (seeded_cfg o ~nodes:3 ~cpus:4) ~prepare ~measure in
  let mean_ms op = virt.(op) /. fi iters *. 1e3 in
  let rel_err op paper = abs_float (mean_ms op -. paper) /. paper in
  let per_op =
    List.concat
      (List.mapi
         (fun op name ->
           [
             det (Printf.sprintf "amber.table1.%s_ms" name) "ms" (mean_ms op);
             host
               (Printf.sprintf "amber.table1.%s_host_us" name)
               "us"
               (hostt.(op) /. fi iters *. 1e6);
           ])
         table1_ops)
  in
  finish_phase o ~workload:"table1-loop" ph ~attempted:(5 * iters)
    ~op_failures:!bad
    ~failures:
      (check (!bad = 0) "table1-loop: %d wrong invoke results or locations"
         !bad)
    ([
       det "virt_elapsed_s" "s" (Array.fold_left ( +. ) 0.0 virt);
       det "paper_max_rel_err" "ratio"
         (List.fold_left max 0.0 (List.mapi rel_err table1_paper_ms));
     ]
    @ per_op
    @ [
        det "amber.mobility.move_p99_ms" "ms"
          (percentile_ms (A.Runtime.move_latency ph.rt) 99.0);
      ])

(* ------------------------------------------------------------------ *)
(* check-replica: AmberCheck DFS over the replica fixture              *)
(* ------------------------------------------------------------------ *)

(* The fixture's body receives each execution's runtime, so wrapping it
   lets the ledger sum every execution's counters without touching the
   checker.  Set-up is the fixture lookup plus one replay of the default
   schedule, which warms the code paths every execution takes. *)
let check_replica o =
  let setup () =
    let t0 = now_s () in
    let fx =
      match MC.find_fixture "replica" with
      | Some fx ->
        let seed = Int64.of_int o.seed in
        { fx with MC.cfg = { fx.MC.cfg with A.Config.seed } }
      | None -> invalid_arg "check-replica: no replica fixture"
    in
    let violations = MC.replay fx [] in
    (fx, violations, now_s () -. t0)
  in
  let earlier =
    List.init (setups - 1) (fun _ ->
        let _, _, dt = setup () in
        dt)
  in
  let fx, violations, dt = setup () in
  let acc = ref None and last = ref None in
  let absorb () =
    Option.iter
      (fun rt ->
        let c = counters rt in
        acc := Some (match !acc with None -> c | Some a -> sum a c);
        last := None)
      !last
  in
  let body rt =
    absorb ();
    last := Some rt;
    fx.MC.body rt
  in
  let max_schedules = scaled o 2000 in
  let s = stamp () in
  let out = MC.explore ~max_schedules { fx with MC.body } in
  let cost = cost_since s in
  absorb ();
  let st = out.MC.stats in
  let decisions = fi st.MC.decisions in
  let failures =
    check (violations = []) "check-replica: default schedule violates: %s"
      (String.concat "; " violations)
    @
    match out.MC.counterexample with
    | None -> []
    | Some (_, v) ->
      [ "check-replica: counterexample: " ^ String.concat "; " v ]
  in
  finish o ~workload:"check-replica"
    ~setup_s:(median (dt :: earlier))
    ~cost
    ~heap_mb:(mb_of_words (Gc.quick_stat ()).Gc.top_heap_words)
    ~attempted:(max 1 st.MC.schedules) ~op_failures:0 ~failures ?ledger:!acc
    [
      det "analysis.check.schedules" "count" (fi st.MC.schedules);
      det "analysis.check.decisions" "count" decisions;
      det "analysis.check.max_depth" "count" (fi st.MC.max_depth);
      det "analysis.check.pruned" "count" (fi st.MC.pruned);
      det "analysis.check.minor_words_per_decision" "words"
        (ratio cost.minor_words decisions);
      host "sim.engine.checked_us_per_decision" "us"
        (ratio (cost.host_s *. 1e6) decisions);
    ]

(* ------------------------------------------------------------------ *)

type workload = { name : string; run : opts -> outcome }

let all =
  [
    { name = "sor-fig2"; run = sor_fig2 };
    { name = "serve-2x"; run = serve_2x };
    { name = "serve-burst"; run = serve_burst };
    { name = "replica-rw"; run = replica_rw };
    { name = "table1-loop"; run = table1_loop };
    { name = "check-replica"; run = check_replica };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
