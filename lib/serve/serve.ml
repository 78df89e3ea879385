(* Amber-Serve: the open-loop traffic-serving driver.

   One run wires together
     - a [Trafficgen] arrival stream drawn from a dedicated
       [Sim.Rng.split] (one draw from the engine stream, exactly like
       [Balance.Driver]; a run without serving draws nothing and stays
       byte-identical), each arrival drawn only as it is issued, so
       memory grows with the requests in flight, not the duration;
     - a farm of service objects spread round-robin over the nodes
       (key -> home node = key mod nodes), optionally replicated
       everywhere;
     - per-node worker pools of Amber threads that pull admitted
       requests off a bounded queue and [invoke] the keyed object with
       the class's declared access mode and CPU cost;
     - per-class admission control at the RPC server pools (token bucket
       + queue-depth cutoff, installed through [Topaz.Rpc.set_admission])
       whose rejections flow back to the generator as typed
       [Amber.Overload.Overloaded] shed load, never as hangs;
     - per-class SLO accounting (p50/p95/p99 latency, goodput, reject
       rate) surfaced through a gated "serve" report section.

   The request path: the generator (the calling Amber thread) sleeps to
   each arrival instant and fire-and-forgets a "serve-<class>" datagram
   to the key's home node.  At the destination the admission hook rules;
   admitted requests are queued for the worker pool, which invokes the
   object (chasing it if the balancer moved it, reading a replica when
   one is local) and posts a completion notice home; rejected requests
   post a rejection notice from the delivery callback instead.  The
   generator drains until every request is accounted for or a grace
   deadline passes — crash-killed requests are counted failed, so faulty
   runs shed and degrade but never wedge. *)

(* Re-exported so library clients see [Serve.Trafficgen] and
   [Serve.Admission] alongside the driver below ([serve]'s root module
   is this file). *)
module Trafficgen = Trafficgen
module Admission = Admission

module A = Amber

type admission_cfg = {
  admit_rate : float;
      (* aggregate per-node token rate (req/s), split over the classes by
         mix weight; 0.0 derives it from the node's service capacity *)
  admit_burst : float;  (* per-class bucket capacity, tokens *)
  cutoff : int;  (* per-node admitted-but-unfinished cutoff *)
}

let default_admission = { admit_rate = 0.0; admit_burst = 4.0; cutoff = 8 }

type cfg = {
  arrival : Trafficgen.arrival;
  duration : float;  (* generator window, virtual seconds *)
  keys : int;  (* service objects *)
  skew : float;  (* Zipf exponent over the keyspace *)
  mix : Trafficgen.mix;
  workers_per_node : int;
  replicate : bool;  (* replicate every service object everywhere *)
  admission : admission_cfg option;
}

let default_cfg =
  {
    arrival = Trafficgen.Poisson 400.0;
    duration = 0.5;
    keys = 64;
    skew = 1.0;
    mix = Trafficgen.default_mix;
    workers_per_node = 2;
    replicate = false;
    admission = None;
  }

(* Service CPU per request class, seconds. *)
let read_cost = 4e-3
let write_cost = 12e-3
let compute_cost = 40e-3

(* Request and completion-notice payloads, bytes. *)
let request_bytes = 128
let reply_bytes = 64

(* Extra virtual time after [duration] to wait for stragglers; whatever
   is still unaccounted then is counted failed. *)
let drain_grace = 2.0

(* Every rule a serving configuration must meet.  [run] checks them
   first; the CLI reports a violation as a usage error.  An infinite
   rate or duration would issue requests without end. *)
let validate cfg =
  let require ok rule = if not ok then invalid_arg ("Serve: " ^ rule) in
  let finite_positive x = Float.is_finite x && x > 0.0 in
  (match cfg.arrival with
  | Trafficgen.Poisson rate ->
    require (finite_positive rate) "rate must be positive and finite"
  | Trafficgen.Bursty { rate; factor; on_mean; off_mean } ->
    require (finite_positive rate) "rate must be positive and finite";
    require
      (Float.is_finite factor && factor >= 1.0)
      "burst factor must be finite and >= 1";
    require
      (on_mean > 0.0 && off_mean > 0.0)
      "burst phase means must be positive");
  require (finite_positive cfg.duration) "duration must be positive and finite";
  require (cfg.keys > 0) "keys must be positive";
  require (cfg.skew >= 0.0) "skew must be non-negative";
  (let { Trafficgen.read; write; compute } = cfg.mix in
   let weight w = Float.is_finite w && w >= 0.0 in
   require
     (weight read && weight write && weight compute
     && read +. write +. compute > 0.0)
     "class weights must be finite and non-negative, and not all zero");
  require (cfg.workers_per_node > 0) "workers_per_node must be positive";
  match cfg.admission with
  | None -> ()
  | Some a ->
    require (a.admit_rate >= 0.0)
      "admit_rate must be non-negative (0 derives it)";
    require (a.admit_burst > 0.0) "admit_burst must be positive";
    require (a.cutoff > 0) "cutoff must be positive"

let mean_service_cost cfg =
  let m = Trafficgen.normalize cfg.mix in
  (m.Trafficgen.read *. read_cost)
  +. (m.Trafficgen.write *. write_cost)
  +. (m.Trafficgen.compute *. compute_cost)

(* Nominal service capacity, requests per second: what the worker pools
   sustain if service CPU were the only cost.  The CLI and benches use
   it to dial moderate vs 2x-overload arrival rates. *)
let node_capacity_rps cfg =
  float_of_int cfg.workers_per_node /. mean_service_cost cfg
let capacity_rps cfg ~nodes = float_of_int nodes *. node_capacity_rps cfg

type class_stats = {
  cls : Trafficgen.cls;
  mutable issued : int;
  mutable rejected : int;
  mutable completed : int;
  mutable failed : int;
  latency : Sim.Stats.Summary.t;  (* completed requests, issue to notice *)
}

type result = {
  per_class : class_stats list;
  issued : int;
  completed : int;
  rejected : int;
  failed : int;
  duration : float;
  elapsed : float;  (* first issue to drain end *)
  goodput_rps : float;  (* completions per second of [duration] *)
  reject_frac : float;  (* rejected / issued *)
  latency : Sim.Stats.Summary.t;  (* all completed requests *)
  sample_rejection : exn option;
      (* the first shed request's typed failure, for tests and logs *)
}

(* A request's RPC kind is "serve-" and its class name, interned once,
   so no request builds or hashes one. *)
let read_kind = Hw.Packet.Kind.v "serve-read"
let write_kind = Hw.Packet.Kind.v "serve-write"
let compute_kind = Hw.Packet.Kind.v "serve-compute"
let done_kind = Hw.Packet.Kind.v "serve-done"
let rej_kind = Hw.Packet.Kind.v "serve-rej"

let kind_of_cls = function
  | Trafficgen.Read -> read_kind
  | Trafficgen.Write -> write_kind
  | Trafficgen.Compute -> compute_kind

let cls_of_kind kind =
  if kind == read_kind then Some Trafficgen.Read
  else if kind == write_kind then Some Trafficgen.Write
  else if kind == compute_kind then Some Trafficgen.Compute
  else None

(* Position of a class in [Trafficgen.all_classes]. *)
let cls_index = function
  | Trafficgen.Read -> 0
  | Trafficgen.Write -> 1
  | Trafficgen.Compute -> 2

let service_cost = function
  | Trafficgen.Read -> read_cost
  | Trafficgen.Write -> write_cost
  | Trafficgen.Compute -> compute_cost

(* Serve one request at its object in [Atomic] mode: [false] when the
   invoke chased the object onto a corpse (see [run]). *)
let serve_one rt ~mode obj (cls : Trafficgen.cls) =
  let cost = service_cost cls in
  try
    ignore
      (A.Api.invoke rt ~payload:request_bytes ~mode obj (fun cell ->
           Sim.Fiber.consume cost;
           match cls with
           | Trafficgen.Write ->
             incr cell;
             !cell
           | Trafficgen.Read | Trafficgen.Compute -> !cell)
        : int);
    true
  with Topaz.Rpc.Node_dead _ -> false

let report_lines stats ~goodput ~reject_frac ~failed () =
  let ms v = v *. 1e3 in
  List.map
    (fun (st : class_stats) ->
      (* A class can end a (crashy) run with zero completions; report
         its percentiles as 0 rather than raising on the empty summary. *)
      let p q =
        if Sim.Stats.Summary.count st.latency = 0 then 0.0
        else ms (Sim.Stats.Summary.percentile st.latency q)
      in
      Printf.sprintf
        "%-7s issued=%-5d ok=%-5d rej=%-4d fail=%-3d p50=%7.1fms p95=%7.1fms \
         p99=%7.1fms"
        (Trafficgen.cls_name st.cls)
        st.issued st.completed st.rejected st.failed (p 50.0) (p 95.0)
        (p 99.0))
    stats
  @ [
      Printf.sprintf "goodput %.1f rps, reject %.1f%%, failed %d" goodput
        (reject_frac *. 100.0) failed;
    ]

(* Must be called from the main Amber thread.  One engine-RNG split at
   entry is the only interaction a serving run has with the global
   random stream. *)
let run rt (cfg : cfg) =
  validate cfg;
  let eng = A.Runtime.engine rt in
  let rpc = A.Runtime.rpc rt in
  let spans = A.Runtime.spans rt in
  let nodes = A.Runtime.nodes rt in
  let rng = Sim.Rng.split (Sim.Engine.rng eng) in
  let gen_node = A.Api.my_node rt in
  (* Accounting, all mutated from node-0 notice handlers (and the drain
     sweep) only. *)
  let stats =
    List.map
      (fun c ->
        {
          cls = c;
          issued = 0;
          rejected = 0;
          completed = 0;
          failed = 0;
          latency = Sim.Stats.Summary.create ();
        })
      Trafficgen.all_classes
  in
  let by_cls = Array.of_list stats in
  let stat c = by_cls.(cls_index c) in
  let overall_latency = Sim.Stats.Summary.create () in
  let sample_rejection = ref None in
  let outstanding = ref 0 in
  (* Telemetry: when a watcher enabled the runtime's series registry
     (Watch.attach, before this run started), publish per-class latency
     windows — whose derived [.rate] is the goodput curve — plus
     cumulative issue/complete/shed/fail counters.  Unwatched runs take
     the [None] branch everywhere and stay byte-identical. *)
  let metrics = A.Runtime.metrics rt in
  let watched = Sim.Series.enabled metrics in
  let lat_all =
    if watched then
      Some (Sim.Series.window metrics ~name:"serve.latency_ms" ~scale:1e3 ())
    else None
  in
  let lat_cls =
    if watched then
      Some
        (Array.map
           (fun (st : class_stats) ->
             Sim.Series.window metrics
               ~name:
                 (Printf.sprintf "serve.latency_ms[%s]"
                    (Trafficgen.cls_name st.cls))
               ~scale:1e3 ())
           by_cls)
    else None
  in
  if watched then begin
    let sum f =
      float_of_int
        (List.fold_left (fun n (st : class_stats) -> n + f st) 0 stats)
    in
    Sim.Series.counter metrics ~name:"serve.issued" (fun () ->
        sum (fun st -> st.issued));
    Sim.Series.counter metrics ~name:"serve.completed" (fun () ->
        sum (fun st -> st.completed));
    Sim.Series.counter metrics ~name:"serve.rejected" (fun () ->
        sum (fun st -> st.rejected));
    Sim.Series.counter metrics ~name:"serve.failed" (fun () ->
        sum (fun st -> st.failed))
  end;
  (* Service objects, spread round-robin; [ref int] cells under the
     write-invalidate protocol when replicated.  Placement takes real
     virtual time (one move per remote key), so a crash injected early
     can land mid-setup: a move or replica install aimed at a corpse is
     simply skipped — the object stays where it is, and its requests
     resolve through [on_dead] or the drain deadline like any other
     traffic to a dead node. *)
  let objs =
    Array.init cfg.keys (fun k ->
        let o =
          A.Api.create rt ~size:256 ~name:(Printf.sprintf "svc%d" k) (ref 0)
        in
        let dest = k mod nodes in
        (if dest <> gen_node then
           try A.Api.move_to rt o ~dest
           with Topaz.Rpc.Node_dead _ -> ());
        o)
  in
  if cfg.replicate then
    Array.iter
      (fun o ->
        try A.Placement.replicate_everywhere rt ~copy:(fun r -> ref !r) o
        with Topaz.Rpc.Node_dead _ -> ())
      objs;
  (* Per-node bounded work queues and worker pools.  Workers are Amber
     threads (they must be, to invoke), started bootstrap-style on their
     node; like the RPC server fibers they park when idle and are simply
     left parked at the end of the run. *)
  let queues = Array.init nodes (fun _ -> Queue.create ()) in
  let wakers = Array.make nodes [] in
  let inflight = Array.make nodes 0 in
  if watched then
    for n = 0 to nodes - 1 do
      Sim.Series.probe metrics ~name:"serve.admitted" ~node:n (fun () ->
          float_of_int inflight.(n))
    done;
  let enqueue node job =
    Queue.add job queues.(node);
    match wakers.(node) with
    | [] -> ()
    | wake :: rest ->
      wakers.(node) <- rest;
      wake ()
  in
  for node = 0 to nodes - 1 do
    for i = 0 to cfg.workers_per_node - 1 do
      ignore
        (A.Athread.start_on rt ~node
           ~name:(Printf.sprintf "srv-worker-%d.%d" node i)
           (fun () ->
             let q = queues.(node) in
             let rec loop () =
               (match Queue.take_opt q with
               | Some job -> job ()
               | None ->
                 Sim.Fiber.block (fun wake ->
                     wakers.(node) <- wake :: wakers.(node)));
               loop ()
             in
             loop ())
          : unit A.Athread.t)
    done
  done;
  (* Admission: one controller per node; the Rpc hook is consulted at
     datagram arrival and, on admit, reserves the inflight slot right
     there, so the depth cutoff is exact.  Uninstalled before
     returning. *)
  let mix = Trafficgen.normalize cfg.mix in
  (match cfg.admission with
  | None -> ()
  | Some a ->
    let rate =
      if a.admit_rate > 0.0 then a.admit_rate
      else node_capacity_rps cfg *. 1.05
    in
    let classes =
      List.filter_map
        (fun c ->
          let w = Trafficgen.weight mix c in
          if w <= 0.0 then None
          else Some (Trafficgen.cls_name c, rate *. w, a.admit_burst))
        Trafficgen.all_classes
    in
    let ctrls =
      Array.init nodes (fun _ -> Admission.create ~classes ~cutoff:a.cutoff)
    in
    Topaz.Rpc.set_admission rpc
      (Some
         (fun ~dst ~kind ->
           match cls_of_kind kind with
           | None -> true
           | Some cls ->
             let ok =
               Admission.admit ctrls.(dst) ~now:(A.Runtime.now rt)
                 ~cls:(Trafficgen.cls_name cls) ~depth:inflight.(dst)
             in
             if ok then inflight.(dst) <- inflight.(dst) + 1;
             ok)));
  (* The gated report section: registered only when a serving run
     actually happens, so serve-free reports stay byte-identical. *)
  let goodput () =
    float_of_int
      (List.fold_left (fun n (st : class_stats) -> n + st.completed) 0 stats)
    /. cfg.duration
  in
  let reject_frac () =
    let issued =
      List.fold_left (fun n (st : class_stats) -> n + st.issued) 0 stats
    in
    let rejected =
      List.fold_left (fun n (st : class_stats) -> n + st.rejected) 0 stats
    in
    if issued = 0 then 0.0 else float_of_int rejected /. float_of_int issued
  in
  A.Runtime.add_report_section rt ~name:"serve" (fun () ->
      report_lines stats ~goodput:(goodput ()) ~reject_frac:(reject_frac ())
        ~failed:
          (List.fold_left (fun n (st : class_stats) -> n + st.failed) 0 stats)
        ());
  (* Draw the schedule from a dedicated split, one arrival at a time as
     it comes due, and issue it open-loop against the virtual clock. *)
  let arrivals =
    Trafficgen.stream ~rng:(Sim.Rng.split rng) ~arrival:cfg.arrival
      ~mix:cfg.mix ~keys:cfg.keys ~skew:cfg.skew ~duration:cfg.duration
  in
  let t0 = A.Runtime.now rt in
  Seq.iter
    (fun (r : Trafficgen.request) ->
      let gap = t0 +. r.Trafficgen.at -. A.Runtime.now rt in
      if gap > 0.0 then Topaz.Kthread.sleep ~engine:eng gap;
      let st = stat r.Trafficgen.cls in
      st.issued <- st.issued + 1;
      incr outstanding;
      let issued_at = A.Runtime.now rt in
      let key = r.Trafficgen.key in
      let dst = key mod nodes in
      let cls_s = Trafficgen.cls_name r.Trafficgen.cls in
      (* Every request is a self-contained monitor call, so all classes
         invoke in [Atomic] mode: the runtime serializes at the object
         and concurrent requests to a hot key are race-free by
         construction (the sanitized CI run counts on this).  [Read]
         mode's replica fast-path is deliberately not used — it declares
         an externally locked read section, which open-loop traffic does
         not have; replicas still earn their keep under serving as crash
         insurance (master promotion). *)
      let mode = A.San_hooks.Atomic in
      let parent = Sim.Span.current spans in
      (* Worker-side body: serve the request, then notify home.  An
         invoke that chases an object onto a corpse (the move was skipped
         because the node died during placement, or the master died
         since) surfaces [Node_dead] here in the worker; the request is
         reported home as failed rather than completed. *)
      let job () =
        let obj = objs.(key) and cls = r.Trafficgen.cls in
        let ok =
          if Sim.Span.enabled spans then
            Sim.Span.with_span spans Sim.Span.Serve_request ~label:cls_s
              ~tag:cls_s ~arg:key (fun () -> serve_one rt ~mode obj cls)
          else serve_one rt ~mode obj cls
        in
        inflight.(dst) <- inflight.(dst) - 1;
        Topaz.Rpc.post rpc ~src:dst ~dst:gen_node ~kind:done_kind
          ~size:reply_bytes (fun () ->
            if ok then begin
              let dt = A.Runtime.now rt -. issued_at in
              Sim.Stats.Summary.add st.latency dt;
              Sim.Stats.Summary.add overall_latency dt;
              (match lat_all with
              | Some w -> Sim.Series.observe w dt
              | None -> ());
              (match lat_cls with
              | Some ws -> Sim.Series.observe ws.(cls_index r.Trafficgen.cls) dt
              | None -> ());
              st.completed <- st.completed + 1
            end
            else st.failed <- st.failed + 1;
            decr outstanding)
      in
      (* Rejection runs in event context at [dst]: account the shed as a
         typed failure and notify home without touching a fiber. *)
      let on_reject () =
        if !sample_rejection = None then begin
          sample_rejection :=
            Some (A.Overload.Overloaded { node = dst; cls = cls_s });
          (* The first shed is the typed [Overloaded] failure: let the
             flight recorder capture the onset window.  Inert without
             hooks. *)
          A.Runtime.notify_failure rt ~kind:"overloaded" ~node:dst
            ~detail:(Printf.sprintf "first shed: class %s at node%d" cls_s dst)
        end;
        Topaz.Rpc.post rpc ~parent ~src:dst ~dst:gen_node ~kind:rej_kind
          ~size:16 (fun () ->
            st.rejected <- st.rejected + 1;
            decr outstanding)
      in
      (* A request aimed at a corpse fails crisply at the generator. *)
      let on_dead (_ : exn) =
        st.failed <- st.failed + 1;
        decr outstanding
      in
      Topaz.Rpc.post ~on_dead ~on_reject rpc ~src:gen_node ~dst
        ~kind:(kind_of_cls r.Trafficgen.cls) ~size:request_bytes (fun () ->
          enqueue dst job))
    arrivals;
  (* Drain: every issued request resolves as completed, rejected or
     failed; a crash can strand some, so the grace deadline converts
     leftovers into failures instead of hanging the run. *)
  let deadline = t0 +. cfg.duration +. drain_grace in
  let rec drain () =
    if !outstanding > 0 then begin
      let left = deadline -. A.Runtime.now rt in
      if left > 0.0 then begin
        Topaz.Kthread.sleep ~engine:eng (Float.min 5e-3 left);
        drain ()
      end
    end
  in
  drain ();
  (match cfg.admission with
  | None -> ()
  | Some _ -> Topaz.Rpc.set_admission rpc None);
  List.iter
    (fun (st : class_stats) ->
      let unresolved = st.issued - st.rejected - st.completed - st.failed in
      if unresolved > 0 then st.failed <- st.failed + unresolved)
    stats;
  let total f = List.fold_left (fun n (st : class_stats) -> n + f st) 0 stats in
  let issued = total (fun st -> st.issued) in
  {
    per_class = stats;
    issued;
    completed = total (fun st -> st.completed);
    rejected = total (fun st -> st.rejected);
    failed = total (fun st -> st.failed);
    duration = cfg.duration;
    elapsed = A.Runtime.now rt -. t0;
    goodput_rps = goodput ();
    reject_frac = reject_frac ();
    latency = overall_latency;
    sample_rejection = !sample_rejection;
  }
