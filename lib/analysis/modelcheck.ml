(* AmberCheck: systematic schedule-space exploration of the runtime's
   distributed protocols.

   One {!run_one} executes a whole simulated cluster under a
   {!Sim.Choice} chooser: every scheduling decision point — which
   pending engine event fires (deliveries, timers), which ready fiber a
   machine dispatches, what the medium does to a retransmittable packet
   — is reified as a recorded decision.  The explorer drives depth-first
   replay over those decisions with sleep-set / persistent-set
   partial-order reduction: after each execution it looks for racing
   decision pairs (their conflict-key sets intersect) and enqueues the
   reversed prefix; commuting decisions are never reordered, and a
   branch whose whole candidate set is asleep is pruned without running
   the suffix.

   Conflict keys come in two layers:

   - {e static} keys attached to the candidate itself: [net:n<dst>] on
     deliveries, fault verbs and retransmit timers (all traffic into one
     node races on that node's protocol tables), [node:<m>] on machine
     scheduler events (dispatch/chunk order is that node's ready-queue
     state);
   - {e dynamic} keys observed while the chosen alternative executes,
     mapped from the {!San_hooks} event stream by [recording_hooks]
     (same-object invokes [obj:<addr>], same-lock acquires
     [lock:<addr>], condition signal/wake [cond:<token>], same-thread
     lifecycle [tcb:<tid>], future resolve/await [fut:<id>] — the
     sanitizer's happens-before vocabulary).  Dynamic
     keys are what make the reduction sound across nodes: a fiber
     decision carries no static key at all and commutes with everything
     it did not observably touch.

   Every complete execution is audited: AmberSan finalize (races,
   lock-order cycles, location-protocol audits) plus terminal
   invariants — the main thread finished (a quiesced engine with an
   unfinished main is a deadlock under that schedule), no recorded
   thread failures, the fixture's own oracle, exactly-once future
   resolution, no leaked invocation frames, no object left with a
   non-zero writer count, no span left open.  A violation yields a
   replayable {!Schedule.t} counterexample. *)

open Amber
module Choice = Sim.Choice

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

type fixture = {
  fname : string;
  descr : string;
  faults : bool;  (* offer deliver/drop/dup choices on numbered packets *)
  budget : int;  (* default per-execution non-deliver fault budget *)
  cfg : Config.t;
  body : Runtime.t -> unit -> string list;
      (* runs as the program's main thread; returns the oracle closure,
         evaluated after the engine quiesces (deliveries and acks may
         still be in flight when the main thread returns) *)
}

let fixture_name f = f.fname
let fixture_descr f = f.descr

(* Two nodes, one CPU each: cross-node concurrency is exactly the event
   interleaving the checker controls, and no two chunk events of one
   node ever coexist — which keeps the schedule space meaningful
   instead of merely wide.  Two RPC servers per node lets server work
   overlap a blocked nested call without flooding the initial ready
   queues. *)
let base_cfg () =
  let cfg = Config.make ~nodes:2 ~cpus:1 () in
  { cfg with Config.rpc_servers_per_node = 2 }

let replica_fixture =
  {
    fname = "replica";
    descr = "replica grant/recall vs. object move vs. writer";
    faults = false;
    budget = 0;
    cfg = base_cfg ();
    body =
      (fun rt ->
        let obj = Runtime.create_object rt ~size:64 ~name:"cell" (ref 0) in
        let lock = Sync.Lock.create rt ~name:"cell-lock" () in
        Coherence.install rt ~copy:(fun r -> ref !r) obj ~dest:1;
        (* The writer's invalidation recalls the replica and the re-grant
           races the mover; the lock orders the data accesses themselves
           (AmberSan must stay quiet — the protocol interleavings are the
           subject, not a data race in the fixture). *)
        let writer =
          Athread.start rt ~name:"writer" (fun () ->
              Sync.Lock.with_lock rt lock (fun () ->
                  Invoke.invoke rt obj (fun c -> incr c));
              Coherence.install rt ~copy:(fun r -> ref !r) obj ~dest:1)
        in
        let mover =
          Athread.start rt ~name:"mover" (fun () ->
              Mobility.move_to rt obj ~dest:1)
        in
        let reader =
          Athread.start rt ~name:"reader" (fun () ->
              Runtime.migrate_self rt ~dest:1 ();
              Sync.Lock.with_lock rt lock (fun () ->
                  Invoke.invoke rt ~mode:San_hooks.Read obj (fun c -> !c)))
        in
        let seen = Athread.join rt reader in
        Athread.join rt writer;
        Athread.join rt mover;
        let final = Invoke.invoke rt ~mode:San_hooks.Read obj (fun c -> !c) in
        fun () ->
          let v = ref [] in
          if final <> 1 then
            v :=
              Printf.sprintf "lost update: final value %d, wanted 1" final
              :: !v;
          if seen <> 0 && seen <> 1 then
            v :=
              Printf.sprintf
                "replica read returned %d, a state the object never held" seen
              :: !v;
          !v);
  }

let future_fixture =
  {
    fname = "future";
    descr = "future resolve vs. object migration";
    faults = false;
    budget = 0;
    cfg = base_cfg ();
    body =
      (fun rt ->
        let obj = Runtime.create_object rt ~size:128 ~name:"target" (ref 0) in
        Mobility.move_to rt obj ~dest:1;
        let fut =
          Future.invoke_async rt obj (fun c ->
              incr c;
              !c)
        in
        (* race the helper's chase and the resolution notify against a
           move back to the issuer's node *)
        Mobility.move_to rt obj ~dest:0;
        let got = Future.await rt fut in
        let final = Invoke.invoke rt ~mode:San_hooks.Read obj (fun c -> !c) in
        fun () ->
          let v = ref [] in
          if got <> 1 then
            v :=
              Printf.sprintf "await returned %d, wanted 1 (async ran %s)" got
                (if got = 0 then "never" else "twice?")
              :: !v;
          if final <> 1 then
            v := Printf.sprintf "final value %d, wanted 1" final :: !v;
          if not (Future.is_resolved fut) then
            v := "future not resolved after await" :: !v;
          !v);
  }

let rpc_fixture =
  {
    fname = "rpc";
    descr = "RPC retransmit vs. dedup-entry retirement";
    faults = true;
    budget = 1;
    cfg =
      {
        (base_cfg ()) with
        Config.rpc_reliable = true;
        (* a tight retirement count window is what the PR-6 bug needs:
           the safe policy also waits out the arrival horizon, the
           mutated one retires on the count alone *)
        rpc_retire_window = 2;
        rpc_rto = 2e-3;
      };
    body =
      (fun rt ->
        let rpc = Runtime.rpc rt in
        let n = 4 in
        let hits = Array.make n 0 in
        for k = 0 to n - 1 do
          Topaz.Rpc.send_reliable rpc ~src:0 ~dst:1 ~size:64
            ~kind:(Printf.sprintf "probe%d" k) (fun () ->
              hits.(k) <- hits.(k) + 1)
        done;
        fun () ->
          let v = ref [] in
          Array.iteri
            (fun k c ->
              if c <> 1 then
                v :=
                  Printf.sprintf
                    "datagram probe%d delivered %d times (exactly-once \
                     violated)"
                    k c
                  :: !v)
            hits;
          !v);
  }

let steal_fixture =
  {
    fname = "steal";
    descr = "work stealing vs. join";
    faults = false;
    budget = 0;
    cfg = base_cfg ();
    body =
      (fun rt ->
        let worker =
          Athread.start rt ~name:"worker" (fun () ->
              Sim.Fiber.consume 150e-6;
              Sim.Fiber.yield ();
              Sim.Fiber.consume 150e-6;
              42)
        in
        let wtcb = Athread.tcb worker in
        let wts = Athread.tstate worker in
        (* A rival steal attempt — the grab sequence the balancer's
           stealer performs, racing main's join and the worker's own
           progress.  Only fires when the worker is sitting in node 0's
           ready queue at that instant; the chooser decides when the
           instant is. *)
        ignore
          (Sim.Engine.schedule (Runtime.engine rt) ~key:"node:0"
             ~label:"steal-attempt" ~delay:100e-6 (fun () ->
               let vm = Runtime.machine rt 0 in
               match
                 Hw.Machine.take_ready vm (fun t ->
                     Hw.Machine.tcb_id t = Hw.Machine.tcb_id wtcb)
               with
               | None -> ()
               | Some tcb ->
                 Hw.Machine.park tcb;
                 Runtime.with_san rt (fun h ->
                     h
                       (San_hooks.Event.Steal
                          {
                            by = San_hooks.self_tid ();
                            tid = Hw.Machine.tcb_id tcb;
                            victim = 0;
                            thief = 1;
                          }));
                 let ctrs = Runtime.counters rt in
                 ctrs.Runtime.threads_stolen <-
                   ctrs.Runtime.threads_stolen + 1;
                 Runtime.migrate_thread rt wts ~dest:1)
            : Sim.Engine.event_id);
        let got = Athread.join rt worker in
        fun () ->
          if got <> 42 then
            [ Printf.sprintf "join returned %d, worker computed 42" got ]
          else []);
  }

(* Crash fixtures run the reliable transport with a tight retransmit
   budget: a transaction against the corpse must fail after a handful of
   timer events, keeping the schedule space tractable.  The scheduled
   crash is itself an engine event (static key [node:<n>]), so the
   checker reorders the moment of death against every delivery and
   dispatch it races with. *)
let crash_cfg ~nodes crashes =
  let cfg = Config.make ~nodes ~cpus:1 ~crashes () in
  {
    cfg with
    Config.rpc_servers_per_node = 2;
    (* Crash fixtures need the failure detector even when the crash is
       injected from the fixture body rather than [cfg.crashes] (which
       is what normally switches the transport to reliable mode). *)
    rpc_reliable = true;
    rpc_rto = 2e-3;
    rpc_max_retransmits = 4;
  }

(* The bodies below never let the main thread touch an object that can
   be mastered on the crashing node: a remote invoke migrates the
   calling thread to the master, and a main thread that dies with the
   corpse would read as a deadlock under every such schedule.  All
   crash-prone work runs in joined worker threads; a worker killed by
   the crash surfaces as [Node_dead] from its join. *)
let crash_promo_fixture =
  {
    fname = "crash-promo";
    descr = "fail-stop crash vs. replica recall and promotion";
    faults = false;
    budget = 0;
    cfg =
      crash_cfg ~nodes:2
        [ { Config.cnode = 1; at = 0.8e-3; restart = None } ];
    body =
      (fun rt ->
        let obj = Runtime.create_object rt ~size:64 ~name:"cell" (ref 0) in
        let guard f =
          try f ()
          with Topaz.Rpc.Node_dead _ | Aobject.Object_lost _ -> ()
        in
        guard (fun () -> Mobility.move_to rt obj ~dest:1);
        guard (fun () ->
            Coherence.install rt ~copy:(fun r -> ref !r) obj ~dest:0);
        (* The write's invalidation recalls node 0's replica at the
           master — racing the master's death and the promotion that
           follows.  An acked write implies the recall completed, so a
           surviving copy must show it. *)
        let writer =
          Athread.start rt ~name:"writer" (fun () ->
              match Invoke.invoke rt obj (fun c -> incr c) with
              | () -> `Wrote
              | exception Topaz.Rpc.Node_dead _ -> `Dead
              | exception Aobject.Object_lost _ -> `Lost)
        in
        let wrote =
          match Athread.join rt writer with
          | `Wrote -> true
          | `Dead | `Lost -> false
          | exception Topaz.Rpc.Node_dead _ -> false
          | exception Aobject.Object_lost _ -> false
        in
        let reader =
          Athread.start rt ~name:"reader" (fun () ->
              match Invoke.invoke rt ~mode:San_hooks.Read obj (fun c -> !c) with
              | v -> `Read v
              | exception Topaz.Rpc.Node_dead _ -> `Dead
              | exception Aobject.Object_lost _ -> `Lost)
        in
        let final =
          match Athread.join rt reader with
          | r -> r
          | exception Topaz.Rpc.Node_dead _ -> `Dead
          | exception Aobject.Object_lost _ -> `Lost
        in
        fun () ->
          match final with
          | `Read v when v < 0 || v > 1 ->
            [ Printf.sprintf "read %d, a state the object never held" v ]
          | `Read 0 when wrote ->
            [ "acked write vanished from a surviving copy (lost update)" ]
          | _ -> []);
  }

let crash_move_fixture =
  {
    fname = "crash-move";
    descr = "fail-stop crash vs. object move and home-chain repair";
    faults = false;
    budget = 0;
    cfg = crash_cfg ~nodes:3 [];
    body =
      (fun rt ->
        let obj = Runtime.create_object rt ~size:64 ~name:"wanderer" (ref 7) in
        (* The crash is ordered {e causally}, not by timestamp: under
           the chooser any pending event may fire next regardless of its
           virtual time, so a cfg-scheduled crash almost always preempts
           the move and the "crash after the move completed" state this
           fixture is about would be unreachable.  Calling
           {!Runtime.fail_stop} from the body pins the setup — move
           done, replica granted — while the chooser still explores
           every interleaving of recovery against the in-flight
           reader. *)
        let guard f =
          try f ()
          with Topaz.Rpc.Node_dead _ | Aobject.Object_lost _ -> ()
        in
        (* The transport's failure detector can trip spuriously when the
           chooser starves an ack past the retransmit budget — then the
           move rolls back and the object simply stays home, which the
           readers below tolerate (they only require {e some} live
           route). *)
        guard (fun () -> Mobility.move_to rt obj ~dest:1);
        guard (fun () -> Coherence.install rt ~copy:(fun r -> ref !r) obj ~dest:2);
        (* [install] is advisory: it can return without granting (racing
           writer, spurious failure-detector trip, ...).  Only an
           actually-installed snapshot obliges recovery to promote, so
           probe the real grant state rather than trusting the call. *)
        let installed =
          List.mem 2 obj.Aobject.replicas
          && Aobject.snapshot obj ~node:2 <> None
        in
        let read_once name =
          Athread.start rt ~name (fun () ->
              match Invoke.invoke rt ~mode:San_hooks.Read obj (fun c -> !c) with
              | v -> `Read v
              | exception Topaz.Rpc.Node_dead _ -> `Dead
              | exception Aobject.Object_lost _ -> `Lost)
        in
        (* One reader in flight at the instant of death: it may settle
           before the crash, die with the corpse, or chase through
           recovery — all fine as long as a read that does complete
           returns 7. *)
        let early = read_once "early-reader" in
        Runtime.fail_stop rt ~node:1;
        (* Node 0's home entry forwarded through node 1 while the master
           lived there.  Recovery must promote node 2's replica and
           re-point the entry at it, so a post-funeral retry always gets
           through — while the [skip-home-repair] mutation sends every
           retry down the stale entry into the corpse. *)
        let rec go k =
          if k = 0 then `Gave_up
          else
            match Athread.join rt (read_once "reader") with
            | (`Read _ | `Lost) as r -> r
            | `Dead -> go (k - 1)
            | exception Topaz.Rpc.Node_dead _ -> go (k - 1)
            | exception Aobject.Object_lost _ -> `Lost
        in
        let got = go 3 in
        let early_got =
          match Athread.join rt early with
          | r -> r
          | exception Topaz.Rpc.Node_dead _ -> `Dead
          | exception Aobject.Object_lost _ -> `Lost
        in
        fun () ->
          let bad_read tag r =
            match r with
            | `Read v when v <> 7 ->
              [ Printf.sprintf "%s read %d from a master that always held 7"
                  tag v ]
            | `Lost when installed ->
              [ Printf.sprintf
                  "%s: object lost though a replica survived on node 2" tag ]
            | _ -> []
          in
          bad_read "early reader" early_got
          @ bad_read "retry reader" got
          @ (match got with
            | `Gave_up ->
              [ "no surviving route to a live object (reader gave up)" ]
            | _ -> []));
  }

let fixtures =
  [
    replica_fixture;
    future_fixture;
    rpc_fixture;
    steal_fixture;
    crash_promo_fixture;
    crash_move_fixture;
  ]

let find_fixture name =
  List.find_opt (fun f -> f.fname = name) fixtures

(* ------------------------------------------------------------------ *)
(* Mutations (known-bug re-introductions for checker smoke tests)      *)
(* ------------------------------------------------------------------ *)

type mutation = Dedup_count_window | Skip_home_repair

let mutation_names = [ "dedup-count-window"; "skip-home-repair" ]

let mutation_of_string = function
  | "dedup-count-window" -> Some Dedup_count_window
  | "skip-home-repair" -> Some Skip_home_repair
  | _ -> None

let apply_mutation m f =
  match m with
  | Dedup_count_window ->
    { f with cfg = { f.cfg with Config.rpc_unsafe_dedup = true } }
  | Skip_home_repair ->
    (* Fail-stop recovery without the chain-repair sweep: descriptors
       still routing through the corpse are left stale, and a chase down
       one dies of [Node_dead] though the object has a live master. *)
    { f with cfg = { f.cfg with Config.crash_skip_repair = true } }

(* ------------------------------------------------------------------ *)
(* Conflict keys                                                       *)
(* ------------------------------------------------------------------ *)

(* One recorded decision of one execution. *)
type entry = {
  cands : Choice.candidate array;
  chosen : int;
  mutable dyn : string list;  (* dynamic keys observed while it ran *)
}

(* The key set a decision conflicts on.  An [Event] or [Fault] decision
   with no static key is unknown state — it conflicts with everything
   ("*").  A [Fiber] decision deliberately has {e no} static component:
   dispatch order matters only through what the dispatched code
   observably touched, which is exactly its dynamic keys; an empty set
   commutes with everything (e.g. the startup order of idle RPC server
   fibers). *)
let keyset (e : entry) =
  let c = e.cands.(e.chosen) in
  match c.Choice.dom with
  | Choice.Fiber -> e.dyn
  | Choice.Event | Choice.Fault ->
    if c.Choice.key = "" then [ "*" ] else c.Choice.key :: e.dyn

let conflict ka kb =
  List.mem "*" ka || List.mem "*" kb
  || List.exists (fun k -> List.mem k kb) ka

(* ------------------------------------------------------------------ *)
(* Sanitizer-hook recorder: dynamic conflict keys                      *)
(* ------------------------------------------------------------------ *)

(* Wrap the attached AmberSan hook so that every instrumentation event
   also reports its subject as a dynamic conflict key of the
   currently-executing decision, and future resolutions are counted for
   the all-futures-resolved invariant.  Sync-object accesses keep their
   [obj:] key although AmberSan drops them. *)
let recording_hooks eng ~resolved (h : San_hooks.t) : San_hooks.t =
  let note fmt = Printf.ksprintf (Sim.Engine.note_access eng) fmt in
  fun ev ->
    (match ev with
    | San_hooks.Event.Thread_start { child = tid; _ }
    | Thread_join { child = tid; _ }
    | Migrate { tid; _ }
    | Steal { tid; _ } ->
      note "tcb:%d" tid
    | Object_created { addr; _ }
    | Object_destroyed { addr }
    | Access { addr; _ }
    | Access_end { addr; _ }
    | Move_begin { addr }
    | Move_end { addr }
    | Replica_read { addr; _ } ->
      note "obj:%d" addr
    | Sync_created { addr; _ }
    | Lock_acquired { addr; _ }
    | Lock_released { addr; _ }
    | Barrier { addr; _ } ->
      note "lock:%d" addr
    | Cond_signal { token; _ } | Cond_wake { token; _ } -> note "cond:%d" token
    | Future_resolve { id; _ } ->
      incr resolved;
      note "fut:%d" id
    | Future_await { id; _ } -> note "fut:%d" id);
    h ev

(* ------------------------------------------------------------------ *)
(* One controlled execution                                            *)
(* ------------------------------------------------------------------ *)

exception Sleep_blocked
exception Too_deep

exception
  Divergence of { depth : int; want : int; have : int }
      (* a replayed prefix asked for a candidate index the execution
         does not offer — schedule from another binary or fixture *)

type run_result =
  | Blocked of int  (* sleep-set pruned after this many decisions *)
  | Run of { trail : entry array; violations : string list; truncated : bool }

let run_one ?random fx ~prefix ~sleep0 ~max_depth ~fault_budget ~section =
  let rt = Runtime.create fx.cfg in
  let san = Ambersan.attach rt in
  let resolved = ref 0 in
  (match Runtime.sanitizer rt with
  | Some h ->
    Runtime.set_sanitizer rt (recording_hooks (Runtime.engine rt) ~resolved h)
  | None -> ());
  Sim.Span.set_enabled (Runtime.spans rt) true;
  Runtime.add_report_section rt ~name:"modelcheck" section;
  let rev_trail = ref [] in
  let depth = ref 0 in
  let last = ref None in
  let sleep : (string, string) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (id, key) -> Hashtbl.replace sleep id key) sleep0;
  (* A slept transition wakes as soon as a dependent one executes: keep
     only sleepers that commute with what just ran.  A sleeper's own key
     set is approximated by its static key (unknown = wake). *)
  let wake_after e =
    if Hashtbl.length sleep > 0 then begin
      let ks = keyset e in
      let stale =
        Hashtbl.fold
          (fun id key acc ->
            if conflict ks [ (if key = "" then "*" else key) ] then id :: acc
            else acc)
          sleep []
      in
      List.iter (Hashtbl.remove sleep) stale
    end
  in
  let prefix_len = Array.length prefix in
  let faults_spent = ref 0 in
  let pick dom (cands : Choice.candidate array) =
    (match !last with Some e -> wake_after e | None -> ());
    let d = !depth in
    if d >= max_depth then raise Too_deep;
    let choice =
      if d < prefix_len then begin
        let i = prefix.(d) in
        if i < 0 || i >= Array.length cands then
          raise (Divergence { depth = d; want = i; have = Array.length cands });
        i
      end
      else begin
        let n = Array.length cands in
        let asleep i = Hashtbl.mem sleep cands.(i).Choice.ident in
        if dom = Choice.Fault && !faults_spent >= fault_budget then
          (* budget exhausted: delivery is forced; alternatives of this
             decision are never enqueued either (see [explore]) *)
          if asleep 0 then raise Sleep_blocked else 0
        else begin
          match random with
          | Some rng -> Random.State.int rng n
          | None ->
            let rec find i =
              if i >= n then raise Sleep_blocked
              else if asleep i then find (i + 1)
              else i
            in
            find 0
        end
      end
    in
    if dom = Choice.Fault && choice <> 0 then incr faults_spent;
    let e = { cands; chosen = choice; dyn = [] } in
    rev_trail := e :: !rev_trail;
    last := Some e;
    incr depth;
    choice
  in
  let chooser =
    {
      Choice.pick;
      faults = fx.faults;
      note_access =
        (fun k ->
          match !last with
          | Some e -> if not (List.mem k e.dyn) then e.dyn <- k :: e.dyn
          | None -> ());
    }
  in
  let eng = Runtime.engine rt in
  let thread = ref None in
  let status =
    Fun.protect
      ~finally:(fun () -> Sim.Engine.set_chooser eng None)
      (fun () ->
        Sim.Engine.set_chooser eng (Some chooser);
        thread :=
          Some (Athread.start_on rt ~node:0 ~name:"main" (fun () -> fx.body rt));
        try
          ignore (Sim.Engine.run eng : int);
          `Complete
        with
        | Sleep_blocked -> `Blocked
        | Too_deep -> `Truncated)
  in
  match status with
  | `Blocked -> Blocked !depth
  | (`Complete | `Truncated) as status ->
    let trail = Array.of_list (List.rev !rev_trail) in
    let truncated = status = `Truncated in
    let violations = ref [] in
    let viol fmt =
      Printf.ksprintf (fun s -> violations := s :: !violations) fmt
    in
    (* A truncated execution is an exploration artifact, not a protocol
       state: its invariants are vacuous. *)
    if not truncated then begin
      let thread = Option.get !thread in
      (try Runtime.check_failures rt
       with e -> viol "thread failure: %s" (Printexc.to_string e));
      (match Hw.Machine.state (Athread.tcb thread) with
      | Hw.Machine.Finished (Sim.Fiber.Failed e) ->
        viol "main thread failed: %s" (Printexc.to_string e)
      | Hw.Machine.Finished Sim.Fiber.Completed -> (
        match (Athread.result_exn thread) () with
        | [] -> ()
        | oracle -> List.iter (fun s -> viol "oracle: %s" s) oracle)
      | Hw.Machine.Ready | Hw.Machine.Running _ | Hw.Machine.Blocked ->
        viol "deadlock: engine quiesced with the main thread unfinished");
      let sr = Ambersan.finalize san in
      if Ambersan.failed sr then
        viol "sanitizer: %s" (Format.asprintf "%a" Ambersan.pp_report sr);
      Runtime.iter_threads rt (fun ts ->
          if ts.Runtime.frames <> [] then
            viol "leaked invocation frame on tid %d"
              (Hw.Machine.tcb_id ts.Runtime.tcb));
      List.iter
        (fun (Aobject.Any o) ->
          if o.Aobject.writers <> 0 then
            viol "object %s left with %d writers in flight" o.Aobject.name
              o.Aobject.writers)
        (Runtime.objects rt);
      List.iter
        (fun f -> viol "span balance: %s" f)
        (Spanlint.lint (Sim.Span.spans (Runtime.spans rt)));
      let created = (Runtime.counters rt).Runtime.async_invocations in
      if !resolved <> created then
        viol "futures: %d created, %d resolutions observed" created !resolved
    end;
    Run { trail; violations = List.rev !violations; truncated }

(* ------------------------------------------------------------------ *)
(* Depth-first exploration with partial-order reduction                *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable schedules : int;  (* complete executions *)
  mutable pruned : int;  (* sleep-set-blocked branches *)
  mutable truncated : int;  (* executions cut off at max depth *)
  mutable decisions : int;  (* decision points executed, all runs *)
  mutable max_depth : int;
  mutable frontier : int option;
      (* DFS, once stopped: branches still enqueued; 0 means the
         exploration finished *)
  mutable wall : float;  (* host seconds spent exploring *)
}

type outcome = {
  fixture : string;
  stats : stats;
  counterexample : (Schedule.t * string list) option;
}

let new_stats () =
  {
    schedules = 0;
    pruned = 0;
    truncated = 0;
    decisions = 0;
    max_depth = 0;
    frontier = None;
    wall = 0.0;
  }

let schedule_of_trail trail =
  Array.to_list trail
  |> List.map (fun e ->
         Schedule.of_choice e.cands.(e.chosen) ~index:e.chosen
           ~ncands:(Array.length e.cands))

let stats_lines st =
  [
    Printf.sprintf "schedules explored     %d" st.schedules;
    Printf.sprintf "branches slept (POR)   %d" st.pruned;
    Printf.sprintf "depth-truncated runs   %d" st.truncated;
    Printf.sprintf "decision points        %d" st.decisions;
    Printf.sprintf "max schedule depth     %d" st.max_depth;
  ]
  @ (match st.frontier with
    | Some n -> [ Printf.sprintf "unexplored branches    %d" n ]
    | None -> [])
  @ [ Printf.sprintf "wall time              %.2fs" st.wall ]

(* The explored tree.  A node is one decision state, named by the choice
   path from the root; an execution is deterministic in that path, so
   the node's candidate array is the same in every execution through it
   and the node need only remember indices.  [tried] holds the indices
   run or enqueued there, [kids] the nodes they lead to. *)
type node = {
  up : node;  (* the parent; the root is its own *)
  via : int;  (* the index taken at [up] to reach this node *)
  depth : int;
  mutable tried : int list;
  mutable kids : node list;
}

let child node i =
  let rec find = function
    | k :: rest -> if k.via = i then k else find rest
    | [] ->
      let k =
        { up = node; via = i; depth = node.depth + 1; tried = []; kids = [] }
      in
      node.kids <- k :: node.kids;
      k
  in
  find node.kids

(* The choice path that replays to [node]. *)
let path node =
  let p = Array.make node.depth 0 in
  let rec fill n =
    if n.depth > 0 then begin
      p.(n.depth - 1) <- n.via;
      fill n.up
    end
  in
  fill node;
  p

(* A branch replays the path to [start], then runs on with [sleep0]
   asleep. *)
type branch = { start : node; sleep0 : (string * string) list }

let explore ?(max_schedules = 4000) ?(max_depth = 3000) ?fault_budget fx =
  let fault_budget = Option.value fault_budget ~default:fx.budget in
  let t0 = Unix.gettimeofday () in
  let st = new_stats () in
  let section () = stats_lines st in
  let rec root = { up = root; via = -1; depth = 0; tried = []; kids = [] } in
  let stack = ref [ { start = root; sleep0 = [] } ] in
  let counterexample = ref None in
  while
    !stack <> []
    && !counterexample = None
    && st.schedules + st.truncated < max_schedules
  do
    let b = List.hd !stack in
    stack := List.tl !stack;
    match
      run_one fx ~prefix:(path b.start) ~sleep0:b.sleep0 ~max_depth
        ~fault_budget ~section
    with
    | Blocked d ->
      st.pruned <- st.pruned + 1;
      st.decisions <- st.decisions + d
    | Run { trail; violations; truncated } ->
      let n = Array.length trail in
      st.decisions <- st.decisions + n;
      if n > st.max_depth then st.max_depth <- n;
      if truncated then st.truncated <- st.truncated + 1
      else st.schedules <- st.schedules + 1;
      if violations <> [] then
        counterexample := Some (schedule_of_trail trail, violations)
      else begin
        (* walk this execution's path through the tree once, marking its
           own choices explored; [nodes.(d)] is the state of decision d *)
        let nodes = Array.make n root in
        for d = 0 to n - 1 do
          let node =
            if d = 0 then root else child nodes.(d - 1) trail.(d - 1).chosen
          in
          nodes.(d) <- node;
          let c = trail.(d).chosen in
          if not (List.mem c node.tried) then node.tried <- c :: node.tried
        done;
        let keysets = Array.map keyset trail in
        let faults_before = Array.make (n + 1) 0 in
        for j = 0 to n - 1 do
          let extra =
            if
              trail.(j).cands.(trail.(j).chosen).Choice.dom = Choice.Fault
              && trail.(j).chosen <> 0
            then 1
            else 0
          in
          faults_before.(j + 1) <- faults_before.(j) + extra
        done;
        let push_alt i alt =
          let node = nodes.(i) in
          if not (List.mem alt node.tried) then begin
            (* transitions already taken from this node sleep in the new
               branch until something dependent wakes them *)
            let sleep0 =
              List.map
                (fun a ->
                  let c = trail.(i).cands.(a) in
                  (c.Choice.ident, c.Choice.key))
                node.tried
            in
            node.tried <- alt :: node.tried;
            stack := { start = child node alt; sleep0 } :: !stack
          end
        in
        for j = 0 to n - 1 do
          let ej = trail.(j) in
          let cj = ej.cands.(ej.chosen) in
          match cj.Choice.dom with
          | Choice.Fault ->
            (* fault decisions are branch points, not races: explore
               every verb the budget allows *)
            for alt = 0 to Array.length ej.cands - 1 do
              if
                alt <> ej.chosen
                && (alt = 0 || faults_before.(j) < fault_budget)
              then push_alt j alt
            done
          | Choice.Event | Choice.Fiber ->
            (* race reversal: find the latest earlier decision this one
               conflicts with and schedule this transition there instead *)
            let rec back i =
              if i >= 0 then
                if
                  trail.(i).cands.(trail.(i).chosen).Choice.dom <> Choice.Fault
                  && conflict keysets.(i) keysets.(j)
                then begin
                  let ei = trail.(i) in
                  let found = ref false in
                  Array.iteri
                    (fun a (c : Choice.candidate) ->
                      if (not !found) && c.Choice.ident = cj.Choice.ident
                      then begin
                        found := true;
                        if a <> ei.chosen then push_alt i a
                      end)
                    ei.cands;
                  (* the racing transition was not yet enabled at [i]:
                     fall back to trying every alternative there
                     (classic DPOR's "add all enabled") *)
                  if not !found then
                    for a = 0 to Array.length ei.cands - 1 do
                      if a <> ei.chosen then push_alt i a
                    done
                end
                else back (i - 1)
            in
            back (j - 1)
        done
      end
  done;
  st.frontier <- Some (List.length !stack);
  st.wall <- Unix.gettimeofday () -. t0;
  { fixture = fx.fname; stats = st; counterexample = !counterexample }

(* ------------------------------------------------------------------ *)
(* Random-walk exploration (schedule fuzzing)                          *)
(* ------------------------------------------------------------------ *)

(* A complement to systematic DFS: draw every decision uniformly at
   random from the candidate set.  Where [explore] must build up a deep
   reordering one race reversal at a time, a random walk samples the
   whole schedule space at once, so interleavings that are many
   reversals away from the timestamp order — a duplicate parked behind a
   burst of acks, say — turn up after a few thousand walks instead of
   deep in an exponential frontier.  The trade-off is the opposite of
   DFS's: no exhaustiveness, but no frontier either.  Deterministic for
   a given seed; a violating walk is returned as an ordinary replayable
   schedule. *)
let fuzz ?(max_schedules = 4000) ?(max_depth = 3000) ?fault_budget ~seed fx =
  let fault_budget = Option.value fault_budget ~default:fx.budget in
  let t0 = Unix.gettimeofday () in
  let st = new_stats () in
  let section () = stats_lines st in
  let rng = Random.State.make [| seed |] in
  let counterexample = ref None in
  while
    !counterexample = None && st.schedules + st.truncated < max_schedules
  do
    match
      run_one ~random:rng fx ~prefix:[||] ~sleep0:[] ~max_depth ~fault_budget
        ~section
    with
    | Blocked _ -> assert false (* no sleep set installed *)
    | Run { trail; violations; truncated } ->
      let n = Array.length trail in
      st.decisions <- st.decisions + n;
      if n > st.max_depth then st.max_depth <- n;
      if truncated then st.truncated <- st.truncated + 1
      else st.schedules <- st.schedules + 1;
      if violations <> [] then
        counterexample := Some (schedule_of_trail trail, violations)
  done;
  st.wall <- Unix.gettimeofday () -. t0;
  { fixture = fx.fname; stats = st; counterexample = !counterexample }

(* ------------------------------------------------------------------ *)
(* Single-schedule replay                                              *)
(* ------------------------------------------------------------------ *)

(* Re-run one recorded schedule and return its violations (empty =
   clean).  Decisions beyond the recorded prefix take the default
   (first) alternative. *)
let replay ?(max_depth = 3000) fx (sched : Schedule.t) =
  let prefix = Array.of_list (List.map (fun d -> d.Schedule.index) sched) in
  let st = ref [] in
  match
    run_one fx ~prefix ~sleep0:[] ~max_depth
      ~fault_budget:max_int (* the prefix already encodes the faults *)
      ~section:(fun () -> !st)
  with
  | exception Divergence { depth; want; have } ->
    (* The schedule indexes into decision points that this build of the
       fixture no longer presents — it was recorded against a different
       mutation (or code).  Surface it as a result, not a crash: a
       counterexample that stops reproducing after a fix is the
       expected green side of a red/green replay pair. *)
    [
      Printf.sprintf
        "replay diverged at decision %d (recorded candidate %d, %d \
         available): schedule recorded against a different build or \
         mutation"
        depth want have;
    ]
  | Blocked _ -> assert false (* no sleep set installed *)
  | Run { violations; truncated; _ } ->
    if truncated then
      violations @ [ "replay truncated: schedule deeper than max depth" ]
    else violations
