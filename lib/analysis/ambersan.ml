open Amber

module Imap = Map.Make (Int)

(* Tids, addresses, condition tokens, future ids and barrier generations
   are all ints: one table type keys them, with no polymorphic hash. *)
module Itbl = Vaspace.Addr_table

type clock = int Imap.t

let cjoin a b = Imap.union (fun _ x y -> Some (Int.max x y)) a b
let cget c tid = match Imap.find_opt tid c with Some v -> v | None -> 0

(* ------------------------------------------------------------------ *)
(* Findings                                                            *)
(* ------------------------------------------------------------------ *)

type race = {
  addr : int;
  name : string;
  tid : int;
  mode : San_hooks.mode;
  prior_tid : int;
  prior_mode : San_hooks.mode;
}

let pp_race ppf r =
  Format.fprintf ppf "race on %s@0x%x: thread %d %a vs thread %d %a" r.name
    r.addr r.prior_tid San_hooks.pp_mode r.prior_mode r.tid San_hooks.pp_mode
    r.mode

type cycle = { addrs : int list; names : string list }

let pp_cycle ppf c =
  Format.fprintf ppf "lock-order cycle: %s"
    (String.concat " -> " (c.names @ [ List.hd c.names ]))

type report = {
  races : race list;
  cycles : cycle list;
  violations : Audit.violation list;
  events : int;
  threads : int;
  objects_tracked : int;
}

let findings r =
  List.length r.races + List.length r.cycles + List.length r.violations

let clean r = findings r = 0
let failed r = not (clean r)

let pp_report ppf r =
  Format.fprintf ppf
    "AmberSan: %d events, %d threads, %d objects tracked@." r.events r.threads
    r.objects_tracked;
  if clean r then Format.fprintf ppf "no findings@."
  else begin
    List.iter (fun x -> Format.fprintf ppf "%a@." pp_race x) r.races;
    List.iter (fun x -> Format.fprintf ppf "%a@." pp_cycle x) r.cycles;
    List.iter
      (fun v -> Format.fprintf ppf "coherence: %a@." Audit.pp_violation v)
      r.violations
  end

(* ------------------------------------------------------------------ *)
(* The happens-before engine                                           *)
(* ------------------------------------------------------------------ *)

module Core = struct
  (* Last access by one thread: its component of the thread clock at the
     access, plus how it accessed.  Keeping only the latest access per
     thread is sound because a thread's accesses to one object are
     totally ordered by program order. *)
  type epoch = { etid : int; etime : int; emode : San_hooks.mode }

  type obj_info = {
    oname : string;
    mutable oclock : clock;  (* published at atomic rendezvous points *)
    mutable writes : epoch list;  (* Write/Atomic frontier, one per tid *)
    mutable reads : epoch list;  (* Read frontier, one per tid *)
  }

  type barrier_info = {
    mutable pending : clock;  (* accumulated arrivals of the open gen *)
    released : clock Itbl.t;  (* generation -> release clock *)
  }

  type t = {
    clocks : clock ref Itbl.t;  (* tcb id -> vector clock *)
    objects : obj_info Itbl.t;
    sync_addrs : unit Itbl.t;
    names : string Itbl.t;
    locks : clock Itbl.t;  (* lock addr -> last-release clock *)
    barriers : barrier_info Itbl.t;
    signals : clock Itbl.t;  (* condition token -> signal clock *)
    futures : clock Itbl.t;  (* future id -> resolve clock *)
    open_accesses : (int * San_hooks.mode) list ref Itbl.t;
        (* tid -> its open (addr, mode) accesses, newest first *)
    held : int list ref Itbl.t;  (* tid -> held locks, LIFO *)
    lock_edges : (int * int, unit) Hashtbl.t;  (* held -> acquired *)
    mutable races : race list;
    mutable events : int;
  }

  let create () =
    {
      clocks = Itbl.create 32;
      objects = Itbl.create 64;
      sync_addrs = Itbl.create 16;
      names = Itbl.create 64;
      locks = Itbl.create 16;
      barriers = Itbl.create 8;
      signals = Itbl.create 16;
      futures = Itbl.create 16;
      open_accesses = Itbl.create 16;
      held = Itbl.create 16;
      lock_edges = Hashtbl.create 16;
      races = [];
      events = 0;
    }

  let thread_clock t tid =
    match Itbl.find_opt t.clocks tid with
    | Some r -> r
    | None ->
      let r = ref (Imap.singleton tid 1) in
      Itbl.replace t.clocks tid r;
      r

  let tick r tid = r := Imap.add tid (cget !r tid + 1) !r

  let obj_info t addr =
    match Itbl.find_opt t.objects addr with
    | Some o -> o
    | None ->
      let o =
        {
          oname =
            (match Itbl.find_opt t.names addr with
            | Some n -> n
            | None -> Printf.sprintf "0x%x" addr);
          oclock = Imap.empty;
          writes = [];
          reads = [];
        }
      in
      Itbl.replace t.objects addr o;
      o

  let barrier_info t addr =
    match Itbl.find_opt t.barriers addr with
    | Some b -> b
    | None ->
      let b = { pending = Imap.empty; released = Itbl.create 8 } in
      Itbl.replace t.barriers addr b;
      b

  let is_sync t addr = Itbl.mem t.sync_addrs addr

  (* One finding per object and pair of threads.  Findings are few, so a
     scan of them is the dedup. *)
  let record_race t ~addr ~name ~tid ~mode ~(prior : epoch) =
    let lo = Int.min tid prior.etid and hi = Int.max tid prior.etid in
    let same (r : race) =
      r.addr = addr
      && Int.min r.tid r.prior_tid = lo
      && Int.max r.tid r.prior_tid = hi
    in
    if not (List.exists same t.races) then begin
      t.races <-
        {
          addr;
          name;
          tid;
          mode;
          prior_tid = prior.etid;
          prior_mode = prior.emode;
        }
        :: t.races
    end

  (* Replace [tid]'s entry in an epoch frontier. *)
  let update_frontier frontier ep =
    ep :: List.filter (fun e -> e.etid <> ep.etid) frontier

  let feed_access t ~tid ~addr ~mode =
    let o = obj_info t addr in
    let cr = thread_clock t tid in
    (* An atomic action is serialized at the object: it rendezvouses with
       every earlier atomic action through the object's clock.  Joining at
       entry (not just exit) keeps overlapping atomic invocations — e.g.
       two threads holding invocation frames on the same anchor — from
       looking concurrent. *)
    (match mode with
    | San_hooks.Atomic -> cr := cjoin !cr o.oclock
    | San_hooks.Read | San_hooks.Write -> ());
    let ordered (e : epoch) = e.etime <= cget !cr e.etid in
    let conflicts frontier =
      List.filter (fun e -> e.etid <> tid && not (ordered e)) frontier
    in
    let prior =
      match mode with
      | San_hooks.Read -> conflicts o.writes
      | San_hooks.Write | San_hooks.Atomic ->
        conflicts o.writes @ conflicts o.reads
    in
    List.iter
      (fun p -> record_race t ~addr ~name:o.oname ~tid ~mode ~prior:p)
      prior;
    let ep = { etid = tid; etime = cget !cr tid; emode = mode } in
    (match mode with
    | San_hooks.Read -> o.reads <- update_frontier o.reads ep
    | San_hooks.Write | San_hooks.Atomic ->
      o.writes <- update_frontier o.writes ep);
    (match mode with
    | San_hooks.Atomic -> o.oclock <- cjoin o.oclock !cr
    | San_hooks.Read | San_hooks.Write -> ());
    tick cr tid;
    let opened =
      match Itbl.find_opt t.open_accesses tid with
      | Some s -> s
      | None ->
        let s = ref [] in
        Itbl.replace t.open_accesses tid s;
        s
    in
    opened := (addr, mode) :: !opened

  (* The mode of the newest open access to [addr]. *)
  let rec open_mode (addr : int) = function
    | [] -> raise_notrace Not_found
    | (a, mode) :: rest -> if a = addr then mode else open_mode addr rest

  (* The open accesses without the newest one to [addr]. *)
  let rec close (addr : int) = function
    | [] -> []
    | ((a, _) as x) :: rest -> if a = addr then rest else x :: close addr rest

  let feed_access_end t ~tid ~addr =
    match Itbl.find_opt t.open_accesses tid with
    | None -> ()
    | Some opened -> (
      match open_mode addr !opened with
      | exception Not_found -> ()
      | mode -> (
        opened := close addr !opened;
        match mode with
        | San_hooks.Atomic ->
          (* Exit rendezvous: absorb publications made by invocations that
             overlapped this one, and publish our post-access clock. *)
          let o = obj_info t addr in
          let cr = thread_clock t tid in
          cr := cjoin !cr o.oclock;
          o.oclock <- cjoin o.oclock !cr
        | San_hooks.Read | San_hooks.Write -> ()))

  let held_stack t tid =
    match Itbl.find_opt t.held tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Itbl.replace t.held tid s;
      s

  let feed t (ev : San_hooks.Event.t) =
    t.events <- t.events + 1;
    match ev with
    | Thread_start { parent; child } ->
      let cc = thread_clock t child in
      if parent >= 0 then begin
        let pc = thread_clock t parent in
        cc := cjoin !cc !pc;
        tick pc parent
      end
    | Thread_join { parent; child } ->
      if parent >= 0 then begin
        let pc = thread_clock t parent in
        let cc = thread_clock t child in
        pc := cjoin !pc !cc
      end
    | Migrate _ ->
      (* Clocks are keyed by tcb id, which survives migration; the
         thread-state flight itself is program order. *)
      ()
    | Move_begin _ | Move_end _ ->
      (* They drive the online move-quiescence audit and are never
         recorded. *)
      ()
    | Object_created { addr; name } ->
      Itbl.replace t.names addr name;
      (* Heap addresses are reused after destroy: a fresh object at a
         known address starts with no access history. *)
      Itbl.replace t.objects addr
        { oname = name; oclock = Imap.empty; writes = []; reads = [] }
    | Object_destroyed { addr } -> Itbl.remove t.objects addr
    | Sync_created { addr; kind = _ } -> Itbl.replace t.sync_addrs addr ()
    | Access { tid; addr; mode } ->
      if not (is_sync t addr) then feed_access t ~tid ~addr ~mode
    | Access_end { tid; addr } ->
      if not (is_sync t addr) then feed_access_end t ~tid ~addr
    | Lock_acquired { tid; addr } ->
      let cr = thread_clock t tid in
      (match Itbl.find_opt t.locks addr with
      | Some l -> cr := cjoin !cr l
      | None -> ());
      let h = held_stack t tid in
      List.iter
        (fun prior ->
          if prior <> addr then Hashtbl.replace t.lock_edges (prior, addr) ())
        !h;
      h := addr :: !h
    | Lock_released { tid; addr } ->
      let cr = thread_clock t tid in
      let l =
        match Itbl.find_opt t.locks addr with
        | Some l -> l
        | None -> Imap.empty
      in
      Itbl.replace t.locks addr (cjoin l !cr);
      tick cr tid;
      let h = held_stack t tid in
      let removed = ref false in
      h :=
        List.filter
          (fun a ->
            if (not !removed) && a = addr then begin
              removed := true;
              false
            end
            else true)
          !h
    | Barrier { tid; addr; gen; phase } -> (
      let b = barrier_info t addr in
      let cr = thread_clock t tid in
      match phase with
      | Arrive -> b.pending <- cjoin b.pending !cr
      | Release ->
        Itbl.replace b.released gen b.pending;
        cr := cjoin !cr b.pending;
        b.pending <- Imap.empty;
        tick cr tid
      | Resume ->
        (match Itbl.find_opt b.released gen with
        | Some c -> cr := cjoin !cr c
        | None -> ());
        tick cr tid)
    | Cond_signal { tid; token } ->
      let cr = thread_clock t tid in
      Itbl.replace t.signals token !cr;
      tick cr tid
    | Cond_wake { tid; token } -> (
      let cr = thread_clock t tid in
      match Itbl.find_opt t.signals token with
      | Some c -> cr := cjoin !cr c
      | None -> ())
    | Replica_read _ ->
      (* The race-relevant Read access arrives as its own [Access] event;
         staleness is checked online against ground truth, which a replayed
         trace no longer has. *)
      ()
    | Steal { by; tid; victim = _; thief = _ } ->
      (* The dequeue at the victim happens-before the stolen thread runs
         at the thief: everything ordered before the dequeuing agent [by]
         (the steal-request server fiber) flows into the stolen thread.
         Without this edge, state published at the victim under a lock
         the handler synchronized with would look concurrent with the
         thread's post-steal accesses.  [by = -1] when the dequeue ran
         outside any fiber — then there is no agent clock to join. *)
      if by >= 0 then begin
        let bc = thread_clock t by in
        let sc = thread_clock t tid in
        sc := cjoin !sc !bc;
        tick bc by
      end
    | Future_resolve { tid; id } ->
      (* Same shape as a condition signal: publish the resolver's clock
         under the future id; the awaiter joins it when it observes the
         resolution. *)
      let cr = thread_clock t tid in
      Itbl.replace t.futures id !cr;
      tick cr tid
    | Future_await { tid; id } -> (
      let cr = thread_clock t tid in
      match Itbl.find_opt t.futures id with
      | Some c -> cr := cjoin !cr c
      | None -> ())

  let lock_name t addr =
    match Itbl.find_opt t.names addr with
    | Some n -> n
    | None -> Printf.sprintf "0x%x" addr

  (* Cycles in the lock-order graph, deduplicated by node set.  The graph
     is tiny (one node per lock ever held nested), so a plain path-list
     DFS is fine. *)
  let lock_cycles t =
    let adj = Hashtbl.create 16 in
    Hashtbl.iter
      (fun (a, b) () ->
        let cur = try Hashtbl.find adj a with Not_found -> [] in
        Hashtbl.replace adj a (b :: cur))
      t.lock_edges;
    let cycles = ref [] in
    let seen_sets = Hashtbl.create 4 in
    let finished = Hashtbl.create 16 in
    let rec dfs path node =
      if List.mem node path then begin
        let rec take acc = function
          | [] -> acc
          | x :: rest -> if x = node then x :: acc else take (x :: acc) rest
        in
        let cyc = take [] path in
        let key = List.sort compare cyc in
        if not (Hashtbl.mem seen_sets key) then begin
          Hashtbl.replace seen_sets key ();
          cycles := cyc :: !cycles
        end
      end
      else if not (Hashtbl.mem finished node) then begin
        List.iter
          (dfs (node :: path))
          (try Hashtbl.find adj node with Not_found -> []);
        Hashtbl.replace finished node ()
      end
    in
    Hashtbl.iter (fun node _ -> dfs [] node) adj;
    List.map
      (fun addrs -> { addrs; names = List.map (lock_name t) addrs })
      !cycles

  let report ?(violations = []) t =
    {
      races = List.rev t.races;
      cycles = lock_cycles t;
      violations;
      events = t.events;
      threads = Itbl.length t.clocks;
      objects_tracked = Itbl.length t.objects;
    }
end

(* ------------------------------------------------------------------ *)
(* Online sanitizer                                                    *)
(* ------------------------------------------------------------------ *)

type t = {
  rt : Runtime.t;
  core : Core.t;
  analyze : bool;
  tombstones : (int, string) Hashtbl.t;
      (* destroyed objects (addr -> name), awaiting the finalize sweep
         that checks nothing still claims a usable copy of them *)
  mutable inflight_moves : int;
  mutable pending_audit : Aobject.any list;
  mutable violations : Audit.violation list;
  violation_keys : (int * int * string, unit) Hashtbl.t;
}

let add_violations t vs =
  List.iter
    (fun (v : Audit.violation) ->
      let key = (v.Audit.addr, v.Audit.node, v.Audit.problem) in
      if not (Hashtbl.mem t.violation_keys key) then begin
        Hashtbl.replace t.violation_keys key ();
        t.violations <- v :: t.violations;
        Runtime.notify_failure t.rt ~kind:"san" ~node:v.Audit.node
          ~detail:(Format.asprintf "%a" Audit.pp_violation v)
      end)
    vs

(* Audit is only sound at move quiescence: mid-move an object legally has
   no resident node yet (contents in flight), so run the deferred checks
   when the in-flight counter returns to zero. *)
let audit_pending t =
  if t.pending_audit <> [] && t.inflight_moves = 0 then begin
    add_violations t (Audit.check_objects t.rt t.pending_audit);
    t.pending_audit <- []
  end

(* Ground truth: a correct protocol only serves snapshots on currently
   granted nodes, at the object's current epoch.  A mismatch means an
   invalidation was lost or unacknowledged and a completed write is
   invisible here — a stale read. *)
let check_replica_read t ~addr ~node ~epoch =
  match Runtime.find_object t.rt addr with
  | None -> ()
  | Some (Aobject.Any o) ->
    let mk problem = { Audit.addr; name = o.Aobject.name; node; problem } in
    if not (List.mem node o.Aobject.replicas) then
      add_violations t [ mk "read served from a recalled replica" ]
    else if epoch <> o.Aobject.epoch then
      add_violations t
        [
          mk
            (Printf.sprintf
               "stale replica read (snapshot epoch %d, object at %d)" epoch
               o.Aobject.epoch);
        ]

let report t =
  {
    (Core.report ~violations:(List.rev t.violations) t.core) with
    objects_tracked = List.length (Runtime.objects t.rt);
  }

let finding_lines r =
  let line fmt = Format.asprintf fmt in
  List.map (line "%a" pp_race) r.races
  @ List.map (line "%a" pp_cycle) r.cycles
  @ List.map (line "coherence: %a" Audit.pp_violation) r.violations

let summary_lines t () =
  let r = report t in
  let header =
    Printf.sprintf "%d events analyzed, %d threads, %d objects tracked"
      r.events r.threads r.objects_tracked
  in
  if clean r then [ header; "no findings" ] else header :: finding_lines r

let attach ?(analyze = true) rt =
  let t =
    {
      rt;
      core = Core.create ();
      analyze;
      tombstones = Hashtbl.create 8;
      inflight_moves = 0;
      pending_audit = [];
      violations = [];
      violation_keys = Hashtbl.create 16;
    }
  in
  let spans = Runtime.spans rt in
  let record e =
    if Sim.Span.marking spans then
      Sim.Span.mark spans ~category:"san" (lazy (San_hooks.Event.to_string e));
    if t.analyze then begin
      (* A new race is a typed failure like any crash: let subscribers
         (the flight recorder) capture the window around it.  Races are
         only ever consed on, so a new head is a new race. *)
      let races_before = t.core.Core.races in
      Core.feed t.core e;
      if t.core.Core.races != races_before then
        match t.core.Core.races with
        | r :: _ ->
          Runtime.notify_failure rt ~kind:"san" ~node:(-1)
            ~detail:(Format.asprintf "%a" pp_race r)
        | [] -> ()
    end
  in
  let hook (ev : San_hooks.Event.t) =
    match ev with
    | Move_begin _ -> t.inflight_moves <- t.inflight_moves + 1
    | Move_end { addr } ->
      t.inflight_moves <- t.inflight_moves - 1;
      if t.analyze then begin
        Option.iter
          (fun o -> t.pending_audit <- o :: t.pending_audit)
          (Runtime.find_object rt addr);
        audit_pending t
      end
    | Sync_created { addr; _ } ->
      (* Filled here, not only when fed, so that a record-only run drops
         the same sync-object accesses as an analyzed one. *)
      Itbl.replace t.core.Core.sync_addrs addr ();
      record ev
    | (Access { addr; _ } | Access_end { addr; _ })
      when Core.is_sync t.core addr ->
      (* A sync object's own state is protocol-internal: every probe of a
         contended spinlock would otherwise look like an access. *)
      ()
    | Object_created { addr; _ } ->
      (* Heap addresses can be recycled; a re-created address is no
         longer a deletion to audit. *)
      Hashtbl.remove t.tombstones addr;
      record ev
    | Object_destroyed { addr } ->
      Hashtbl.replace t.tombstones addr
        (match Runtime.find_object rt addr with
        | Some (Aobject.Any o) -> o.Aobject.name
        | None -> Printf.sprintf "0x%x" addr);
      record ev
    | Replica_read { addr; node; epoch; _ } ->
      record ev;
      if t.analyze then check_replica_read t ~addr ~node ~epoch
    | _ -> record ev
  in
  Runtime.set_sanitizer rt hook;
  Runtime.add_report_section rt ~name:"sanitizer" (summary_lines t);
  t

let finalize t =
  if t.analyze then begin
    t.inflight_moves <- 0;
    audit_pending t;
    add_violations t (Audit.check_objects t.rt (Runtime.objects t.rt));
    (* Deleted objects: nothing may still claim a usable copy of them. *)
    Hashtbl.iter
      (fun addr name ->
        if Option.is_none (Runtime.find_object t.rt addr) then
          add_violations t (Audit.check_deleted t.rt ~addr ~name))
      t.tombstones
  end;
  report t

(* ------------------------------------------------------------------ *)
(* Offline lint                                                        *)
(* ------------------------------------------------------------------ *)

let lint_events events =
  let core = Core.create () in
  List.iter (Core.feed core) events;
  Core.report core

let lint_trace marks =
  lint_events
    (List.filter_map
       (fun (m : Sim.Span.mark) ->
         if String.equal m.category "san" then
           San_hooks.Event.of_string m.detail
         else None)
       marks)
