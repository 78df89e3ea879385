module A = Amber

type policy = Off | Affinity | Hybrid

(* Observation-cycle period, virtual seconds. *)
let interval = 25e-3
let hysteresis = 100e-3

(* At most this many moves per cycle. *)
let move_budget = 8

(* The affinity pass ignores an object whose dominant caller made fewer
   calls than this in the window (too little signal), or did not beat
   everyone else combined by the dominance factor. *)
let min_invocations = 8
let dominance = 2.0

(* Rooted-load gap, in threads, that the spread pass tolerates. *)
let spread_threshold = 2

type move = { at : float; addr : int; src : int; dst : int }

type t = {
  rt : A.Runtime.t;
  policy : policy;
  (* addr -> virtual time of the last balancer move of the object;
     enforces the hysteresis window. *)
  last_acted : (int, float) Hashtbl.t;
  mutable moves : move list; (* newest first *)
  mutable stopped : bool;
  mutable sleeper : (Sim.Engine.event_id * (unit -> unit)) option;
  mutable handle : unit A.Athread.t option;
}

let create rt ~policy =
  {
    rt;
    policy;
    last_acted = Hashtbl.create 16;
    moves = [];
    stopped = false;
    sleeper = None;
    handle = None;
  }

let move_log t = List.rev t.moves

let cool t addr ~now =
  match Hashtbl.find_opt t.last_acted addr with
  | Some tm -> now -. tm >= hysteresis -. 1e-12
  | None -> true

let do_move t o ~dest =
  let rt = t.rt in
  let now = A.Runtime.now rt in
  Hashtbl.replace t.last_acted o.A.Aobject.addr now;
  t.moves <-
    { at = now; addr = o.A.Aobject.addr; src = o.A.Aobject.location; dst = dest }
    :: t.moves;
  let ctrs = A.Runtime.counters rt in
  ctrs.A.Runtime.balance_moves <- ctrs.A.Runtime.balance_moves + 1;
  Sim.Span.with_span (A.Runtime.spans rt) Sim.Span.Rebalance
    ~label:o.A.Aobject.name ~obj:o.A.Aobject.addr ~arg:dest (fun () ->
      A.Mobility.move_to rt o ~dest)

(* --- affinity pass ------------------------------------------------------- *)

(* An object whose window shows one remote node invoking it far more than
   everyone else (callers at the master included) is better off living
   there.  The dominance ratio keeps bound-local objects (lots of
   [win_local]) from ping-ponging after a neighbour glances at them. *)
let affinity_pass t ~budget =
  let rt = t.rt in
  let now = A.Runtime.now rt in
  List.iter
    (fun (A.Aobject.Any o) ->
      if
        !budget > 0
        && o.A.Aobject.parent = None
        && (not o.A.Aobject.immutable_)
        && cool t o.A.Aobject.addr ~now
      then begin
        let remote_total =
          List.fold_left (fun a (_, c) -> a + c) 0 o.A.Aobject.win_remote
        in
        if remote_total > 0 then begin
          let dest, cnt =
            List.fold_left
              (fun (bn, bc) (n, c) ->
                if c > bc || (c = bc && n < bn) then (n, c) else (bn, bc))
              (max_int, 0) o.A.Aobject.win_remote
          in
          let rest = o.A.Aobject.win_local + (remote_total - cnt) in
          if
            cnt >= min_invocations
            && float_of_int cnt >= dominance *. float_of_int (max 1 rest)
            && dest <> o.A.Aobject.location
          then begin
            do_move t o ~dest;
            decr budget
          end
        end
      end)
    (A.Runtime.objects rt)

(* --- spread pass --------------------------------------------------------- *)

(* A thread's OUTERMOST frame is the object it works for: SOR workers are
   rooted in their section even while blocked inside the shared
   convergence master, so ranking by rooted threads spreads the sections
   and leaves the master (rooted count ~0) alone.  Moving an object
   transfers exactly its rooted threads' load — they chase it through the
   §3.5 residency check when they next unwind to their root frame. *)
let rooted_counts t =
  let tbl = Hashtbl.create 32 in
  A.Runtime.iter_threads t.rt (fun ts ->
      match List.rev ts.A.Runtime.frames with
      | [] -> ()
      | root :: _ ->
        let a = A.Aobject.addr_of_any root.A.Runtime.fobj in
        Hashtbl.replace tbl a
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl a)));
  tbl

let spread_pass t ~budget =
  let rt = t.rt in
  let nodes = A.Runtime.nodes rt in
  let now = A.Runtime.now rt in
  let rooted = rooted_counts t in
  let objs = A.Runtime.objects rt in
  let load = Array.make nodes 0 in
  List.iter
    (fun (A.Aobject.Any o) ->
      match Hashtbl.find_opt rooted o.A.Aobject.addr with
      | Some b -> load.(o.A.Aobject.location) <- load.(o.A.Aobject.location) + b
      | None -> ())
    objs;
  let continue_ = ref true in
  while !continue_ && !budget > 0 do
    let imax = ref 0 and imin = ref 0 in
    for n = 1 to nodes - 1 do
      if load.(n) > load.(!imax) then imax := n;
      if load.(n) < load.(!imin) then imin := n
    done;
    let gap = load.(!imax) - load.(!imin) in
    if gap < spread_threshold then continue_ := false
    else begin
      (* Best eligible object on the hot node: most rooted threads, but
         strictly fewer than the gap (otherwise the move just swaps the
         imbalance to the other side); lowest address on ties. *)
      let pick = ref None in
      List.iter
        (fun any ->
          match any with
          | A.Aobject.Any o ->
            if
              o.A.Aobject.location = !imax
              && o.A.Aobject.parent = None
              && (not o.A.Aobject.immutable_)
              && cool t o.A.Aobject.addr ~now
            then
              (match Hashtbl.find_opt rooted o.A.Aobject.addr with
              | Some b when b > 0 && b < gap -> (
                match !pick with
                | Some (_, bb) when bb >= b -> ()
                | _ -> pick := Some (any, b))
              | _ -> ()))
        objs;
      match !pick with
      | None -> continue_ := false
      | Some (A.Aobject.Any o, b) ->
        let dest = !imin in
        do_move t o ~dest;
        load.(!imax) <- load.(!imax) - b;
        load.(dest) <- load.(dest) + b;
        decr budget
    end
  done

(* --- daemon -------------------------------------------------------------- *)

let sleep t dt =
  Sim.Fiber.block (fun wake ->
      let ev =
        Sim.Engine.schedule (A.Runtime.engine t.rt) ~delay:dt (fun () ->
            t.sleeper <- None;
            wake ())
      in
      t.sleeper <- Some (ev, wake))

let cycle t =
  let budget = ref move_budget in
  (match t.policy with
  | Affinity -> affinity_pass t ~budget
  | Hybrid ->
    affinity_pass t ~budget;
    spread_pass t ~budget
  | Off -> ());
  (* Fresh observation window each cycle. *)
  List.iter A.Aobject.reset_window_any (A.Runtime.objects t.rt)

let start t =
  match t.policy with
  | Off -> ()
  | Affinity | Hybrid ->
    let h =
      A.Athread.start t.rt ~name:"rebalancer" (fun () ->
          while not t.stopped do
            sleep t interval;
            if not t.stopped then cycle t
          done)
    in
    t.handle <- Some h

let stop t =
  t.stopped <- true;
  (match t.sleeper with
  | Some (ev, wake) ->
    t.sleeper <- None;
    Sim.Engine.cancel (A.Runtime.engine t.rt) ev;
    wake ()
  | None -> ());
  match t.handle with
  | Some h ->
    t.handle <- None;
    A.Athread.join t.rt h
  | None -> ()
