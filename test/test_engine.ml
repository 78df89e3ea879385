(* Tests for the discrete-event engine: clock advance, ordering,
   cancellation, run horizons, and a model check of all four against a
   sorted-list reference. *)

let test_clock_starts_at_zero () =
  let e = Sim.Engine.create () in
  Alcotest.(check (float 0.0)) "t=0" 0.0 (Sim.Engine.now e)

let test_events_run_in_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~delay:2.0 (fun () -> log := "b" :: !log));
  ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log));
  ignore (Sim.Engine.schedule e ~delay:3.0 (fun () -> log := "c" :: !log));
  let n = Sim.Engine.run e in
  Alcotest.(check int) "three events" 3 n;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 0.0)) "clock at last event" 3.0 (Sim.Engine.now e)

let test_same_time_fifo () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log))
  done;
  ignore (Sim.Engine.run e);
  Alcotest.(check (list int)) "fifo" (List.init 10 Fun.id) (List.rev !log)

let test_events_can_schedule_events () =
  let e = Sim.Engine.create () in
  let fired = ref 0.0 in
  ignore
    (Sim.Engine.schedule e ~delay:1.0 (fun () ->
         ignore
           (Sim.Engine.schedule e ~delay:1.5 (fun () ->
                fired := Sim.Engine.now e))));
  ignore (Sim.Engine.run e);
  Alcotest.(check (float 1e-12)) "nested time" 2.5 !fired

let test_cancel () =
  let e = Sim.Engine.create () in
  let ran = ref false in
  let id = Sim.Engine.schedule e ~delay:1.0 (fun () -> ran := true) in
  Alcotest.(check bool) "pending" true (Sim.Engine.is_pending e id);
  Sim.Engine.cancel e id;
  Alcotest.(check bool) "not pending" false (Sim.Engine.is_pending e id);
  ignore (Sim.Engine.run e);
  Alcotest.(check bool) "cancelled did not run" false !ran

let test_cancel_twice_is_noop () =
  let e = Sim.Engine.create () in
  let id = Sim.Engine.schedule e ~delay:1.0 (fun () -> ()) in
  Sim.Engine.cancel e id;
  Sim.Engine.cancel e id;
  ignore (Sim.Engine.run e)

let test_run_until () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Sim.Engine.schedule e ~delay:5.0 (fun () -> log := 5 :: !log));
  let n = Sim.Engine.run ~until:2.0 e in
  Alcotest.(check int) "only first" 1 n;
  Alcotest.(check (float 0.0)) "clock parked at horizon" 2.0 (Sim.Engine.now e);
  let n2 = Sim.Engine.run e in
  Alcotest.(check int) "rest run" 1 n2;
  Alcotest.(check (list int)) "both" [ 5; 1 ] !log

(* A cancelled entry inside the horizon must not pull the next live event
   in from beyond it. *)
let test_run_until_cancelled_head () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let early = Sim.Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log) in
  ignore (Sim.Engine.schedule e ~delay:5.0 (fun () -> log := 5 :: !log));
  Sim.Engine.cancel e early;
  let n = Sim.Engine.run ~until:2.0 e in
  Alcotest.(check int) "nothing within the horizon" 0 n;
  Alcotest.(check (list int)) "later event still queued" [] !log;
  Alcotest.(check (float 0.0)) "clock parked at horizon" 2.0 (Sim.Engine.now e);
  Alcotest.(check int) "rest run" 1 (Sim.Engine.run e);
  Alcotest.(check (list int)) "fired after" [ 5 ] !log

let test_step () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> ()));
  Alcotest.(check bool) "one step" true (Sim.Engine.step e);
  Alcotest.(check bool) "empty" false (Sim.Engine.step e)

let test_negative_delay_rejected () =
  let e = Sim.Engine.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Engine.schedule: negative or NaN delay") (fun () ->
      ignore (Sim.Engine.schedule e ~delay:(-1.0) (fun () -> ())))

let test_schedule_in_past_rejected () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~delay:5.0 (fun () -> ()));
  ignore (Sim.Engine.run e);
  Alcotest.check_raises "past"
    (Invalid_argument "Engine.schedule_at: time 1 is before now 5") (fun () ->
      ignore (Sim.Engine.schedule_at e ~time:1.0 (fun () -> ())))

let test_exception_propagates () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> failwith "boom"));
  Alcotest.check_raises "exn" (Failure "boom") (fun () ->
      ignore (Sim.Engine.run e))

let test_executed_counter () =
  let e = Sim.Engine.create () in
  for _ = 1 to 7 do
    ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> ()))
  done;
  ignore (Sim.Engine.run e);
  Alcotest.(check int) "counter" 7 (Sim.Engine.events_executed e)

(* --- completing an event in place --------------------------------- *)

(* [advance_in_place] answers from inside an event fired by [run]. *)
let in_place_answer ?until ?(setup = fun _ -> ()) ~time () =
  let e = Sim.Engine.create () in
  let answer = ref None in
  ignore
    (Sim.Engine.schedule e ~delay:1.0 (fun () ->
         answer := Some (Sim.Engine.advance_in_place e ~time)));
  setup e;
  ignore (Sim.Engine.run ?until e : int);
  (e, Option.get !answer)

let test_in_place_refusals () =
  let refused what (e, answer) =
    Alcotest.(check bool) (what ^ ": refused") false answer;
    Alcotest.(check int) (what ^ ": none in place") 0
      (Sim.Engine.in_place_completions e)
  in
  let e = Sim.Engine.create () in
  refused "outside run" (e, Sim.Engine.advance_in_place e ~time:1.0);
  Alcotest.(check (float 0.0)) "clock untouched" 0.0 (Sim.Engine.now e);
  (* [step] fires one event and nothing more. *)
  let e = Sim.Engine.create () in
  let answer = ref true in
  ignore
    (Sim.Engine.schedule e ~delay:1.0 (fun () ->
         answer := Sim.Engine.advance_in_place e ~time:2.0));
  ignore (Sim.Engine.step e : bool);
  refused "in step" (e, !answer);
  refused "under a chooser"
    (in_place_answer ~time:2.0
       ~setup:(fun e -> Sim.Engine.set_chooser e (Some Util.pass_through))
       ());
  refused "tie with a queued entry"
    (in_place_answer ~time:2.0
       ~setup:(fun e -> ignore (Sim.Engine.schedule e ~delay:2.0 ignore))
       ());
  refused "tie with a dead entry"
    (in_place_answer ~time:2.0
       ~setup:(fun e ->
         Sim.Engine.cancel e (Sim.Engine.schedule e ~delay:2.0 ignore))
       ());
  refused "past until" (in_place_answer ~until:1.5 ~time:2.0 ());
  let e, answer = in_place_answer ~until:2.0 ~time:2.0 () in
  Alcotest.(check bool) "at until: accepted" true answer;
  Alcotest.(check int) "counted" 1 (Sim.Engine.in_place_completions e)

(* An accepted completion leaves the engine as the scheduled event would
   have: the same clock, executed count, run result and event ids. *)
let test_in_place_as_fired () =
  let later = ref 0.0 in
  let drive ~in_place =
    let e = Sim.Engine.create () in
    ignore (Sim.Engine.schedule e ~delay:3.0 ignore);
    ignore
      (Sim.Engine.schedule e ~delay:1.0 (fun () ->
           let work () = later := Sim.Engine.now e in
           if not (in_place && Sim.Engine.advance_in_place e ~time:2.5) then
             ignore (Sim.Engine.schedule_at e ~time:2.5 work)
           else work ()));
    let ran = Sim.Engine.run e in
    let seen = !later in
    let idents = ref [] in
    Sim.Engine.set_chooser e
      (Some
         {
           Util.pass_through with
           Sim.Choice.pick =
             (fun _ cands ->
               idents :=
                 Array.to_list
                   (Array.map
                      (fun c -> Sim.Choice.ident_name c.Sim.Choice.ident)
                      cands);
               0);
         });
    ignore (Sim.Engine.schedule e ~delay:1.0 ignore);
    ignore (Sim.Engine.schedule e ~delay:1.0 ignore);
    ignore (Sim.Engine.run e : int);
    ( ran,
      seen,
      Sim.Engine.events_executed e,
      Sim.Engine.now e,
      !idents,
      Sim.Engine.in_place_completions e )
  in
  let r1, s1, x1, n1, i1, p1 = drive ~in_place:true in
  let r0, s0, x0, n0, i0, p0 = drive ~in_place:false in
  Alcotest.(check int) "in place once" 1 p1;
  Alcotest.(check int) "scheduled" 0 p0;
  Alcotest.(check int) "run's count" r0 r1;
  Alcotest.(check (float 0.0)) "work ran at the event's time" s0 s1;
  Alcotest.(check (float 0.0)) "work time" 2.5 s1;
  Alcotest.(check int) "events executed" x0 x1;
  Alcotest.(check (float 0.0)) "clock" n0 n1;
  Alcotest.(check (list string)) "later event ids" i0 i1

(* --- model check ---------------------------------------------------- *)

type op = Schedule of int | Cancel of int | Step | Run_until of int

let pp_op = function
  | Schedule d -> Printf.sprintf "schedule +%d" d
  | Cancel k -> Printf.sprintf "cancel #%d" k
  | Step -> "step"
  | Run_until h -> Printf.sprintf "run ~until:+%d" h

(* Delays and horizons are small multiples of 0.5 s, so timestamps tie
   often and every sum is exact. *)
let half n = 0.5 *. float_of_int n

let arb_program =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (4, map (fun d -> Schedule d) (int_bound 4));
        (2, map (fun k -> Cancel k) (int_bound 1000));
        (2, return Step);
        (1, map (fun h -> Run_until h) (int_bound 4));
      ]
  in
  QCheck.make ~print:QCheck.Print.(list pp_op) ~shrink:QCheck.Shrink.list
    (list_size (int_bound 60) op)

type state = Pending | Fired | Cancelled

(* Reference model: event [i] is the [i]-th one scheduled. *)
type model = {
  times : float array;
  states : state array;
  mutable n : int;
  mutable clock : float;
  mutable fired : int list;  (** newest first *)
}

let model size =
  {
    times = Array.make size 0.0;
    states = Array.make size Pending;
    n = 0;
    clock = 0.0;
    fired = [];
  }

(* Pending events in (time, schedule order). *)
let model_pending m =
  List.init m.n Fun.id
  |> List.filter (fun i -> m.states.(i) = Pending)
  |> List.stable_sort (fun a b -> Float.compare m.times.(a) m.times.(b))

let model_fire m i =
  m.states.(i) <- Fired;
  m.clock <- Float.max m.clock m.times.(i);
  m.fired <- i :: m.fired

let fail = QCheck.Test.fail_reportf

(* Run [prog] against [e] and [m], checking clock, executed count and
   every [is_pending] after each step.  [thunk i] is event [i]'s body;
   [on_step] and [on_run] receive the engine's answers to check them. *)
let drive e m prog ~on_step ~on_run ~thunk =
  let ids = Array.make (List.length prog) None in
  let id i = Option.get ids.(i) in
  List.iter
    (fun op ->
      (match op with
      | Schedule d ->
        let i = m.n in
        m.times.(i) <- m.clock +. half d;
        m.n <- i + 1;
        ids.(i) <- Some (Sim.Engine.schedule e ~delay:(half d) (thunk i))
      | Cancel k when m.n > 0 ->
        let i = k mod m.n in
        Sim.Engine.cancel e (id i);
        if m.states.(i) = Pending then m.states.(i) <- Cancelled
      | Cancel _ -> ()
      | Step -> on_step (Sim.Engine.step e)
      | Run_until h ->
        let until = m.clock +. half h in
        on_run until (Sim.Engine.run ~until e));
      let what = pp_op op in
      if Sim.Engine.now e <> m.clock then
        fail "%s: clock %g, model %g" what (Sim.Engine.now e) m.clock;
      if Sim.Engine.events_executed e <> List.length m.fired then
        fail "%s: %d executed, model %d" what
          (Sim.Engine.events_executed e)
          (List.length m.fired);
      for i = 0 to m.n - 1 do
        if Sim.Engine.is_pending e (id i) <> (m.states.(i) = Pending) then
          fail "%s: is_pending e%d disagrees with the model" what i
      done)
    prog

let prop_engine_model =
  QCheck.Test.make ~name:"engine matches a sorted-list model" ~count:500
    arb_program (fun prog ->
      let e = Sim.Engine.create () and m = model (List.length prog) in
      let log = ref [] in
      let thunk i () =
        if m.states.(i) = Cancelled then fail "cancelled e%d fired" i;
        log := i :: !log
      in
      let fire_earliest () =
        match model_pending m with
        | [] -> false
        | i :: _ ->
          model_fire m i;
          true
      in
      let on_step fired =
        if fired <> fire_earliest () then fail "step returned %b" fired
      in
      let on_run until n =
        let rec due k =
          match model_pending m with
          | i :: _ when m.times.(i) <= until ->
            model_fire m i;
            due (k + 1)
          | _ -> k
        in
        let want = due 0 in
        if n <> want then fail "run ~until:%g ran %d, model %d" until n want;
        if Sim.Engine.now e > until then
          fail "clock %g passed the horizon %g" (Sim.Engine.now e) until;
        m.clock <- Float.max m.clock until
      in
      drive e m prog ~on_step ~on_run ~thunk;
      if !log <> m.fired then fail "fire order differs from (time, schedule)";
      true)

(* Under a chooser the engine lists its pending events by folding the
   queue; each Event decision must offer exactly the live ones, in (time,
   id) order.  The chooser picks at random and the thunks advance the
   model, so the next decision is checked against the right set. *)
let prop_chooser_candidates =
  QCheck.Test.make ~name:"chooser is offered exactly the pending events"
    ~count:300
    QCheck.(pair int arb_program)
    (fun (seed, prog) ->
      let e = Sim.Engine.create () and m = model (List.length prog) in
      let rng = Random.State.make [| seed |] in
      let picked = ref None in
      let pick dom cands =
        if dom <> Sim.Choice.Event then fail "unexpected decision domain";
        let pending = model_pending m in
        let offered =
          Array.to_list cands
          |> List.map (fun c -> Sim.Choice.ident_name c.Sim.Choice.ident)
        in
        if offered <> List.map (Printf.sprintf "e%d") pending then
          fail "offered [%s], pending [%s]"
            (String.concat " " offered)
            (String.concat " " (List.map string_of_int pending));
        let k = Random.State.int rng (Array.length cands) in
        picked := Some (List.nth pending k);
        k
      in
      Sim.Engine.set_chooser e
        (Some { Sim.Choice.pick; faults = false; note_access = ignore });
      let thunk i () =
        if m.states.(i) <> Pending then fail "e%d fired while not pending" i;
        (match !picked with
        | Some j when j <> i -> fail "picked e%d but e%d fired" j i
        | Some _ | None -> ());
        picked := None;
        model_fire m i
      in
      let executed = ref 0 in
      let on_step fired =
        let now = List.length m.fired in
        if fired <> (now > !executed) then fail "step returned %b" fired;
        if (not fired) && model_pending m <> [] then
          fail "step fired nothing with events pending";
        executed := now
      in
      let on_run _ n =
        let now = List.length m.fired in
        if n <> now - !executed then fail "run ran %d" n;
        executed := now;
        if model_pending m <> [] then fail "run left pending events"
      in
      drive e m prog ~on_step ~on_run ~thunk;
      true)

(* An owned record re-armed after it fired is armed in place; one still
   queued, cancelled but not reaped, is replaced by a fresh record, and
   its stale entry never fires.  The armings take the ids and executed
   counts that fresh scheduling takes: the two drives end alike and
   hand the same ids to the next events. *)
let test_rearm () =
  let drive ~rearm =
    let e = Sim.Engine.create () in
    let fired = ref [] in
    let thunk () = fired := Sim.Engine.now e :: !fired in
    let owned = Sim.Engine.idle_event thunk in
    let arm h ~delay =
      if rearm then Sim.Engine.rearm e h ~delay
      else Sim.Engine.schedule e ~delay thunk
    in
    let pending = Alcotest.(check bool) in
    if rearm then begin
      pending "idle" false (Sim.Engine.is_pending e owned);
      Sim.Engine.cancel e owned
    end;
    let h1 = arm owned ~delay:2.0 in
    if rearm then Alcotest.(check bool) "armed in place" true (h1 == owned);
    pending "armed" true (Sim.Engine.is_pending e h1);
    Sim.Engine.cancel e h1;
    pending "cancelled" false (Sim.Engine.is_pending e h1);
    let h2 = arm h1 ~delay:1.0 in
    if rearm then
      Alcotest.(check bool) "a queued record is not reused" false (h2 == h1);
    pending "fresh arming" true (Sim.Engine.is_pending e h2);
    pending "stale entry" false (Sim.Engine.is_pending e h1);
    ignore (Sim.Engine.run ~until:1.5 e : int);
    pending "fired" false (Sim.Engine.is_pending e h2);
    let h3 = arm h2 ~delay:1.0 in
    if rearm then Alcotest.(check bool) "fired record reused" true (h3 == h2);
    pending "re-armed" true (Sim.Engine.is_pending e h3);
    ignore (Sim.Engine.run e : int);
    pending "done" false (Sim.Engine.is_pending e h3);
    let idents = ref [] in
    Sim.Engine.set_chooser e
      (Some
         {
           Util.pass_through with
           Sim.Choice.pick =
             (fun _ cands ->
               idents :=
                 Array.to_list
                   (Array.map
                      (fun c -> Sim.Choice.ident_name c.Sim.Choice.ident)
                      cands);
               0);
         });
    ignore (Sim.Engine.schedule e ~delay:1.0 ignore);
    ignore (Sim.Engine.schedule e ~delay:1.0 ignore);
    ignore (Sim.Engine.run e : int);
    (List.rev !fired, Sim.Engine.events_executed e, !idents)
  in
  let fired, executed, idents = drive ~rearm:true in
  Alcotest.(check (list (float 0.0))) "each arming fired once, at its time"
    [ 1.0; 2.5 ] fired;
  Alcotest.(check (list string)) "next ids" [ "e3"; "e4" ] idents;
  let fresh = drive ~rearm:false in
  Alcotest.(check (triple (list (float 0.0)) int (list string)))
    "as fresh scheduling" fresh (fired, executed, idents)

(* Re-armed records against fresh scheduling, over random programs.
   Three owned records are armed from outside ([Arm]) and re-arm
   themselves when they fire ([Repeat] sets how many times); fresh
   events, cancels of either kind, [step] and [run ~until] interleave
   with them.  One drive re-arms the owned records, the other schedules
   a fresh record for every arming, and both must log the same firings
   (name, time, executed count), the same clock, executed count and
   pending flags after every op, and the same ids, which a chooser
   installed at the end reads off the events still queued.  Inside every
   thunk the clock record reads [now] and the horizon of the [run] that
   fired it ([neg_infinity] under [step] and the chooser). *)
type rop =
  | Fresh of int
  | Arm of int * int
  | Repeat of int * int
  | Cancel_owned of int
  | Cancel_fresh of int
  | R_step
  | R_until of int

let owned_records = 3

let pp_rop = function
  | Fresh d -> Printf.sprintf "fresh +%d" d
  | Arm (k, d) -> Printf.sprintf "arm o%d +%d" k d
  | Repeat (k, n) -> Printf.sprintf "o%d repeats %d" k n
  | Cancel_owned k -> Printf.sprintf "cancel o%d" k
  | Cancel_fresh k -> Printf.sprintf "cancel fresh #%d" k
  | R_step -> "step"
  | R_until h -> Printf.sprintf "run ~until:+%d" h

let arb_rearm_program =
  let open QCheck.Gen in
  let owned = int_bound (owned_records - 1) in
  let op =
    frequency
      [
        (3, map (fun d -> Fresh d) (int_bound 4));
        (4, map2 (fun k d -> Arm (k, d)) owned (int_bound 4));
        (2, map2 (fun k n -> Repeat (k, n)) owned (int_bound 3));
        (2, map (fun k -> Cancel_owned k) owned);
        (1, map (fun k -> Cancel_fresh k) (int_bound 1000));
        (2, return R_step);
        (2, map (fun h -> R_until h) (int_bound 4));
      ]
  in
  QCheck.make ~print:QCheck.Print.(list pp_rop) ~shrink:QCheck.Shrink.list
    (list_size (int_bound 60) op)

let drive_rearm ~rearm prog =
  let e = Sim.Engine.create () in
  let log = ref [] and horizon = ref Float.neg_infinity in
  let repeats = Array.make owned_records 0 in
  let note name =
    let c = Sim.Engine.clock e in
    if c.Sim.Engine.now <> Sim.Engine.now e then
      fail "%s: clock record %g, now %g" name c.Sim.Engine.now
        (Sim.Engine.now e);
    if c.Sim.Engine.until <> !horizon then
      fail "%s: horizon %g, want %g" name c.Sim.Engine.until !horizon;
    log := (name, Sim.Engine.now e, Sim.Engine.events_executed e) :: !log
  in
  let owned = Array.make owned_records (Sim.Engine.idle_event ignore) in
  let rec arm k ~delay =
    owned.(k) <-
      (if rearm then Sim.Engine.rearm e owned.(k) ~delay
       else Sim.Engine.schedule e ~delay (thunk k))
  and thunk k () =
    note (Printf.sprintf "o%d" k);
    if repeats.(k) > 0 then begin
      repeats.(k) <- repeats.(k) - 1;
      arm k ~delay:(half k)
    end
  in
  if rearm then
    Array.iteri (fun k _ -> owned.(k) <- Sim.Engine.idle_event (thunk k)) owned;
  let fresh = ref [||] in
  let trace = ref [] in
  List.iter
    (fun op ->
      (match op with
      | Fresh d ->
        let i = Array.length !fresh in
        let name = Printf.sprintf "f%d" i in
        fresh :=
          Array.append !fresh
            [| Sim.Engine.schedule e ~delay:(half d) (fun () -> note name) |]
      | Arm (k, d) -> arm k ~delay:(half d)
      | Repeat (k, n) -> repeats.(k) <- n
      | Cancel_owned k -> Sim.Engine.cancel e owned.(k)
      | Cancel_fresh k ->
        let n = Array.length !fresh in
        if n > 0 then Sim.Engine.cancel e !fresh.(k mod n)
      | R_step -> ignore (Sim.Engine.step e : bool)
      | R_until h ->
        let until = Sim.Engine.now e +. half h in
        horizon := until;
        ignore (Sim.Engine.run ~until e : int);
        horizon := Float.neg_infinity);
      let pending h = Sim.Engine.is_pending e h in
      trace :=
        ( pp_rop op,
          Sim.Engine.now e,
          Sim.Engine.events_executed e,
          Array.map pending owned,
          Array.map pending !fresh )
        :: !trace)
    prog;
  let idents = ref [] in
  Sim.Engine.set_chooser e
    (Some
       {
         Util.pass_through with
         Sim.Choice.pick =
           (fun _ cands ->
             idents :=
               Array.map
                 (fun c -> Sim.Choice.ident_name c.Sim.Choice.ident)
                 cands
               :: !idents;
             0);
       });
  ignore (Sim.Engine.run e : int);
  (List.rev !log, List.rev !trace, List.rev !idents)

let prop_rearm_matches_fresh =
  QCheck.Test.make ~name:"re-armed records match fresh scheduling" ~count:500
    arb_rearm_program (fun prog ->
      let log1, trace1, ids1 = drive_rearm ~rearm:true prog in
      let log0, trace0, ids0 = drive_rearm ~rearm:false prog in
      if log1 <> log0 then fail "firings differ";
      List.iter2
        (fun (what, n1, x1, o1, f1) (_, n0, x0, o0, f0) ->
          if n1 <> n0 then fail "%s: clock %g, fresh %g" what n1 n0;
          if x1 <> x0 then fail "%s: %d executed, fresh %d" what x1 x0;
          if o1 <> o0 then fail "%s: owned pending flags differ" what;
          if f1 <> f0 then fail "%s: fresh pending flags differ" what)
        trace1 trace0;
      if ids1 <> ids0 then fail "ids differ";
      true)

(* Under a chooser an event's label is formatted only when a schedule is
   written: deciding among candidates forces none, and
   [Schedule.of_choice] forces exactly the candidates it records.  An
   unlabelled event reads [ev<id>]. *)
let test_labels_stay_lazy () =
  let e = Sim.Engine.create () in
  let forced = Array.make 3 0 in
  let render i =
    forced.(i) <- forced.(i) + 1;
    Printf.sprintf "event %d" i
  in
  let labelled i ~delay =
    ignore
      (Sim.Engine.schedule e ~key:(Sim.Choice.node 0)
         ~label:(lazy (render i))
         ~delay ignore)
  in
  labelled 0 ~delay:0.0;
  labelled 1 ~delay:1.0;
  labelled 2 ~delay:3.0;
  ignore (Sim.Engine.schedule e ~key:(Sim.Choice.node 0) ~delay:2.0 ignore);
  let decisions = ref [] in
  let pick _ cands =
    decisions := cands :: !decisions;
    0
  in
  Sim.Engine.set_chooser e
    (Some { Sim.Choice.pick; faults = false; note_access = ignore });
  ignore (Sim.Engine.run e : int);
  Alcotest.(check int) "three decisions" 3 (List.length !decisions);
  Alcotest.(check (array int)) "no label forced by deciding" [| 0; 0; 0 |]
    forced;
  let written =
    List.rev_map
      (fun cands ->
        Analysis.Schedule.of_choice cands.(0) ~index:0
          ~ncands:(Array.length cands))
      !decisions
  in
  Alcotest.(check (array int)) "the recorded labels forced once each"
    [| 1; 1; 0 |] forced;
  Alcotest.(check (list (pair string string)))
    "idents and labels written"
    [ ("e0", "event 0"); ("e1", "event 1"); ("e3", "ev3") ]
    (List.map
       (fun d -> (d.Analysis.Schedule.ident, d.Analysis.Schedule.label))
       written)

let suite =
  [
    Alcotest.test_case "clock starts at zero" `Quick test_clock_starts_at_zero;
    Alcotest.test_case "events run in time order" `Quick test_events_run_in_order;
    Alcotest.test_case "same-time events run FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "events schedule events" `Quick
      test_events_can_schedule_events;
    Alcotest.test_case "cancel prevents execution" `Quick test_cancel;
    Alcotest.test_case "double cancel is no-op" `Quick test_cancel_twice_is_noop;
    Alcotest.test_case "run ~until leaves later events" `Quick test_run_until;
    Alcotest.test_case "run ~until stops at a cancelled head" `Quick
      test_run_until_cancelled_head;
    Alcotest.test_case "single stepping" `Quick test_step;
    Alcotest.test_case "negative delay rejected" `Quick
      test_negative_delay_rejected;
    Alcotest.test_case "scheduling in the past rejected" `Quick
      test_schedule_in_past_rejected;
    Alcotest.test_case "event exception propagates" `Quick
      test_exception_propagates;
    Alcotest.test_case "executed counter" `Quick test_executed_counter;
    Alcotest.test_case "in-place completion refusals" `Quick
      test_in_place_refusals;
    Alcotest.test_case "in-place completion counts as fired" `Quick
      test_in_place_as_fired;
    QCheck_alcotest.to_alcotest prop_engine_model;
    QCheck_alcotest.to_alcotest prop_chooser_candidates;
    QCheck_alcotest.to_alcotest prop_rearm_matches_fresh;
    Alcotest.test_case "re-armed records fire as fresh ones" `Quick test_rearm;
    Alcotest.test_case "labels stay lazy under a chooser" `Quick
      test_labels_stay_lazy;
  ]
