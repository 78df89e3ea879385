(* Unit and property tests for the simulation event queue. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_empty () =
  let q = Sim.Event_queue.create () in
  check "empty" true (Sim.Event_queue.is_empty q);
  check "no pop" true (Sim.Event_queue.pop q = None);
  let empty = Invalid_argument "Event_queue: empty queue" in
  Alcotest.check_raises "no min_time" empty (fun () ->
      ignore (Sim.Event_queue.min_time q : float));
  Alcotest.check_raises "no pop_min" empty (fun () ->
      ignore (Sim.Event_queue.pop_min q : unit))

let test_ordering () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.add q ~time:3.0 "c";
  Sim.Event_queue.add q ~time:1.0 "a";
  Sim.Event_queue.add q ~time:2.0 "b";
  let order = List.init 3 (fun _ -> Sim.Event_queue.pop q) in
  Alcotest.(check (list (option (pair (float 0.0) string))))
    "sorted"
    [ Some (1.0, "a"); Some (2.0, "b"); Some (3.0, "c") ]
    order

let test_fifo_ties () =
  let q = Sim.Event_queue.create () in
  for i = 0 to 99 do
    Sim.Event_queue.add q ~time:5.0 i
  done;
  let out = List.init 100 (fun _ ->
      match Sim.Event_queue.pop q with Some (_, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "insertion order on equal times"
    (List.init 100 Fun.id) out

let test_min_does_not_remove () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.add q ~time:2.0 "y";
  Sim.Event_queue.add q ~time:1.0 "x";
  Alcotest.(check (float 0.0)) "min_time" 1.0 (Sim.Event_queue.min_time q);
  Alcotest.(check string) "min_value" "x" (Sim.Event_queue.min_value q);
  check_int "still there" 2 (Sim.Event_queue.length q);
  Alcotest.(check string) "pop_min" "x" (Sim.Event_queue.pop_min q);
  Alcotest.(check (float 0.0)) "next min_time" 2.0 (Sim.Event_queue.min_time q)

let test_nan_rejected () =
  let q = Sim.Event_queue.create () in
  Alcotest.check_raises "NaN" (Invalid_argument "Event_queue.add: NaN time")
    (fun () -> Sim.Event_queue.add q ~time:Float.nan ())

let test_clear () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.add q ~time:1.0 ();
  Sim.Event_queue.clear q;
  check "cleared" true (Sim.Event_queue.is_empty q)

let test_interleaved_add_pop () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.add q ~time:10.0 "late";
  Sim.Event_queue.add q ~time:1.0 "early";
  (match Sim.Event_queue.pop q with
  | Some (_, v) -> Alcotest.(check string) "early first" "early" v
  | None -> Alcotest.fail "pop");
  Sim.Event_queue.add q ~time:5.0 "mid";
  (match Sim.Event_queue.pop q with
  | Some (_, v) -> Alcotest.(check string) "mid next" "mid" v
  | None -> Alcotest.fail "pop");
  check_int "one left" 1 (Sim.Event_queue.length q)

(* Positions name each queued entry once, with its own time in the time
   column; a position out of range raises. *)
let test_positions () =
  let q = Sim.Event_queue.create () in
  List.iter
    (fun t -> Sim.Event_queue.add q ~time:t (int_of_float t))
    [ 3.0; 1.0; 4.0; 2.0 ];
  ignore (Sim.Event_queue.pop_min q : int);
  let entries =
    List.init (Sim.Event_queue.length q) (fun i ->
        ( Float.Array.get (Sim.Event_queue.times q) i,
          Sim.Event_queue.value_at q i ))
  in
  Alcotest.(check (list (pair (float 0.0) int)))
    "every entry once" [ (2.0, 2); (3.0, 3); (4.0, 4) ]
    (List.sort compare entries);
  let out_of_range f =
    match f () with
    | _ -> Alcotest.fail "no exception"
    | exception Invalid_argument _ -> ()
  in
  out_of_range (fun () -> Sim.Event_queue.value_at q 3);
  out_of_range (fun () -> Sim.Event_queue.value_at q (-1))

(* Property: popping yields times in nondecreasing order, with seq order on
   ties, for arbitrary insert sequences. *)
let prop_sorted =
  QCheck.Test.make ~name:"pop yields sorted (time, seq)" ~count:300
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun times ->
      let q = Sim.Event_queue.create () in
      List.iteri (fun i t -> Sim.Event_queue.add q ~time:t i) times;
      let rec drain prev acc =
        match Sim.Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, seq) ->
          (match prev with
          | Some (pt, pseq) ->
            if t < pt then QCheck.Test.fail_report "time went backwards";
            if t = pt && seq < pseq then
              QCheck.Test.fail_report "tie broke FIFO order"
          | None -> ());
          drain (Some (t, seq)) ((t, seq) :: acc)
      in
      let out = drain None [] in
      List.length out = List.length times)

let prop_length =
  QCheck.Test.make ~name:"length tracks adds and pops" ~count:200
    QCheck.(list (pair bool (float_bound_inclusive 100.0)))
    (fun ops ->
      let q = Sim.Event_queue.create () in
      let model = ref 0 in
      List.iter
        (fun (is_add, t) ->
          if is_add then begin
            Sim.Event_queue.add q ~time:t ();
            incr model
          end
          else begin
            (match Sim.Event_queue.pop q with
            | Some _ -> decr model
            | None -> ())
          end)
        ops;
      Sim.Event_queue.length q = !model)

(* Property: any interleaving of [add], [pop_min], [min_time] and
   [min_value] agrees with a sorted-list model of [(time, seq)].  The
   middle run of 65 adds takes the queue past its initial 64 slots, and
   the pops around it free slots for later adds to reuse. *)
type op = Add of float | Pop | Peek

let prop_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (2, map (fun t -> Add (float_of_int t)) (int_bound 20));
          (1, return Pop);
          (1, return Peek);
        ])
  in
  let ops n = QCheck.Gen.(list_size (int_bound n) op) in
  let adds =
    QCheck.Gen.(
      list_repeat 65 (map (fun t -> Add t) (float_bound_inclusive 20.0)))
  in
  QCheck.Test.make ~name:"add/pop_min/min_* agree with a sorted model"
    ~count:300
    (QCheck.make QCheck.Gen.(triple (ops 100) adds (ops 200)))
    (fun (a, b, c) ->
      let q = Sim.Event_queue.create () in
      (* The model: (time, seq) pairs in queue order; the value is seq. *)
      let model = ref [] and seq = ref 0 in
      let insert t =
        let rec go = function
          | (t', _) :: _ as l when t < t' -> (t, !seq) :: l
          | x :: rest -> x :: go rest
          | [] -> [ (t, !seq) ]
        in
        model := go !model;
        Sim.Event_queue.add q ~time:t !seq;
        incr seq
      in
      let step = function
        | Add t -> insert t
        | Pop -> (
          match !model with
          | [] -> ()
          | (_, v) :: rest ->
            model := rest;
            if Sim.Event_queue.pop_min q <> v then
              QCheck.Test.fail_report "pop_min returned the wrong value")
        | Peek -> (
          match !model with
          | [] -> ()
          | (t, v) :: _ ->
            if Sim.Event_queue.min_time q <> t then
              QCheck.Test.fail_report "min_time disagrees";
            if Sim.Event_queue.min_value q <> v then
              QCheck.Test.fail_report "min_value disagrees")
      in
      List.iter step (a @ b @ c);
      Sim.Event_queue.length q = List.length !model
      && List.for_all
           (fun (t, v) -> Sim.Event_queue.pop q = Some (t, v))
           !model
      && Sim.Event_queue.is_empty q)

(* Once the queue has grown, an add/pop_min pair moves only unboxed
   floats and ints: no entry is allocated per add. *)
let test_steady_state_allocates_nothing () =
  let q = Sim.Event_queue.create () in
  for i = 0 to 99 do
    Sim.Event_queue.add q ~time:1.0 i
  done;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Sim.Event_queue.add q ~time:2.0 i;
    ignore (Sim.Event_queue.pop_min q : int)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for 10000 pairs" words)
    true (words < 100.0)

let suite =
  [
    Alcotest.test_case "empty queue" `Quick test_empty;
    Alcotest.test_case "time ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO on ties" `Quick test_fifo_ties;
    Alcotest.test_case "min_time is non-destructive" `Quick
      test_min_does_not_remove;
    Alcotest.test_case "NaN time rejected" `Quick test_nan_rejected;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "interleaved add/pop" `Quick test_interleaved_add_pop;
    Alcotest.test_case "positions name every entry" `Quick test_positions;
    QCheck_alcotest.to_alcotest prop_sorted;
    QCheck_alcotest.to_alcotest prop_length;
    QCheck_alcotest.to_alcotest prop_model;
    Alcotest.test_case "steady state allocates nothing" `Quick
      test_steady_state_allocates_nothing;
  ]
