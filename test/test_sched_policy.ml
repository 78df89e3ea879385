(* Scheduling disciplines. *)

let dequeue p =
  if p.Hw.Sched_policy.length () = 0 then None
  else Some (p.Hw.Sched_policy.pop ())

let drain pol =
  let rec go acc =
    match dequeue pol with
    | None -> List.rev acc
    | Some x -> go (x :: acc)
  in
  go []

let test_fifo () =
  let p = Hw.Sched_policy.fifo () in
  List.iter p.Hw.Sched_policy.enqueue [ 1; 2; 3 ];
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (drain p)

let test_fifo_interleaved () =
  let p = Hw.Sched_policy.fifo () in
  p.Hw.Sched_policy.enqueue 1;
  p.Hw.Sched_policy.enqueue 2;
  Alcotest.(check (option int)) "1" (Some 1) (dequeue p);
  p.Hw.Sched_policy.enqueue 3;
  Alcotest.(check (option int)) "2" (Some 2) (dequeue p);
  Alcotest.(check (option int)) "3" (Some 3) (dequeue p)

let test_lifo () =
  let p = Hw.Sched_policy.lifo () in
  List.iter p.Hw.Sched_policy.enqueue [ 1; 2; 3 ];
  Alcotest.(check (list int)) "lifo" [ 3; 2; 1 ] (drain p)

let test_priority () =
  let p = Hw.Sched_policy.by_priority ~priority_of:fst () in
  List.iter p.Hw.Sched_policy.enqueue
    [ (1, "low"); (5, "high"); (3, "mid"); (5, "high2") ];
  Alcotest.(check (list string)) "priority order with FIFO ties"
    [ "high"; "high2"; "mid"; "low" ]
    (List.map snd (drain p))

let test_remove () =
  let p = Hw.Sched_policy.fifo () in
  List.iter p.Hw.Sched_policy.enqueue [ 1; 2; 3; 4 ];
  let removed = p.Hw.Sched_policy.remove (fun x -> x mod 2 = 0) in
  Alcotest.(check int) "two removed" 2 removed;
  Alcotest.(check (list int)) "odds remain in order" [ 1; 3 ] (drain p)

let test_pop_empty () =
  List.iter
    (fun (p : int Hw.Sched_policy.t) ->
      p.Hw.Sched_policy.enqueue 1;
      ignore (p.Hw.Sched_policy.pop () : int);
      Alcotest.check_raises p.Hw.Sched_policy.name
        (Invalid_argument "Sched_policy.pop: empty queue") (fun () ->
          ignore (p.Hw.Sched_policy.pop () : int)))
    [
      Hw.Sched_policy.fifo ();
      Hw.Sched_policy.lifo ();
      Hw.Sched_policy.by_priority ~priority_of:Fun.id ();
    ]

let test_length () =
  let p = Hw.Sched_policy.lifo () in
  Alcotest.(check int) "empty" 0 (p.Hw.Sched_policy.length ());
  p.Hw.Sched_policy.enqueue 1;
  p.Hw.Sched_policy.enqueue 2;
  Alcotest.(check int) "two" 2 (p.Hw.Sched_policy.length ());
  ignore (dequeue p);
  Alcotest.(check int) "one" 1 (p.Hw.Sched_policy.length ())

let prop_fifo_order =
  QCheck.Test.make ~name:"fifo preserves order" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let p = Hw.Sched_policy.fifo () in
      List.iter p.Hw.Sched_policy.enqueue xs;
      drain p = xs)

(* The fifo ring against a list model, over random enqueue, dequeue,
   [remove] and [length] sequences.  The ring starts with room for 8, so
   longer queues grow it, some of them while the entries wrap. *)
type fifo_op = Enq of int | Deq | Remove_multiples of int | Length

let pp_fifo_op = function
  | Enq x -> Printf.sprintf "enq %d" x
  | Deq -> "deq"
  | Remove_multiples k -> Printf.sprintf "remove multiples of %d" k
  | Length -> "length"

let fifo_grew = ref 0

let prop_fifo_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun x -> Enq x) small_nat);
          (3, return Deq);
          (1, map (fun k -> Remove_multiples k) (int_range 2 5));
          (1, return Length);
        ])
  in
  let ops = QCheck.Gen.(list_size (int_bound 120) op) in
  let print ops = String.concat "; " (List.map pp_fifo_op ops) in
  QCheck.Test.make ~name:"fifo ring matches a list model" ~count:500
    (QCheck.make ~print ops) (fun ops ->
      let p = Hw.Sched_policy.fifo () in
      let fail = QCheck.Test.fail_reportf in
      let peak = ref 0 in
      let model =
        List.fold_left
          (fun model op ->
            match op with
            | Enq x ->
              p.Hw.Sched_policy.enqueue x;
              let model = model @ [ x ] in
              peak := max !peak (List.length model);
              model
            | Deq -> (
              let got = dequeue p in
              match model with
              | [] ->
                if got <> None then fail "dequeued from an empty queue";
                []
              | x :: rest ->
                if got <> Some x then fail "dequeue: wanted %d" x;
                rest)
            | Remove_multiples k ->
              let hit x = x mod k = 0 in
              let n = p.Hw.Sched_policy.remove hit in
              let model' = List.filter (fun x -> not (hit x)) model in
              if n <> List.length model - List.length model' then
                fail "remove counted %d" n;
              model'
            | Length ->
              if p.Hw.Sched_policy.length () <> List.length model then
                fail "length %d, model %d" (p.Hw.Sched_policy.length ())
                  (List.length model);
              model)
          [] ops
      in
      if !peak > 8 then incr fifo_grew;
      if p.Hw.Sched_policy.length () <> List.length model then
        fail "final length differs";
      drain p = model)

let test_fifo_model () =
  fifo_grew := 0;
  QCheck.Test.check_exn ~rand:(Random.State.make [| 30 |]) prop_fifo_model;
  Alcotest.(check bool) "some runs grew the ring" true (!fifo_grew > 0)

let suite =
  [
    Alcotest.test_case "fifo" `Quick test_fifo;
    Alcotest.test_case "fifo interleaved" `Quick test_fifo_interleaved;
    Alcotest.test_case "lifo" `Quick test_lifo;
    Alcotest.test_case "priority with FIFO ties" `Quick test_priority;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "pop on an empty queue raises" `Quick test_pop_empty;
    Alcotest.test_case "length" `Quick test_length;
    QCheck_alcotest.to_alcotest prop_fifo_order;
    Alcotest.test_case "fifo ring matches a list model" `Quick test_fifo_model;
  ]
