(* Fiber semantics: the trampoline contract between coroutines and their
   executor. *)

open Sim.Fiber

let run_to_completion body =
  (* Minimal executor: satisfies every pause immediately. *)
  let rec drive = function
    | Done outcome -> outcome
    | Consumed (_, r) -> drive (r.resume ())
    | Yielded r -> drive (r.resume ())
    | Blocked (register, r) ->
      let woken = ref false in
      register (fun () -> woken := true);
      if not !woken then failwith "fiber blocked with no synchronous wake";
      drive (r.resume ())
  in
  drive (start body)

let test_completion () =
  let x = ref 0 in
  (match run_to_completion (fun () -> x := 41; incr x) with
  | Completed -> ()
  | Failed _ -> Alcotest.fail "failed");
  Alcotest.(check int) "body ran" 42 !x

let test_failure_captured () =
  match run_to_completion (fun () -> failwith "boom") with
  | Failed (Failure m) -> Alcotest.(check string) "message" "boom" m
  | Failed _ | Completed -> Alcotest.fail "expected Failure"

let test_consume_pauses () =
  let paused = start (fun () -> consume 1.5) in
  match paused with
  | Consumed (dt, r) ->
    Alcotest.(check (float 0.0)) "duration" 1.5 dt;
    (match r.resume () with
    | Done Completed -> ()
    | _ -> Alcotest.fail "should complete after consume")
  | _ -> Alcotest.fail "expected Consumed"

let test_zero_consume_does_not_pause () =
  match start (fun () -> consume 0.0) with
  | Done Completed -> ()
  | _ -> Alcotest.fail "zero consume should be free"

let test_negative_consume_rejected () =
  match start (fun () -> consume (-1.0)) with
  | Done (Failed (Invalid_argument _)) -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_yield () =
  match start (fun () -> yield ()) with
  | Yielded r -> (
    match r.resume () with
    | Done Completed -> ()
    | _ -> Alcotest.fail "after yield")
  | _ -> Alcotest.fail "expected Yielded"

let test_block_and_wake () =
  let got_waker = ref None in
  let paused = start (fun () -> block (fun wake -> got_waker := Some wake)) in
  match paused with
  | Blocked (register, r) ->
    register (fun () -> ());
    Alcotest.(check bool) "registered" true (!got_waker <> None);
    (match r.resume () with
    | Done Completed -> ()
    | _ -> Alcotest.fail "after block")
  | _ -> Alcotest.fail "expected Blocked"

let test_abort_raises_inside_fiber () =
  let cleaned = ref false in
  let paused =
    start (fun () ->
        Fun.protect ~finally:(fun () -> cleaned := true) (fun () ->
            consume 1.0))
  in
  match paused with
  | Consumed (_, r) -> (
    match r.abort Exit with
    | Done (Failed Exit) ->
      Alcotest.(check bool) "finally ran" true !cleaned
    | _ -> Alcotest.fail "expected Failed Exit")
  | _ -> Alcotest.fail "expected Consumed"

let test_sequencing () =
  (* A fiber that alternates effects; check the executor sees them in
     program order. *)
  let order = ref [] in
  let rec drive n = function
    | Done _ -> ()
    | Consumed (dt, r) ->
      order := Printf.sprintf "c%.0f" dt :: !order;
      drive (n + 1) (r.resume ())
    | Yielded r ->
      order := "y" :: !order;
      drive (n + 1) (r.resume ())
    | Blocked (register, r) ->
      order := "b" :: !order;
      register (fun () -> ());
      drive (n + 1) (r.resume ())
  in
  drive 0
    (start (fun () ->
         consume 1.0;
         yield ();
         block (fun wake -> wake ());
         consume 2.0));
  Alcotest.(check (list string)) "order" [ "c1"; "y"; "b"; "c2" ]
    (List.rev !order)

(* A fiber hands out one resumption; it continues the latest pause, and
   only once. *)
let test_one_resumption () =
  let first =
    start (fun () ->
        consume 1.0;
        yield ())
  in
  match first with
  | Consumed (_, r) -> (
    match r.resume () with
    | Yielded r' ->
      Alcotest.(check bool) "every pause carries the same resumption" true
        (r == r');
      (match r.resume () with
      | Done Completed -> ()
      | _ -> Alcotest.fail "resuming the latest pause should complete");
      Alcotest.check_raises "a finished fiber cannot be resumed"
        (Invalid_argument "Fiber: no pause to resume") (fun () ->
          ignore (r.resume () : paused))
    | _ -> Alcotest.fail "expected Yielded")
  | _ -> Alcotest.fail "expected Consumed"

(* From inside the running fiber, its own resumption has no pause to
   continue: resuming or aborting raises, and the fiber sees the
   exception. *)
let test_resume_twice_rejected () =
  let again how =
    let inner = ref None in
    let paused =
      start (fun () ->
          consume 1.0;
          (* Running again: the pause we were resumed from is spent. *)
          match !inner with
          | Some r -> ignore (how r : paused)
          | None -> ())
    in
    match paused with
    | Consumed (_, r) -> (
      inner := Some r;
      match r.resume () with
      | Done (Failed (Invalid_argument msg)) ->
        Alcotest.(check string) "message" "Fiber: no pause to resume" msg
      | _ -> Alcotest.fail "a second resume without a pause should raise")
    | _ -> Alcotest.fail "expected Consumed"
  in
  again (fun r -> r.resume ());
  again (fun r -> r.abort Exit)

let test_effects_outside_fiber_raise () =
  match consume 1.0 with
  | () -> Alcotest.fail "expected Unhandled"
  | exception Effect.Unhandled _ -> ()

let suite =
  [
    Alcotest.test_case "completion" `Quick test_completion;
    Alcotest.test_case "failure captured" `Quick test_failure_captured;
    Alcotest.test_case "consume pauses with duration" `Quick
      test_consume_pauses;
    Alcotest.test_case "zero consume is free" `Quick
      test_zero_consume_does_not_pause;
    Alcotest.test_case "negative consume rejected" `Quick
      test_negative_consume_rejected;
    Alcotest.test_case "yield" `Quick test_yield;
    Alcotest.test_case "block hands out a waker" `Quick test_block_and_wake;
    Alcotest.test_case "abort raises inside the fiber" `Quick
      test_abort_raises_inside_fiber;
    Alcotest.test_case "effects arrive in program order" `Quick
      test_sequencing;
    Alcotest.test_case "effects outside a fiber raise" `Quick
      test_effects_outside_fiber_raise;
    Alcotest.test_case "one resumption continues the latest pause" `Quick
      test_one_resumption;
    Alcotest.test_case "resume twice without a pause rejected" `Quick
      test_resume_twice_rejected;
  ]
