(* Determinism and distribution sanity for the SplitMix64 RNG. *)

let test_deterministic () =
  let a = Sim.Rng.make 42L and b = Sim.Rng.make 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

(* The stream is part of every seeded result: the first draws of three
   seeds, the default engine seed among them, as SplitMix64 gives them. *)
let test_stream_pinned () =
  let check seed want =
    let r = Sim.Rng.make seed in
    List.iter
      (fun w ->
        Alcotest.(check int64) (Printf.sprintf "seed %Ld" seed) w
          (Sim.Rng.bits64 r))
      want
  in
  check 0L [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ];
  check 1L [ 0x910A2DEC89025CC1L; 0xBEEB8DA1658EEC67L; 0xF893A2EEFB32555EL ];
  check 0x5EEDL
    [ 0x09F1FD9D03F0A9B4L; 0x553274161BBF8475L; 0x5D5BCA4696B343B3L ];
  let r = Sim.Rng.make 0x5EEDL in
  let child = Sim.Rng.split r in
  Alcotest.(check int64) "split child" 0x60BD44CB2C55AF4EL
    (Sim.Rng.bits64 child);
  Alcotest.(check int64) "parent after split" 0x553274161BBF8475L
    (Sim.Rng.bits64 r);
  let r = Sim.Rng.make 1L in
  ignore (Sim.Rng.bits64 r : int64);
  ignore (Sim.Rng.bits64 r : int64);
  ignore (Sim.Rng.bits64 r : int64);
  Alcotest.(check int) "int" 331 (Sim.Rng.int r 1000);
  Alcotest.(check (float 0.0)) "float" 0x1.c6ed53634406cp-2 (Sim.Rng.float r)

let test_seeds_differ () =
  let a = Sim.Rng.make 1L and b = Sim.Rng.make 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Sim.Rng.bits64 a = Sim.Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams diverge" true (!same < 4)

let test_split_independent () =
  let parent = Sim.Rng.make 7L in
  let child = Sim.Rng.split parent in
  let xs = List.init 32 (fun _ -> Sim.Rng.bits64 parent) in
  let ys = List.init 32 (fun _ -> Sim.Rng.bits64 child) in
  Alcotest.(check bool) "no overlap" true
    (List.for_all (fun y -> not (List.mem y xs)) ys)

let test_int_bounds () =
  let r = Sim.Rng.make 3L in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_int_bad_bound () =
  let r = Sim.Rng.make 3L in
  Alcotest.check_raises "zero" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Sim.Rng.int r 0))

let test_float_range () =
  let r = Sim.Rng.make 9L in
  for _ = 1 to 1000 do
    let v = Sim.Rng.float r in
    Alcotest.(check bool) "[0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_float_mean () =
  let r = Sim.Rng.make 11L in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.float r
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_exponential_mean () =
  let r = Sim.Rng.make 13L in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.exponential r ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 3" true (Float.abs (mean -. 3.0) < 0.15)

let test_uniform_range () =
  let r = Sim.Rng.make 17L in
  for _ = 1 to 1000 do
    let v = Sim.Rng.uniform r ~lo:5.0 ~hi:6.0 in
    Alcotest.(check bool) "[5,6)" true (v >= 5.0 && v < 6.0)
  done

let test_shuffle_permutes () =
  let r = Sim.Rng.make 23L in
  let a = Array.init 50 Fun.id in
  Sim.Rng.shuffle_in_place r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted;
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 50 Fun.id)

let suite =
  [
    Alcotest.test_case "deterministic from seed" `Quick test_deterministic;
    Alcotest.test_case "first draws pinned" `Quick test_stream_pinned;
    Alcotest.test_case "different seeds diverge" `Quick test_seeds_differ;
    Alcotest.test_case "split streams are independent" `Quick
      test_split_independent;
    Alcotest.test_case "int respects bound" `Quick test_int_bounds;
    Alcotest.test_case "int rejects bad bound" `Quick test_int_bad_bound;
    Alcotest.test_case "float in [0,1)" `Quick test_float_range;
    Alcotest.test_case "float mean" `Slow test_float_mean;
    Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
    Alcotest.test_case "uniform range" `Quick test_uniform_range;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
  ]
