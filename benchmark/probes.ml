(* Host-time probes.

   Layer probes time public calls of one layer in a fixed loop, away from
   any workload, so a change to that layer shows up here even when a
   workload's mix hides it.  Each reports the median of [rounds] timed
   loops, in nanoseconds per operation.

   The calibration loop measures the machine instead of the simulator;
   see [calibration_s]. *)

let ops = 20_000
let rounds = 5

let time_per_op f =
  f ();
  Suite.median
    (List.init rounds (fun _ ->
         let t0 = Suite.now_s () in
         f ();
         (Suite.now_s () -. t0) *. 1e9 /. float_of_int ops))

let event_queue () =
  let q = Sim.Event_queue.create () in
  for i = 0 to ops - 1 do
    Sim.Event_queue.add q ~time:(float_of_int (i * 7919 mod 10007)) i
  done;
  while not (Sim.Event_queue.is_empty q) do
    ignore (Sim.Event_queue.pop q : (float * int) option)
  done

let delay i = float_of_int (i mod 97) *. 1e-6

let schedule_fire () =
  let e = Sim.Engine.create () in
  for i = 0 to ops - 1 do
    ignore (Sim.Engine.schedule e ~delay:(delay i) ignore : Sim.Engine.event_id)
  done;
  ignore (Sim.Engine.run e : int)

let schedule_cancel () =
  let e = Sim.Engine.create () in
  let ids =
    List.init ops (fun i -> Sim.Engine.schedule e ~delay:(delay i) ignore)
  in
  List.iter (Sim.Engine.cancel e) ids;
  ignore (Sim.Engine.run e : int)

let fiber_consume () =
  let rec drive = function
    | Sim.Fiber.Done _ -> ()
    | Sim.Fiber.Consumed (_, r) | Sim.Fiber.Yielded r | Sim.Fiber.Blocked (_, r)
      ->
      drive (r.Sim.Fiber.resume ())
  in
  drive
    (Sim.Fiber.start (fun () ->
         for _ = 1 to ops do
           Sim.Fiber.consume 1e-6
         done))

let ethernet_send () =
  let e = Sim.Engine.create () in
  let net = Hw.Ethernet.create ~engine:e () in
  for i = 0 to ops - 1 do
    let p =
      Hw.Packet.make ~src:(i mod 4) ~dst:((i + 1) mod 4) ~size:256
        ~kind:"probe" ignore
    in
    ignore (Hw.Ethernet.send net p : float)
  done;
  ignore (Sim.Engine.run e : int)

let metrics () =
  List.map
    (fun (name, f) -> Suite.host name "ns" (time_per_op f))
    [
      ("sim.probe.event_queue_ns", event_queue);
      ("sim.probe.schedule_fire_ns", schedule_fire);
      ("sim.probe.schedule_cancel_ns", schedule_cancel);
      ("sim.probe.fiber_consume_ns", fiber_consume);
      ("hw.probe.ethernet_send_ns", ethernet_send);
    ]

(* The calibration loop uses only the standard library, so no change to
   this repository can make it faster or slower.  Its two halves mimic
   the simulator's two kinds of host work: an event queue of allocated
   closures (a [Map] keyed by time), and a stencil sweep over a 4 MB
   float array like SOR's, kept outside the OCaml heap so it does not
   count in [peak_heap_mb]. *)
module Q = Map.Make (struct
  type t = float * int

  let compare (a, i) (b, j) =
    match Float.compare a b with 0 -> Int.compare i j | c -> c
end)

let calibration_loop () =
  let q = ref Q.empty and seq = ref 0 and acc = ref 0 in
  let push t f =
    incr seq;
    q := Q.add (t, !seq) f !q
  in
  for i = 0 to 999 do
    push (float_of_int i) (fun () -> incr acc)
  done;
  for i = 1 to 50_000 do
    let ((t, _) as k), f = Q.min_binding !q in
    q := Q.remove k !q;
    f ();
    push (t +. float_of_int (i * 7919 mod 1009)) (fun () -> acc := !acc + i)
  done;
  let n = 1 lsl 19 in
  let a = Bigarray.(Array1.create float64 c_layout n) in
  for i = 0 to n - 1 do
    a.{i} <- float_of_int i
  done;
  for _ = 1 to 8 do
    for i = 1 to n - 2 do
      a.{i} <- (0.25 *. (a.{i - 1} +. a.{i + 1})) +. (0.5 *. a.{i})
    done
  done;
  ignore (Sys.opaque_identity (!acc, a.{n / 2}) : int * float)

(* The loop's host time on the machine the baselines were recorded on (a
   2-vCPU Intel Xeon VM), rounded.  A host time multiplied by this and
   divided by the loop's time measured beside it is in reference seconds:
   what it would have taken had the machine run at its reference speed.
   On a shared machine whose speed drifts from minute to minute, that
   cancels most of the drift. *)
let calibration_ref_s = 0.05

let calibration_s () =
  let t0 = Suite.now_s () in
  calibration_loop ();
  Suite.now_s () -. t0
