(* Stats-report capture. *)

module A = Amber

let capture_after body =
  Util.run ~nodes:2 ~cpus:2 (fun rt ->
      body rt;
      A.Stats_report.capture rt)

let per_node r name = List.assoc name r.A.Stats_report.values

let test_capture_basics () =
  let r =
    capture_after (fun rt ->
        let o = A.Api.create rt ~name:"o" () in
        A.Api.move_to rt o ~dest:1;
        A.Api.invoke rt o (fun () -> Sim.Fiber.consume 10e-3))
  in
  Alcotest.(check int) "two nodes" 2
    (Array.length (per_node r "hw.machine.busy_s"));
  Alcotest.(check bool) "elapsed positive" true (r.A.Stats_report.elapsed > 0.0);
  Alcotest.(check bool) "node1 did work" true
    ((per_node r "hw.machine.busy_s").(1) > 0.0);
  Alcotest.(check bool) "packets counted" true
    (A.Stats_report.get r "hw.ethernet.packets" > 0.0);
  let busy = A.Stats_report.get r "hw.ethernet.busy_s" in
  Alcotest.(check bool) "net utilization sane" true
    (busy >= 0.0 && busy <= r.A.Stats_report.elapsed)

let test_utilization_bounds () =
  let r =
    capture_after (fun rt ->
        let ts =
          List.init 4 (fun _ -> A.Api.start rt (fun () -> Sim.Fiber.consume 20e-3))
        in
        List.iter (fun t -> A.Api.join rt t) ts)
  in
  let cpus = per_node r "hw.machine.cpus" in
  Array.iteri
    (fun n busy ->
      let u = busy /. (cpus.(n) *. r.A.Stats_report.elapsed) in
      Alcotest.(check bool) "0 <= util <= 1" true (u >= 0.0 && u <= 1.0))
    (per_node r "hw.machine.busy_s")

let test_heap_accounting_visible () =
  let r =
    capture_after (fun rt ->
        for i = 1 to 5 do
          ignore (A.Api.create rt ~name:(string_of_int i) () : unit A.Aobject.t)
        done)
  in
  Alcotest.(check bool) "live objects counted" true
    ((per_node r "vaspace.live_blocks").(0) >= 5.0)

let test_pp_does_not_raise () =
  let r = capture_after (fun _rt -> ()) in
  let s = Format.asprintf "%a" A.Stats_report.pp r in
  Alcotest.(check bool) "non-empty output" true (String.length s > 50)

(* A captured report is a snapshot: activity after the capture leaves
   the printed text unchanged. *)
let test_capture_is_snapshot () =
  let before, after =
    Util.run ~nodes:2 ~cpus:2 (fun rt ->
        let o = A.Api.create rt ~name:"o" (ref 0) in
        A.Api.move_to rt o ~dest:1;
        A.Api.invoke rt o incr;
        let r = A.Stats_report.capture rt in
        let before = Format.asprintf "%a" A.Stats_report.pp r in
        for _ = 1 to 3 do
          A.Api.invoke rt o incr
        done;
        (before, Format.asprintf "%a" A.Stats_report.pp r))
  in
  Alcotest.(check bool) "one remote invoke captured" true
    (Util.contains before "invocations: 0 local, 1 remote");
  Alcotest.(check string) "printed again, unchanged" before after

let suite =
  [
    Alcotest.test_case "capture basics" `Quick test_capture_basics;
    Alcotest.test_case "utilization bounded" `Quick test_utilization_bounds;
    Alcotest.test_case "heap accounting" `Quick test_heap_accounting_visible;
    Alcotest.test_case "pretty printer" `Quick test_pp_does_not_raise;
    Alcotest.test_case "capture is a snapshot" `Quick test_capture_is_snapshot;
  ]
