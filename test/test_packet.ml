(* Interned packet kinds, and the per-kind and per-node arrays the wire
   keeps with them. *)

module K = Hw.Packet.Kind

let test_intern_once () =
  let a = K.v "kind-test-a" in
  Alcotest.(check bool) "same kind" true (a == K.v "kind-test-a");
  Alcotest.(check string) "name" "kind-test-a" (K.name a);
  Alcotest.(check bool) "by index" true (K.of_index (K.index a) == a);
  Alcotest.(check bool) "index below count" true (K.index a < K.count ());
  let b = K.v "kind-test-b" in
  Alcotest.(check bool) "another name, another index" true
    (K.index a <> K.index b);
  Alcotest.check_raises "unknown index"
    (Invalid_argument "Packet.Kind.of_index") (fun () ->
      ignore (K.of_index (K.count ()) : K.t))

let test_derived_names () =
  let req = K.v "move-req" in
  let reply = K.reply req in
  Alcotest.(check string) "reply" "move-req-reply" (K.name reply);
  Alcotest.(check bool) "interned" true (reply == K.v "move-req-reply");
  Alcotest.(check bool) "derived once" true (K.reply req == reply);
  let k = K.v "kind-test-datagram" in
  Alcotest.(check string) "ack" "kind-test-datagram-ack" (K.name (K.ack k));
  Alcotest.(check bool) "ack kept" true (K.ack k == K.ack k);
  Alcotest.(check string) "an ack of a reply" "move-req-reply-ack"
    (K.name (K.ack reply))

(* A kind interned after the medium was built still gets its own
   counters. *)
let test_late_kind_counted () =
  let e = Sim.Engine.create () in
  let n = Hw.Ethernet.create ~engine:e () in
  let late = K.v "kind-test-late" in
  ignore
    (Hw.Ethernet.send n (Hw.Packet.of_kind ~src:0 ~dst:1 ~size:40 late ignore)
      : float);
  ignore (Sim.Engine.run e : int);
  Alcotest.(check (list (triple string int int))) "counted"
    [ ("kind-test-late", 1, 40) ]
    (Hw.Ethernet.traffic_by_kind n)

(* The down flags grow to the highest node marked down; other nodes
   still receive. *)
let test_down_flags () =
  let e = Sim.Engine.create () in
  let n = Hw.Ethernet.create ~engine:e () in
  let got = ref [] in
  let send dst =
    ignore
      (Hw.Ethernet.send n
         (Hw.Packet.make ~src:0 ~dst ~size:10 ~kind:"t" (fun () ->
              got := dst :: !got))
        : float)
  in
  Hw.Ethernet.set_node_down n 5;
  send 5;
  send 2;
  send 9;
  ignore (Sim.Engine.run e : int);
  Hw.Ethernet.set_node_up n 5;
  send 5;
  ignore (Sim.Engine.run e : int);
  Alcotest.(check (list int)) "delivered" [ 2; 9; 5 ] (List.rev !got);
  Alcotest.(check int) "dropped dead" 1 (Hw.Ethernet.packets_dropped_dead n)

(* The traffic section of a small 2-node run: a remote invoke, a read
   replica and its recall, a thread started and joined, and moves, one
   of them requested from a node the object left. *)
let test_traffic_pinned () =
  let module A = Amber in
  let traffic =
    A.Cluster.run_value (A.Config.make ~nodes:2 ~cpus:2 ()) (fun rt ->
        let o = A.Api.create rt ~size:256 ~name:"cell" (ref 0) in
        A.Api.move_to rt o ~dest:1;
        A.Api.invoke rt o incr;
        A.Api.replicate rt ~copy:(fun r -> ref !r) o ~dest:0;
        ignore (A.Api.invoke rt ~mode:A.San_hooks.Read o ( ! ) : int);
        A.Api.invoke rt o incr;
        let th = A.Api.start rt ~name:"w" (fun () -> A.Api.invoke rt o ( ! )) in
        ignore (A.Api.join rt th : int);
        A.Api.move_to rt o ~dest:0;
        let mover =
          A.Api.start rt ~name:"m" (fun () ->
              A.Api.invoke rt o incr;
              A.Api.move_to rt o ~dest:1)
        in
        A.Api.join rt mover;
        let far =
          A.Athread.start_on rt ~node:0 ~name:"far" (fun () ->
              A.Api.move_to rt o ~dest:0)
        in
        A.Api.join rt far;
        Hw.Ethernet.traffic_by_kind (A.Runtime.ether rt))
  in
  Alcotest.(check (list (triple string int int))) "kinds, packets, bytes"
    [
      ("inval", 1, 32);
      ("inval-reply", 1, 16);
      ("join-notify", 2, 128);
      ("locate", 1, 48);
      ("locate-reply", 1, 16);
      ("move-ack", 4, 128);
      ("move-req", 1, 64);
      ("move-req-reply", 1, 32);
      ("obj-contents", 4, 1024);
      ("repl-ack", 1, 32);
      ("repl-copy", 1, 256);
      ("thread", 2, 1024);
    ]
    traffic

let suite =
  [
    Alcotest.test_case "interning one name twice gives one kind" `Quick
      test_intern_once;
    Alcotest.test_case "derived kinds keep their names" `Quick
      test_derived_names;
    Alcotest.test_case "a kind interned late is counted" `Quick
      test_late_kind_counted;
    Alcotest.test_case "down flags by node" `Quick test_down_flags;
    Alcotest.test_case "traffic of a 2-node run pinned" `Quick
      test_traffic_pinned;
  ]
