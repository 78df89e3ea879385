(* Object record invariants: attachment closures, replica usability. *)

let mk ?(addr = 0x100) ?(size = 64) ?(node = 0) name state =
  Amber.Aobject.make ~addr ~name ~size ~node state

let test_make_defaults () =
  let o = mk "x" () in
  Alcotest.(check int) "home" 0 o.Amber.Aobject.home;
  Alcotest.(check int) "location" 0 o.Amber.Aobject.location;
  Alcotest.(check bool) "mutable" false o.Amber.Aobject.immutable_;
  Alcotest.(check bool) "no attachments" true (o.Amber.Aobject.attached = [])

let test_usable_on () =
  let o = mk "x" () in
  Alcotest.(check bool) "usable at location" true
    (Amber.Aobject.usable_on o 0);
  Alcotest.(check bool) "not elsewhere" false (Amber.Aobject.usable_on o 1);
  o.Amber.Aobject.immutable_ <- true;
  o.Amber.Aobject.replicas <- [ 2 ];
  Alcotest.(check bool) "replica usable" true (Amber.Aobject.usable_on o 2);
  Alcotest.(check bool) "non-replica not usable" false
    (Amber.Aobject.usable_on o 3)

let test_closure_single () =
  let o = mk "solo" () in
  Alcotest.(check int) "just itself" 1
    (List.length (Amber.Aobject.attachment_closure (Amber.Aobject.Any o)))

let test_closure_tree () =
  let root = mk ~addr:1 ~size:10 "root" () in
  let a = mk ~addr:2 ~size:20 "a" () in
  let b = mk ~addr:3 ~size:30 "b" () in
  let leaf = mk ~addr:4 ~size:40 "leaf" () in
  root.Amber.Aobject.attached <- [ Amber.Aobject.Any a; Amber.Aobject.Any b ];
  a.Amber.Aobject.attached <- [ Amber.Aobject.Any leaf ];
  let closure = Amber.Aobject.attachment_closure (Amber.Aobject.Any root) in
  Alcotest.(check int) "four objects" 4 (List.length closure);
  Alcotest.(check int) "total size" 100
    (Amber.Aobject.closure_size (Amber.Aobject.Any root))

let test_closure_dedup () =
  (* Defensive: a diamond (same child attached twice) is counted once. *)
  let root = mk ~addr:1 "root" () in
  let c = mk ~addr:2 "c" () in
  root.Amber.Aobject.attached <- [ Amber.Aobject.Any c; Amber.Aobject.Any c ];
  Alcotest.(check int) "dedup" 2
    (List.length (Amber.Aobject.attachment_closure (Amber.Aobject.Any root)))

(* Moves walk the closure in order: the root, then each of [attached]
   depth-first. *)
let test_closure_order () =
  let node addr name size = mk ~addr ~size name () in
  let root = node 1 "root" 1 and a = node 2 "a" 2 and b = node 3 "b" 4 in
  let c = node 4 "c" 8 and d = node 5 "d" 16 and e = node 6 "e" 32 in
  let f = node 7 "f" 64 in
  let attach p children =
    p.Amber.Aobject.attached <- List.map (fun o -> Amber.Aobject.Any o) children
  in
  attach root [ a; b ];
  attach a [ c; d ];
  attach c [ e ];
  attach b [ f ];
  Alcotest.(check (list string)) "pre-order"
    [ "root"; "a"; "c"; "e"; "d"; "b"; "f" ]
    (List.map Amber.Aobject.name_of_any
       (Amber.Aobject.attachment_closure (Amber.Aobject.Any root)));
  Alcotest.(check (list string)) "a subtree" [ "a"; "c"; "e"; "d" ]
    (List.map Amber.Aobject.name_of_any
       (Amber.Aobject.attachment_closure (Amber.Aobject.Any a)));
  Alcotest.(check int) "size of the forest" 127
    (Amber.Aobject.closure_size (Amber.Aobject.Any root))

let test_any_accessors () =
  let o = mk ~addr:0x42 ~size:77 "thing" () in
  let a = Amber.Aobject.Any o in
  Alcotest.(check int) "addr" 0x42 (Amber.Aobject.addr_of_any a);
  Alcotest.(check string) "name" "thing" (Amber.Aobject.name_of_any a);
  Alcotest.(check int) "size" 77 (Amber.Aobject.size_of_any a);
  Alcotest.(check int) "location" 0 (Amber.Aobject.location_of_any a)

let suite =
  [
    Alcotest.test_case "make defaults" `Quick test_make_defaults;
    Alcotest.test_case "usable_on" `Quick test_usable_on;
    Alcotest.test_case "closure of a lone object" `Quick test_closure_single;
    Alcotest.test_case "closure of a tree" `Quick test_closure_tree;
    Alcotest.test_case "closure dedups" `Quick test_closure_dedup;
    Alcotest.test_case "closure order" `Quick test_closure_order;
    Alcotest.test_case "any accessors" `Quick test_any_accessors;
  ]
