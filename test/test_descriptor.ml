(* Descriptor tables: the uninitialized-reads-as-non-resident contract. *)

let test_uninitialized_is_none () =
  let t = Amber.Descriptor.create_table ~node:0 in
  Alcotest.(check bool) "absent" true (Amber.Descriptor.get t 0x1000 = None);
  Alcotest.(check bool) "not resident" false
    (Amber.Descriptor.is_resident t 0x1000);
  Alcotest.(check int) "uninit read counted" 1
    (Amber.Descriptor.uninitialized_reads t)

let test_resident () =
  let t = Amber.Descriptor.create_table ~node:2 in
  Amber.Descriptor.set_resident t 0x2000;
  Alcotest.(check bool) "resident" true (Amber.Descriptor.is_resident t 0x2000);
  Alcotest.(check bool) "get" true
    (Amber.Descriptor.get t 0x2000 = Some Amber.Descriptor.Resident)

let test_forwarded () =
  let t = Amber.Descriptor.create_table ~node:0 in
  Amber.Descriptor.set_forwarded t 0x3000 5;
  Alcotest.(check bool) "forwarded" true
    (Amber.Descriptor.get t 0x3000 = Some (Amber.Descriptor.Forwarded 5));
  Alcotest.(check bool) "not resident" false
    (Amber.Descriptor.is_resident t 0x3000)

let test_transitions () =
  let t = Amber.Descriptor.create_table ~node:0 in
  Amber.Descriptor.set_resident t 0x10;
  Amber.Descriptor.set_forwarded t 0x10 3;
  Alcotest.(check bool) "now forwarded" true
    (Amber.Descriptor.get t 0x10 = Some (Amber.Descriptor.Forwarded 3));
  Amber.Descriptor.set_resident t 0x10;
  Alcotest.(check bool) "back resident" true (Amber.Descriptor.is_resident t 0x10)

let test_clear () =
  let t = Amber.Descriptor.create_table ~node:0 in
  Amber.Descriptor.set_resident t 0x10;
  Amber.Descriptor.clear t 0x10;
  Alcotest.(check bool) "cleared reads uninitialized" true
    (Amber.Descriptor.get t 0x10 = None)

let test_entries_count () =
  let t = Amber.Descriptor.create_table ~node:0 in
  Amber.Descriptor.set_resident t 1;
  Amber.Descriptor.set_forwarded t 2 1;
  Amber.Descriptor.set_resident t 1;
  Alcotest.(check int) "distinct entries" 2 (Amber.Descriptor.entries t)

(* --- the flat table against an association-list model ------------------ *)

module D = Amber.Descriptor

(* Addresses whose home slots in a fresh table (capacity 128) coincide:
   [per] of them for each of [homes], slot 127 included so that probe
   sequences wrap.  They still share clusters after the table grows. *)
let colliding ~homes ~per =
  let found = Hashtbl.create 16 in
  let rec scan a acc =
    if List.length acc = List.length homes * per then List.rev acc
    else
      let h = Vaspace.Addr_table.hash a land 127 in
      let n = Option.value (Hashtbl.find_opt found h) ~default:0 in
      if List.mem h homes && n < per then begin
        Hashtbl.replace found h (n + 1);
        scan (a + 16) (a :: acc)
      end
      else scan (a + 16) acc
  in
  scan Vaspace.Layout.heap_base []

(* 36 colliding addresses, then 200 thread segments 8 KiB apart: enough
   live keys to grow a fresh table twice. *)
let pool =
  Array.of_list
    (colliding ~homes:[ 5; 6; 127 ] ~per:12
    @ List.init 200 (fun i -> (2 * Vaspace.Layout.heap_base) + (i * 8192)))

type op =
  | Set_resident of int
  | Set_forwarded of int * int
  | Set_replica of int * int
  | Clear of int
  | Get of int
  | Is_resident of int
  | Is_replica of int
  | Fill of int  (** [set_resident] on [fill] addresses from this one *)

let fill = 40

let pp_op = function
  | Set_resident i -> Printf.sprintf "set_resident a%d" i
  | Set_forwarded (i, n) -> Printf.sprintf "set_forwarded a%d %d" i n
  | Set_replica (i, n) -> Printf.sprintf "set_replica a%d %d" i n
  | Clear i -> Printf.sprintf "clear a%d" i
  | Get i -> Printf.sprintf "get a%d" i
  | Is_resident i -> Printf.sprintf "is_resident a%d" i
  | Is_replica i -> Printf.sprintf "is_replica a%d" i
  | Fill i -> Printf.sprintf "fill a%d.." i

(* Half the operations pick among the colliding addresses, so clears
   open holes inside long clusters; fills grow the table. *)
let arb_ops =
  let open QCheck.Gen in
  let addr =
    frequency [ (1, int_bound 35); (1, int_bound (Array.length pool - 1)) ]
  in
  let op =
    frequency
      [
        (9, map (fun i -> Set_resident i) addr);
        (6, map2 (fun i n -> Set_forwarded (i, n)) addr (int_bound 9));
        (3, map2 (fun i n -> Set_replica (i, n)) addr (int_bound 9));
        (9, map (fun i -> Clear i) addr);
        (6, map (fun i -> Get i) addr);
        (3, map (fun i -> Is_resident i) addr);
        (3, map (fun i -> Is_replica i) addr);
        (1, map (fun i -> Fill i) (int_bound (Array.length pool - 1)));
      ]
  in
  QCheck.make ~print:QCheck.Print.(list pp_op) ~shrink:QCheck.Shrink.list
    (list_size (int_range 0 600) op)

let pp_state = function
  | None -> "none"
  | Some D.Resident -> "resident"
  | Some (D.Forwarded n) -> Printf.sprintf "forwarded %d" n
  | Some (D.Replica n) -> Printf.sprintf "replica %d" n

let prop_model =
  QCheck.Test.make ~name:"flat table matches an association list" ~count:200
    arb_ops (fun ops ->
      let t = D.create_table ~node:0 in
      let model = ref [] and misses = ref 0 in
      let fail = QCheck.Test.fail_reportf in
      let check_get what a =
        let want = List.assoc_opt a !model in
        if want = None then incr misses;
        let got = D.get t a in
        if got <> want then
          fail "%s: get 0x%x = %s, model %s" what a (pp_state got)
            (pp_state want)
      in
      let check_is what a =
        let want = List.assoc_opt a !model in
        if D.is_resident t a <> (want = Some D.Resident) then
          fail "%s: is_resident 0x%x disagrees" what a;
        let replica =
          match want with Some (D.Replica _) -> true | _ -> false
        in
        if D.is_replica t a <> replica then
          fail "%s: is_replica 0x%x disagrees" what a
      in
      let set a s = model := (a, s) :: List.remove_assoc a !model in
      List.iter
        (fun op ->
          let what = pp_op op in
          (match op with
          | Set_resident i ->
            D.set_resident t pool.(i);
            set pool.(i) D.Resident
          | Set_forwarded (i, n) ->
            D.set_forwarded t pool.(i) n;
            set pool.(i) (D.Forwarded n)
          | Set_replica (i, n) ->
            D.set_replica t pool.(i) n;
            set pool.(i) (D.Replica n)
          | Clear i ->
            D.clear t pool.(i);
            model := List.remove_assoc pool.(i) !model
          | Get i -> check_get what pool.(i)
          | Is_resident i | Is_replica i -> check_is what pool.(i)
          | Fill i ->
            for k = i to min (i + fill) (Array.length pool) - 1 do
              D.set_resident t pool.(k);
              set pool.(k) D.Resident
            done);
          if D.entries t <> List.length !model then
            fail "%s: %d entries, model %d" what (D.entries t)
              (List.length !model);
          if D.uninitialized_reads t <> !misses then
            fail "%s: %d uninitialized reads, model %d" what
              (D.uninitialized_reads t) !misses)
        ops;
      (* Every address still reads right once the sequence is over: a
         clear that broke a probe sequence shows here. *)
      Array.iter
        (fun a ->
          check_get "final sweep" a;
          check_is "final sweep" a)
        pool;
      D.uninitialized_reads t = !misses)

(* Growth keeps every entry: 1,000 thread segments, then half cleared. *)
let test_growth () =
  let t = D.create_table ~node:1 in
  let addr i = Vaspace.Layout.heap_base + (i * 8192) in
  for i = 0 to 999 do
    if i mod 3 = 0 then D.set_forwarded t (addr i) (i mod 7)
    else D.set_resident t (addr i)
  done;
  for i = 0 to 999 do
    if i mod 2 = 0 then D.clear t (addr i)
  done;
  Alcotest.(check int) "entries" 500 (D.entries t);
  for i = 0 to 999 do
    let want =
      if i mod 2 = 0 then None
      else if i mod 3 = 0 then Some (D.Forwarded (i mod 7))
      else Some D.Resident
    in
    if D.get t (addr i) <> want then
      Alcotest.failf "segment %d reads %s" i (pp_state (D.get t (addr i)))
  done;
  Alcotest.(check int) "cleared reads count as uninitialized" 500
    (D.uninitialized_reads t)

let test_negative_rejected () =
  let t = D.create_table ~node:0 in
  Alcotest.check_raises "address"
    (Invalid_argument "Descriptor: negative address") (fun () ->
      D.set_resident t (-1));
  Alcotest.check_raises "node" (Invalid_argument "Descriptor: negative node")
    (fun () -> D.set_forwarded t 16 (-1));
  Alcotest.(check bool) "a negative address reads uninitialized" true
    (D.get t (-1) = None);
  Alcotest.(check int) "nothing stored" 0 (D.entries t)

(* Minor words [f] allocates over 1,000 calls. *)
let words f =
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    f ()
  done;
  Gc.minor_words () -. before

(* A read, and a write to an entry that exists, allocate nothing: [get]
   hands out shared options and a state is stored as an int code. *)
let test_no_allocation () =
  let t = D.create_table ~node:0 in
  let a = 0x2000 and b = 0x3000 and c = 0x4000 and absent = 0x5000 in
  D.set_resident t a;
  D.set_forwarded t b 3;
  D.set_replica t c 5;
  let cases =
    [
      ("get resident", fun () -> ignore (D.get t a : D.state option));
      ("get forwarded", fun () -> ignore (D.get t b : D.state option));
      ("get replica", fun () -> ignore (D.get t c : D.state option));
      ("get absent", fun () -> ignore (D.get t absent : D.state option));
      ("is_resident", fun () -> ignore (D.is_resident t a : bool));
      ("is_replica", fun () -> ignore (D.is_replica t c : bool));
      ("set_resident", fun () -> D.set_resident t a);
      ("set_forwarded", fun () -> D.set_forwarded t b 3);
      ("set_replica", fun () -> D.set_replica t c 5);
      ("set_forwarded over a replica", fun () -> D.set_forwarded t c 5);
    ]
  in
  List.iter
    (fun (what, f) -> Alcotest.(check (float 0.0)) what 0.0 (words f))
    cases

let suite =
  [
    Alcotest.test_case "uninitialized descriptor" `Quick
      test_uninitialized_is_none;
    Alcotest.test_case "resident" `Quick test_resident;
    Alcotest.test_case "forwarded" `Quick test_forwarded;
    Alcotest.test_case "state transitions" `Quick test_transitions;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "entry counting" `Quick test_entries_count;
    QCheck_alcotest.to_alcotest prop_model;
    Alcotest.test_case "growth keeps every entry" `Quick test_growth;
    Alcotest.test_case "negative address or node rejected" `Quick
      test_negative_rejected;
    Alcotest.test_case "reads and writes allocate nothing" `Quick
      test_no_allocation;
  ]
