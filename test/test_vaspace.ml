(* Layout arithmetic, region assignment, and the address-space server. *)

let test_layout_regions () =
  Alcotest.(check int) "region 0 base" Vaspace.Layout.heap_base
    (Vaspace.Layout.region_base 0);
  Alcotest.(check int) "region 1 base"
    (Vaspace.Layout.heap_base + Vaspace.Layout.region_size)
    (Vaspace.Layout.region_base 1);
  Alcotest.(check int) "index round trip" 5
    (Vaspace.Layout.region_index_of_addr
       (Vaspace.Layout.region_base 5 + 1234))

let test_layout_classification () =
  Alcotest.(check bool) "static" true (Vaspace.Layout.is_static_addr 100);
  Alcotest.(check bool) "static is not heap" false
    (Vaspace.Layout.is_heap_addr 100);
  Alcotest.(check bool) "heap" true
    (Vaspace.Layout.is_heap_addr Vaspace.Layout.heap_base)

let test_layout_bad_addr () =
  Alcotest.check_raises "static addr rejected"
    (Invalid_argument "Layout.region_index_of_addr: 0x10") (fun () ->
      ignore (Vaspace.Layout.region_index_of_addr 16))

let test_region_contains () =
  let r = Vaspace.Region.make ~index:2 ~owner:1 in
  Alcotest.(check bool) "base" true
    (Vaspace.Region.contains r r.Vaspace.Region.base);
  Alcotest.(check bool) "last" true
    (Vaspace.Region.contains r (Vaspace.Region.last_addr r));
  Alcotest.(check bool) "past end" false
    (Vaspace.Region.contains r (Vaspace.Region.last_addr r + 1))

let test_server_initial_assignment () =
  let s = Vaspace.Space_server.create ~nodes:3 ~initial_per_node:2 () in
  let all =
    List.concat_map
      (fun node -> Vaspace.Space_server.initial_regions s node)
      [ 0; 1; 2 ]
  in
  Alcotest.(check int) "six regions" 6 (List.length all);
  (* Disjoint indices. *)
  let idxs = List.map (fun r -> r.Vaspace.Region.index) all in
  Alcotest.(check int) "disjoint" 6
    (List.length (List.sort_uniq compare idxs));
  (* Ownership consistent with owner_of_addr. *)
  List.iter
    (fun r ->
      Alcotest.(check (option int)) "owner" (Some r.Vaspace.Region.owner)
        (Vaspace.Space_server.owner_of_addr s r.Vaspace.Region.base))
    all

let test_server_grant () =
  let s = Vaspace.Space_server.create ~nodes:2 ~initial_per_node:1 () in
  let before = Vaspace.Space_server.regions_assigned s in
  let r = Vaspace.Space_server.grant s ~node:1 in
  Alcotest.(check int) "fresh index" 2 r.Vaspace.Region.index;
  Alcotest.(check int) "owner" 1 r.Vaspace.Region.owner;
  Alcotest.(check int) "assigned count grew" (before + 1)
    (Vaspace.Space_server.regions_assigned s);
  Alcotest.(check (option int)) "queryable" (Some 1)
    (Vaspace.Space_server.owner_of_addr s r.Vaspace.Region.base)

let test_server_grants_disjoint () =
  let s = Vaspace.Space_server.create ~nodes:2 () in
  let r1 = Vaspace.Space_server.grant s ~node:0 in
  let r2 = Vaspace.Space_server.grant s ~node:1 in
  Alcotest.(check bool) "disjoint" true
    (r1.Vaspace.Region.index <> r2.Vaspace.Region.index)

(* Regions are never returned: once every one of [Layout.max_regions] is
   assigned, a grant fails typed, naming the asker and the count, and
   leaves the server's bookkeeping as it was. *)
let test_server_grant_exhausted () =
  let s = Vaspace.Space_server.create ~nodes:2 () in
  let granted = ref 0 in
  (try
     while true do
       ignore
         (Vaspace.Space_server.grant s ~node:(!granted mod 2)
           : Vaspace.Region.t);
       incr granted
     done
   with Vaspace.Space_server.Exhausted { node; regions } ->
     Alcotest.(check int) "the asker" (!granted mod 2) node;
     Alcotest.(check int) "every region assigned" Vaspace.Layout.max_regions
       regions);
  Alcotest.(check int) "granted up to the top" (Vaspace.Layout.max_regions - 8)
    !granted;
  Alcotest.(check int) "assigned count" Vaspace.Layout.max_regions
    (Vaspace.Space_server.regions_assigned s);
  Alcotest.check_raises "again"
    (Vaspace.Space_server.Exhausted
       { node = 1; regions = Vaspace.Layout.max_regions })
    (fun () ->
      ignore (Vaspace.Space_server.grant s ~node:1 : Vaspace.Region.t));
  Alcotest.(check string) "printer"
    "Space_server.Exhausted { node = 0; regions = 4080 } (the address space \
     has no region left to grant)"
    (Printexc.to_string
       (Vaspace.Space_server.Exhausted { node = 0; regions = 4080 }))

(* A table picks its bucket from the hash's low bits.  Block-aligned
   addresses and 8 KB thread segments repeat their low bits, so a hash
   that keeps them would crowd each stride into a few buckets. *)
let test_addr_hash_spreads_strides () =
  List.iter
    (fun stride ->
      let buckets = Hashtbl.create 256 in
      for i = 0 to 255 do
        let a = Vaspace.Layout.heap_base + (i * stride) in
        Hashtbl.replace buckets (Vaspace.Addr_table.hash a land 255) ()
      done;
      Alcotest.(check bool)
        (Printf.sprintf "stride %d fills at least half of 256 buckets" stride)
        true
        (Hashtbl.length buckets >= 128))
    [ Vaspace.Layout.block_align; 64; 8192; Vaspace.Layout.region_size ]

let suite =
  [
    Alcotest.test_case "layout region arithmetic" `Quick test_layout_regions;
    Alcotest.test_case "layout address classification" `Quick
      test_layout_classification;
    Alcotest.test_case "layout rejects non-heap" `Quick test_layout_bad_addr;
    Alcotest.test_case "region containment" `Quick test_region_contains;
    Alcotest.test_case "server initial assignment" `Quick
      test_server_initial_assignment;
    Alcotest.test_case "server grant" `Quick test_server_grant;
    Alcotest.test_case "grants are disjoint" `Quick test_server_grants_disjoint;
    Alcotest.test_case "grant past the last region raises" `Quick
      test_server_grant_exhausted;
    Alcotest.test_case "address hash spreads aligned strides" `Quick
      test_addr_hash_spreads_strides;
  ]
