exception Exhausted of { node : int; regions : int }

let () =
  Printexc.register_printer (function
    | Exhausted { node; regions } ->
      Some
        (Printf.sprintf
           "Space_server.Exhausted { node = %d; regions = %d } (the address \
            space has no region left to grant)"
           node regions)
    | _ -> None)

type t = {
  nodes : int;
  initial_per_node : int;
  (* Region index -> owning node for the [next_region] regions assigned
     so far; grown by doubling as regions are granted. *)
  mutable owners : int array;
  mutable next_region : int;
}

let create ~nodes ?(initial_per_node = 4) () =
  if nodes <= 0 then invalid_arg "Space_server.create: nodes";
  if initial_per_node <= 0 then
    invalid_arg "Space_server.create: initial_per_node";
  let n = nodes * initial_per_node in
  {
    nodes;
    initial_per_node;
    owners = Array.init n (fun index -> index / initial_per_node);
    next_region = n;
  }

let server_node _t = 0

let initial_regions t node =
  if node < 0 || node >= t.nodes then
    invalid_arg "Space_server.initial_regions: bad node";
  List.init t.initial_per_node (fun k ->
      Region.make ~index:((node * t.initial_per_node) + k) ~owner:node)

let grant t ~node =
  if node < 0 || node >= t.nodes then invalid_arg "Space_server.grant: node";
  if t.next_region >= Layout.max_regions then
    raise (Exhausted { node; regions = t.next_region });
  let index = t.next_region in
  if index = Array.length t.owners then begin
    let bigger = Array.make (min Layout.max_regions (2 * index)) 0 in
    Array.blit t.owners 0 bigger 0 index;
    t.owners <- bigger
  end;
  t.owners.(index) <- node;
  t.next_region <- index + 1;
  Region.make ~index ~owner:node

let owner_of_addr t addr =
  if not (Layout.is_heap_addr addr) then None
  else
    let index = Layout.region_index_of_addr addr in
    if index < t.next_region then Some t.owners.(index) else None

let regions_assigned t = t.next_region
