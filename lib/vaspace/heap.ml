(* One entry per block ever carved, live or free: its rounded size and
   whether it is allocated. *)
type block = { size : int; mutable live : bool }

type t = {
  owner_node : int;
  grow : unit -> Region.t;
  mutable region_list : Region.t list;  (* newest first *)
  mutable bump : int;  (* next unused byte in the newest region *)
  mutable bump_limit : int;
  (* size -> free blocks of exactly that (rounded) size *)
  free_pool : int list ref Addr_table.t;
  blocks : block Addr_table.t;  (* keyed by base *)
  mutable live_count : int;
  mutable reuses : int;
  mutable grows : int;
}

let create ~node ~grow () =
  {
    owner_node = node;
    grow;
    region_list = [];
    bump = 0;
    bump_limit = 0;
    free_pool = Addr_table.create 32;
    blocks = Addr_table.create 256;
    live_count = 0;
    reuses = 0;
    grows = 0;
  }

let node t = t.owner_node

let round_up size =
  let a = Layout.block_align in
  (size + a - 1) / a * a

let add_region t =
  let r = t.grow () in
  if r.Region.owner <> t.owner_node then
    invalid_arg "Heap: grow returned a region owned by another node";
  t.grows <- t.grows + 1;
  t.region_list <- r :: t.region_list;
  t.bump <- r.Region.base;
  t.bump_limit <- r.Region.base + r.Region.size

let take_free t size =
  match Addr_table.find_opt t.free_pool size with
  | None | Some { contents = [] } -> None
  | Some lst -> (
    match !lst with
    | [] -> None
    | base :: rest ->
      lst := rest;
      Some base)

let alloc t size =
  if size <= 0 then invalid_arg "Heap.alloc: non-positive size";
  let size = round_up size in
  if size > Layout.region_size then invalid_arg "Heap.alloc: size > region";
  let base =
    match take_free t size with
    | Some base ->
      t.reuses <- t.reuses + 1;
      (Addr_table.find t.blocks base).live <- true;
      base
    | None ->
      if t.bump + size > t.bump_limit then add_region t;
      let base = t.bump in
      t.bump <- base + size;
      Addr_table.add t.blocks base { size; live = true };
      base
  in
  t.live_count <- t.live_count + 1;
  base

let free t base =
  match Addr_table.find_opt t.blocks base with
  | Some ({ live = true; _ } as block) ->
    block.live <- false;
    t.live_count <- t.live_count - 1;
    let lst =
      match Addr_table.find_opt t.free_pool block.size with
      | Some l -> l
      | None ->
        let l = ref [] in
        Addr_table.replace t.free_pool block.size l;
        l
    in
    lst := base :: !lst
  | Some { live = false; _ } | None -> invalid_arg "Heap.free: not a live block"

let block_size t base =
  match Addr_table.find_opt t.blocks base with
  | Some b -> Some b.size
  | None -> None

let is_live t base =
  match Addr_table.find_opt t.blocks base with
  | Some b -> b.live
  | None -> false

let regions t = t.region_list
let live_blocks t = t.live_count

let bytes_live t =
  Addr_table.fold
    (fun _ (b : block) acc -> if b.live then acc + b.size else acc)
    t.blocks 0

let reuse_count t = t.reuses
let grow_count t = t.grows
