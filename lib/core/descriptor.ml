type state = Resident | Forwarded of int | Replica of int

module Tbl = Vaspace.Addr_table

type table = {
  node_id : int;
  entries : state Tbl.t;
  mutable uninit_reads : int;
}

let create_table ~node =
  { node_id = node; entries = Tbl.create 256; uninit_reads = 0 }

let node t = t.node_id

(* [Some Resident] is a constant, so the common read allocates nothing. *)
let get t addr =
  match Tbl.find t.entries addr with
  | Resident -> Some Resident
  | (Forwarded _ | Replica _) as s -> Some s
  | exception Not_found ->
    t.uninit_reads <- t.uninit_reads + 1;
    None

let set_resident t addr = Tbl.replace t.entries addr Resident
let set_forwarded t addr n = Tbl.replace t.entries addr (Forwarded n)
let set_replica t addr master = Tbl.replace t.entries addr (Replica master)
let clear t addr = Tbl.remove t.entries addr

let is_resident t addr =
  match Tbl.find t.entries addr with
  | Resident -> true
  | Forwarded _ | Replica _ -> false
  | exception Not_found -> false

let is_replica t addr =
  match Tbl.find t.entries addr with
  | Replica _ -> true
  | Resident | Forwarded _ -> false
  | exception Not_found -> false

let entries t = Tbl.length t.entries
let uninitialized_reads t = t.uninit_reads
