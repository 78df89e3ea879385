type state = Resident | Forwarded of int | Replica of int

(* A table is one flat int array of (address, state code) pairs under
   linear probing, so a read or a write hashes the address once, stores
   no pointer and allocates nothing.  A state code keeps the node in its
   high bits and the constructor in its low two: 0 is [Resident],
   [4n + 1] is [Forwarded n], [4n + 2] is [Replica n].  Addresses are
   non-negative, so -1 marks a free slot. *)
let free = -1
let resident = 0
let forwarded_tag = 1
let replica_tag = 2

type table = {
  node_id : int;
  mutable slots : int array;  (* 2 * capacity ints: address, code *)
  mutable mask : int;  (* capacity - 1; the capacity is a power of two *)
  mutable count : int;
  mutable uninit_reads : int;
}

(* 128 pairs, 256 words: room for 96 descriptors before the first
   growth. *)
let initial_capacity = 128

let create_table ~node =
  {
    node_id = node;
    slots = Array.make (2 * initial_capacity) free;
    mask = initial_capacity - 1;
    count = 0;
    uninit_reads = 0;
  }

let node t = t.node_id

(* [get]'s answers, shared by every table: [Some (Forwarded n)] and
   [Some (Replica n)] by node [n], built when a code naming [n] is first
   stored, so reading one allocates nothing. *)
let some_resident = Some Resident
let some_forwarded = ref [||]
let some_replica = ref [||]

let extend n =
  if n < 0 then invalid_arg "Descriptor: negative node";
  let len = max (n + 1) (2 * Array.length !some_forwarded) in
  some_forwarded := Array.init len (fun i -> Some (Forwarded i));
  some_replica := Array.init len (fun i -> Some (Replica i))

let[@inline] cover n =
  if n < 0 || n >= Array.length !some_forwarded then extend n

(* The pair position of [addr] in [slots], or of the free slot that ends
   its probe sequence: the table is never full. *)
let rec probe slots mask addr i =
  let p = 2 * i in
  let a = Array.unsafe_get slots p in
  if a = addr || a = free then p else probe slots mask addr ((i + 1) land mask)

let position t addr =
  probe t.slots t.mask addr (Vaspace.Addr_table.hash addr land t.mask)

(* The code stored for [addr], or -1 when it has none. *)
let code t addr =
  if addr < 0 then -1
  else
    let p = position t addr in
    if Array.unsafe_get t.slots p = addr then Array.unsafe_get t.slots (p + 1)
    else -1

(* Capacity doubles before an insert would fill more than three
   quarters of the slots, and never shrinks: a table of [n] entries
   holds at most [16n / 3] words once past its first size. *)
let grow t =
  let old = t.slots in
  let capacity = 2 * (t.mask + 1) in
  t.slots <- Array.make (2 * capacity) free;
  t.mask <- capacity - 1;
  for i = 0 to (Array.length old / 2) - 1 do
    let a = old.(2 * i) in
    if a <> free then begin
      let p = position t a in
      t.slots.(p) <- a;
      t.slots.(p + 1) <- old.((2 * i) + 1)
    end
  done

let rec store t addr c =
  if addr < 0 then invalid_arg "Descriptor: negative address";
  let p = position t addr in
  if t.slots.(p) = addr then t.slots.(p + 1) <- c
  else if 4 * (t.count + 1) > 3 * (t.mask + 1) then begin
    grow t;
    store t addr c
  end
  else begin
    t.slots.(p) <- addr;
    t.slots.(p + 1) <- c;
    t.count <- t.count + 1
  end

let get t addr =
  let c = code t addr in
  if c = resident then some_resident
  else if c < 0 then begin
    t.uninit_reads <- t.uninit_reads + 1;
    None
  end
  else if c land 3 = forwarded_tag then !some_forwarded.(c lsr 2)
  else !some_replica.(c lsr 2)

let set_resident t addr = store t addr resident

let set_forwarded t addr n =
  cover n;
  store t addr ((n lsl 2) lor forwarded_tag)

let set_replica t addr master =
  cover master;
  store t addr ((master lsl 2) lor replica_tag)

(* Backward-shift deletion: walk the cluster after the hole and move
   back each entry whose home slot does not lie between the hole and
   itself, so every probe sequence stays unbroken without tombstones. *)
let clear t addr =
  if addr >= 0 then begin
    let p = position t addr in
    if t.slots.(p) = addr then begin
      let slots = t.slots and mask = t.mask in
      let hole = ref (p / 2) and j = ref (p / 2) and scanning = ref true in
      while !scanning do
        j := (!j + 1) land mask;
        let a = slots.(2 * !j) in
        if a = free then scanning := false
        else
          let home = Vaspace.Addr_table.hash a land mask in
          if (!j - home) land mask >= (!j - !hole) land mask then begin
            slots.(2 * !hole) <- a;
            slots.((2 * !hole) + 1) <- slots.((2 * !j) + 1);
            hole := !j
          end
      done;
      slots.(2 * !hole) <- free;
      t.count <- t.count - 1
    end
  end

let is_resident t addr = code t addr = resident
let is_replica t addr = code t addr land 3 = replica_tag
let entries t = t.count
let uninitialized_reads t = t.uninit_reads
