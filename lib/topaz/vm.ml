type t = {
  psize : int;
  pages : (int, Bytes.t) Hashtbl.t;
  mutable zero_fill_count : int;
}

let create ?(page_size = 1024) () =
  if page_size <= 0 || page_size land 7 <> 0 then
    invalid_arg "Vm.create: page size must be positive and 8-byte aligned";
  (* Every node has a page table, but only Ivy maps pages: it starts at
     the smallest size and grows with them. *)
  { psize = page_size; pages = Hashtbl.create 16; zero_fill_count = 0 }

let page_size t = t.psize

let page_of_addr t addr =
  if addr < 0 then invalid_arg "Vm.page_of_addr: negative address";
  addr / t.psize

let page_bytes t n =
  match Hashtbl.find_opt t.pages n with
  | Some b -> b
  | None ->
    let b = Bytes.make t.psize '\000' in
    Hashtbl.replace t.pages n b;
    t.zero_fill_count <- t.zero_fill_count + 1;
    b

let is_mapped t n = Hashtbl.mem t.pages n

let install_page t n contents =
  if Bytes.length contents <> t.psize then
    invalid_arg "Vm.install_page: wrong page size";
  (match Hashtbl.find_opt t.pages n with
  | Some _ -> ()
  | None -> t.zero_fill_count <- t.zero_fill_count + 1);
  Hashtbl.replace t.pages n (Bytes.copy contents)

let read_u8 t addr =
  let b = page_bytes t (page_of_addr t addr) in
  Char.code (Bytes.get b (addr mod t.psize))

let write_u8 t addr v =
  if v < 0 || v > 255 then invalid_arg "Vm.write_u8: byte range";
  let b = page_bytes t (page_of_addr t addr) in
  Bytes.set b (addr mod t.psize) (Char.chr v)

let check_f64 t addr =
  if addr < 0 then invalid_arg "Vm: negative address";
  if addr mod t.psize > t.psize - 8 then
    invalid_arg "Vm: f64 access straddles a page"

let read_f64 t addr =
  check_f64 t addr;
  let b = page_bytes t (page_of_addr t addr) in
  Int64.float_of_bits (Bytes.get_int64_le b (addr mod t.psize))

let write_f64 t addr v =
  check_f64 t addr;
  let b = page_bytes t (page_of_addr t addr) in
  Bytes.set_int64_le b (addr mod t.psize) (Int64.bits_of_float v)

let pages_mapped t = Hashtbl.length t.pages
let zero_fills t = t.zero_fill_count
