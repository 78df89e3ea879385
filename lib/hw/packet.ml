module Kind = struct
  type t = {
    index : int;
    name : string;
    mutable reply : t option;
    mutable ack : t option;
  }

  (* The registry is per process: a kind names a message type of the
     protocol, the same in every cluster the process builds.  [table]
     holds the kinds by index, [by_name] finds one to intern.  Both start
     past 128 words: the major heap keeps a smaller block in a 32 KiB
     pool of blocks of its size class, and an array of a size class
     nothing else uses would hold a pool of its own for the life of the
     process, as serve-2x's peak heap showed. *)
  let slots = 256
  let by_name : (string, t) Hashtbl.t = Hashtbl.create slots
  let table = ref [||]
  let next = ref 0

  let v name =
    match Hashtbl.find_opt by_name name with
    | Some k -> k
    | None ->
      let k = { index = !next; name; reply = None; ack = None } in
      if k.index = Array.length !table then begin
        let bigger = Array.make (max slots (2 * k.index)) k in
        Array.blit !table 0 bigger 0 k.index;
        table := bigger
      end;
      !table.(k.index) <- k;
      incr next;
      Hashtbl.add by_name name k;
      k

  let name k = k.name
  let index k = k.index
  let count () = !next

  let of_index i =
    if i < 0 || i >= !next then invalid_arg "Packet.Kind.of_index";
    !table.(i)

  let reply k =
    match k.reply with
    | Some r -> r
    | None ->
      let r = v (k.name ^ "-reply") in
      k.reply <- Some r;
      r

  let ack k =
    match k.ack with
    | Some a -> a
    | None ->
      let a = v (k.name ^ "-ack") in
      k.ack <- Some a;
      a
end

type t = {
  src : int;
  dst : int;
  size : int;
  kind : Kind.t;
  seq : int;
  deliver : unit -> unit;
}

let of_kind ?(seq = -1) ~src ~dst ~size kind deliver =
  if size < 0 then invalid_arg "Packet.make: negative size";
  { src; dst; size; kind; seq; deliver }

let make ?seq ~src ~dst ~size ~kind deliver =
  of_kind ?seq ~src ~dst ~size (Kind.v kind) deliver

let pp ppf p =
  if p.seq >= 0 then
    Format.fprintf ppf "%s#%d[%d->%d, %dB]" p.kind.name p.seq p.src p.dst
      p.size
  else Format.fprintf ppf "%s[%d->%d, %dB]" p.kind.name p.src p.dst p.size
