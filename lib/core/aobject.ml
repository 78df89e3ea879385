type 'a t = {
  addr : int;
  name : string;
  size : int;
  home : int;
  mutable location : int;
  mutable immutable_ : bool;
  mutable replicas : int list;
  mutable epoch : int;
  mutable repl_gen : int;
  mutable grants : (int * int) list;
  mutable writers : int;
  mutable rcopies : (int * int * 'a) list;
  mutable attached : any list;
  mutable parent : any option;
  mutable win_local : int;
  mutable win_remote : (int * int) list;
  mutable lost : bool;
      (* the only copy lived on a node that crashed without restarting:
         every further access fails crisply with {!Object_lost} *)
  mutable state : 'a;
}

and any = Any : 'a t -> any

exception Object_lost of { addr : int; name : string }
exception Chain_exhausted of { addr : int; trail : int list }

let () =
  Printexc.register_printer (function
    | Object_lost { addr; name } ->
      Some
        (Printf.sprintf
           "Aobject.Object_lost { addr = 0x%x; name = %S } (the object's \
            only copy was on a crashed node)"
           addr name)
    | Chain_exhausted { addr; trail } ->
      Some
        (Printf.sprintf
           "Aobject.Chain_exhausted { addr = 0x%x; trail = [%s] } (the \
            forwarding chain passed the hop budget without reaching the \
            object)"
           addr (String.concat "; " (List.map string_of_int trail)))
    | _ -> None)

let check_lost o =
  if o.lost then raise (Object_lost { addr = o.addr; name = o.name })

let make ~addr ~name ~size ~node state =
  {
    addr;
    name;
    size;
    home = node;
    location = node;
    immutable_ = false;
    replicas = [];
    epoch = 0;
    repl_gen = 0;
    grants = [];
    writers = 0;
    rcopies = [];
    attached = [];
    parent = None;
    win_local = 0;
    win_remote = [];
    lost = false;
    state;
  }

let record_call o ~origin ~local =
  if local then o.win_local <- o.win_local + 1
  else
    o.win_remote <-
      (match List.assoc_opt origin o.win_remote with
      | Some n -> (origin, n + 1) :: List.remove_assoc origin o.win_remote
      | None -> (origin, 1) :: o.win_remote)

let reset_window_any (Any o) =
  o.win_local <- 0;
  o.win_remote <- []

let addr_of_any (Any o) = o.addr
let name_of_any (Any o) = o.name
let size_of_any (Any o) = o.size
let location_of_any (Any o) = o.location

(* [Mobility.attach] refuses an attached child and any attachment that
   would close a cycle, so attachments form a forest and a pre-order walk
   meets each object once.  The walk still skips an object it has met, a
   scan of a closure a few objects long, so that a hand-built diamond or
   cycle ends too. *)
let attachment_closure (Any r as root) =
  if r.attached = [] then [ root ]
  else begin
    let met (Any o) = List.exists (fun (Any m) -> m.addr = o.addr) in
    let rec walk acc (Any o as node) =
      if met node acc then acc else List.fold_left walk (node :: acc) o.attached
    in
    List.rev (walk [] root)
  end

let rec closure_size (Any o) =
  List.fold_left (fun acc a -> acc + closure_size a) o.size o.attached

let usable_on o node =
  o.location = node || (o.immutable_ && List.mem node o.replicas)

let snapshot o ~node =
  List.find_map
    (fun (n, ep, v) -> if n = node then Some (ep, v) else None)
    o.rcopies

let set_snapshot o ~node ~epoch v =
  o.rcopies <- (node, epoch, v) :: List.filter (fun (n, _, _) -> n <> node) o.rcopies

let drop_snapshot o ~node =
  o.rcopies <- List.filter (fun (n, _, _) -> n <> node) o.rcopies

let pp ppf o =
  Format.fprintf ppf "%s@0x%x[%dB %s@@node%d]" o.name o.addr o.size
    (if o.immutable_ then "imm" else "mut")
    o.location
