type violation = {
  addr : int;
  name : string;
  node : int;
  problem : string;
}

let pp_violation ppf v =
  Format.fprintf ppf "%s@0x%x node%d: %s" v.name v.addr v.node v.problem

(* Follow forwarding addresses from [start] without charging any cost;
   returns the number of hops to reach [target], or None on a cycle /
   overlong chain.  Cycles are caught by a visited set the moment a node
   repeats — a mutual 1↔3 forwarding loop (the PR-1 livelock shape) is
   detected on its second hop, not after exhausting a hop budget. *)
let chain_length rt ~addr ~start ~target =
  let rec walk node hops visited =
    if hops > Runtime.max_forward_hops || List.mem node visited then None
    else if node = target then Some hops
    else
      match Runtime.probe rt ~node ~addr with
      | `Resident ->
        (* Resident on a node that is not the target: the caller decides
           whether that is legal (immutable replica) or a violation. *)
        Some hops
      | `Hop next | `Replica next ->
        (* A replica node is a legal stop only for reads; for chain
           termination it forwards toward its master hint like any other
           non-resident descriptor. *)
        if next = node then None else walk next (hops + 1) (node :: visited)
  in
  walk start 0 []

let check_one_live rt (Aobject.Any o) =
  let violations = ref [] in
  let add node problem =
    violations :=
      { addr = o.Aobject.addr; name = o.Aobject.name; node; problem }
      :: !violations
  in
  let loc = o.Aobject.location in
  let nodes = Runtime.nodes rt in
  let legal_resident n =
    n = loc || (o.Aobject.immutable_ && List.mem n o.Aobject.replicas)
  in
  (* 1. Residency where copies should be. *)
  if not (Descriptor.is_resident (Runtime.descriptors rt loc) o.Aobject.addr)
  then add loc "not marked resident at its current node";
  if o.Aobject.immutable_ then
    List.iter
      (fun n ->
        if
          not (Descriptor.is_resident (Runtime.descriptors rt n) o.Aobject.addr)
        then add n "replica node not marked resident")
      o.Aobject.replicas
  else
    (* Mutable read replicas: every granted node must carry a [Replica]
       descriptor and a snapshot at the object's current epoch. *)
    List.iter
      (fun n ->
        if not (Descriptor.is_replica (Runtime.descriptors rt n) o.Aobject.addr)
        then add n "replica node not marked as replica"
        else
          match Aobject.snapshot o ~node:n with
          | None -> add n "replica descriptor without a snapshot"
          | Some (ep, _) ->
            if ep <> o.Aobject.epoch then
              add n
                (Printf.sprintf
                   "replica snapshot is stale (epoch %d, object at %d)" ep
                   o.Aobject.epoch))
      o.Aobject.replicas;
  (* 2. No spurious residency, and no spurious replicas. *)
  for n = 0 to nodes - 1 do
    if
      Descriptor.is_resident (Runtime.descriptors rt n) o.Aobject.addr
      && not (legal_resident n)
    then add n "claims residency of an object that lives elsewhere";
    if
      Descriptor.is_replica (Runtime.descriptors rt n) o.Aobject.addr
      && not ((not o.Aobject.immutable_) && List.mem n o.Aobject.replicas)
    then add n "claims a replica that was never granted (or was recalled)"
  done;
  (* 2b. Forwarding chains must not point at replica nodes: a writer
     following such a pointer would try to execute at a read-only copy. *)
  for n = 0 to nodes - 1 do
    match Descriptor.get (Runtime.descriptors rt n) o.Aobject.addr with
    | Some (Descriptor.Forwarded f)
      when (not o.Aobject.immutable_) && List.mem f o.Aobject.replicas ->
      add n (Printf.sprintf "forwarded descriptor names replica node %d" f)
    | _ -> ()
  done;
  (* 3. Every node's chain reaches a legal copy. *)
  for n = 0 to nodes - 1 do
    match chain_length rt ~addr:o.Aobject.addr ~start:n ~target:loc with
    | None -> add n "forwarding chain does not terminate"
    | Some _ ->
      (* walk ended at [loc] or at some Resident node: verify legality *)
      let rec final node hops =
        if hops > Runtime.max_forward_hops then node
        else
          match Runtime.probe rt ~node ~addr:o.Aobject.addr with
          | `Resident -> node
          | `Hop next | `Replica next ->
            if next = node then node else final next (hops + 1)
      in
      let landed = final n 0 in
      if not (legal_resident landed) then
        add n
          (Printf.sprintf "forwarding chain lands on node %d, not a copy"
             landed)
  done;
  !violations

let check_one rt (Aobject.Any o) =
  if o.Aobject.lost then
    (* The only copy died with a fail-stop node; there is no legal
       residency to verify and every descriptor entry was cleared.  Any
       access raises [Object_lost], which is the invariant for lost
       objects — nothing further to audit. *)
    []
  else check_one_live rt (Aobject.Any o)

let check_objects rt objs = List.concat_map (check_one rt) objs

(* After deletion nothing may claim a usable copy: a surviving [Resident]
   would resurrect the object, a surviving [Replica] would keep serving
   reads of freed state.  Leftover [Forwarded] entries are tolerated —
   their chains end in a Miss at the home node, which the chase reports
   as a dangling reference. *)
let check_deleted rt ~addr ~name =
  let violations = ref [] in
  for n = 0 to Runtime.nodes rt - 1 do
    let add problem =
      violations := { addr; name; node = n; problem } :: !violations
    in
    if Descriptor.is_resident (Runtime.descriptors rt n) addr then
      add "resident descriptor survives deletion"
    else if Descriptor.is_replica (Runtime.descriptors rt n) addr then
      add "replica survives master deletion"
  done;
  !violations

let check_exn rt objs =
  match check_objects rt objs with
  | [] -> ()
  | vs ->
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    Format.fprintf ppf "Audit failed (%d violations):@." (List.length vs);
    List.iter (fun v -> Format.fprintf ppf "  %a@." pp_violation v) vs;
    Format.pp_print_flush ppf ();
    failwith (Buffer.contents buf)

let max_chain_length rt obj =
  let worst = ref 0 in
  for n = 0 to Runtime.nodes rt - 1 do
    match
      chain_length rt ~addr:obj.Aobject.addr ~start:n
        ~target:obj.Aobject.location
    with
    | Some h -> if h > !worst then worst := h
    | None -> ()
  done;
  !worst
