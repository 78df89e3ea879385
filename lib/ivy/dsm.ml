module Runtime = Amber.Runtime

type manager_mode = Dynamic | Fixed

type stats = {
  mutable read_faults : int;
  mutable write_faults : int;
  mutable upgrades : int;
  mutable invalidations : int;
  mutable forward_hops : int;
  mutable manager_lookups : int;
  mutable page_transfers : int;
  mutable transfer_bytes : int;
}

type t = {
  rt : Runtime.t;
  tables : Page_table.t array;
  vms : Topaz.Vm.t array;
  psize : int;
  npages : int;
  mode : manager_mode;
  (* Authoritative owner records for Fixed mode; entry [p] conceptually
     lives on [p]'s manager node and is only touched from there. *)
  fixed_owner : int array;
  st : stats;
}

let c = Costs.default
let inval_kind = Hw.Packet.Kind.v "dsm-inval"
let mgr_kind = Hw.Packet.Kind.v "dsm-mgr"
let mgr_update_kind = Hw.Packet.Kind.v "dsm-mgr-update"
let read_kind = Hw.Packet.Kind.v "dsm-read"
let write_kind = Hw.Packet.Kind.v "dsm-write"

let create rt ?initial_owner ?(manager = Dynamic) ~pages () =
  if pages <= 0 then invalid_arg "Dsm.create: pages";
  let nodes = Runtime.nodes rt in
  let initial_owner =
    match initial_owner with Some f -> f | None -> fun p -> p mod nodes
  in
  let vms = Array.init nodes (Runtime.vm rt) in
  let psize = Topaz.Vm.page_size vms.(0) in
  let tables =
    Array.init nodes (fun node ->
        Page_table.create ~node ~pages ~initial_owner)
  in
  {
    rt;
    tables;
    vms;
    psize;
    npages = pages;
    mode = manager;
    fixed_owner = Array.init pages initial_owner;
    st =
      {
        read_faults = 0;
        write_faults = 0;
        upgrades = 0;
        invalidations = 0;
        forward_hops = 0;
        manager_lookups = 0;
        page_transfers = 0;
        transfer_bytes = 0;
      };
  }

let page_size t = t.psize
let pages t = t.npages
let stats t = t.st

let here _t = Hw.Machine.id (Hw.Machine.self_machine ())

let check_page t page =
  if page < 0 || page >= t.npages then
    invalid_arg (Printf.sprintf "Dsm: page %d out of range" page)

(* Copy the owner's bytes for [page] (charging copy-out CPU in the
   caller's fiber). *)
let snapshot_page t ~node page =
  Sim.Fiber.consume (c.Costs.page_copy_cpu_per_byte *. float_of_int t.psize);
  Bytes.copy (Topaz.Vm.page_bytes t.vms.(node) page)

let install_page t ~node page data =
  Sim.Fiber.consume c.Costs.install_cpu;
  Topaz.Vm.install_page t.vms.(node) page data

(* Invalidate every node in [targets] (sequential control RPCs from the
   new owner).  The handler does not take the entry lock: revoking access
   is safe even mid-transaction, because the victim re-faults. *)
let invalidate_copies t ~new_owner page targets =
  List.iter
    (fun victim ->
      if victim <> new_owner then begin
        t.st.invalidations <- t.st.invalidations + 1;
        Topaz.Rpc.call (Runtime.rpc t.rt) ~dst:victim ~kind:inval_kind
          ~req_size:c.Costs.invalidate_bytes ~work:(fun () ->
            Sim.Fiber.consume c.Costs.invalidate_cpu;
            let e = Page_table.entry t.tables.(victim) page in
            if not e.Page_table.is_owner then begin
              e.Page_table.access <- Page_table.No_access;
              e.Page_table.prob_owner <- new_owner
            end;
            (c.Costs.ack_bytes, ()))
      end)
    targets

(* Ask [node] to run [at_owner] if it is the owner; otherwise report its
   best guess at the owner. *)
let ask_node t ~page ~kind ~at_owner node =
  Topaz.Rpc.call (Runtime.rpc t.rt) ~dst:node ~kind
    ~req_size:c.Costs.request_bytes ~work:(fun () ->
      let e = Page_table.entry t.tables.(node) page in
      if e.Page_table.is_owner then begin
        Page_table.lock_entry e;
        (* Ownership can migrate while we waited for the lock. *)
        if e.Page_table.is_owner then begin
          let result = at_owner node e in
          Page_table.unlock_entry e;
          (c.Costs.reply_ctrl_bytes + t.psize, `Done result)
        end
        else begin
          Page_table.unlock_entry e;
          (c.Costs.reply_ctrl_bytes, `Forward e.Page_table.prob_owner)
        end
      end
      else (c.Costs.reply_ctrl_bytes, `Forward e.Page_table.prob_owner))

(* Dynamic distributed manager: chase probable-owner hints. *)
let rec transact_dynamic t ~page ~kind ~at_owner node hops =
  if hops > 64 then failwith "Dsm: owner chain too long";
  match ask_node t ~page ~kind ~at_owner node with
  | `Done result -> result
  | `Forward next ->
    t.st.forward_hops <- t.st.forward_hops + 1;
    transact_dynamic t ~page ~kind ~at_owner next (hops + 1)

let manager_of t page = page mod Array.length t.tables

(* Fixed distributed manager: every page has a designated manager node
   holding the authoritative owner record; requests ask the manager, then
   the owner directly.  Ownership transfers update the manager (see
   [record_fixed_owner]), so at most a short race window needs retries. *)
let rec transact_fixed t ~page ~kind ~at_owner tries =
  if tries > 32 then failwith "Dsm: fixed manager will not settle";
  let mgr = manager_of t page in
  t.st.manager_lookups <- t.st.manager_lookups + 1;
  let owner =
    Topaz.Rpc.call (Runtime.rpc t.rt) ~dst:mgr ~kind:mgr_kind
      ~req_size:c.Costs.request_bytes ~work:(fun () ->
        Sim.Fiber.consume c.Costs.invalidate_cpu;
        (c.Costs.reply_ctrl_bytes, t.fixed_owner.(page)))
  in
  match ask_node t ~page ~kind ~at_owner owner with
  | `Done result -> result
  | `Forward _ ->
    (* The manager record was momentarily stale (transfer in flight). *)
    transact_fixed t ~page ~kind ~at_owner (tries + 1)

let transact t ~page ~kind ~at_owner start_hint =
  match t.mode with
  | Dynamic -> transact_dynamic t ~page ~kind ~at_owner start_hint 0
  | Fixed -> transact_fixed t ~page ~kind ~at_owner 0

(* After taking ownership in Fixed mode, record it at the manager before
   making the page writable. *)
let record_fixed_owner t ~page ~new_owner =
  match t.mode with
  | Dynamic -> ()
  | Fixed ->
    let mgr = manager_of t page in
    Topaz.Rpc.call (Runtime.rpc t.rt) ~dst:mgr ~kind:mgr_update_kind
      ~req_size:c.Costs.request_bytes ~work:(fun () ->
        Sim.Fiber.consume c.Costs.invalidate_cpu;
        t.fixed_owner.(page) <- new_owner;
        (c.Costs.ack_bytes, ()))

let read_fault t node page =
  t.st.read_faults <- t.st.read_faults + 1;
  Sim.Fiber.consume c.Costs.fault_trap_cpu;
  let e = Page_table.entry t.tables.(node) page in
  Page_table.lock_entry e;
  (* Another local thread may have faulted the page in meanwhile. *)
  if e.Page_table.access = Page_table.No_access then begin
    let data, owner =
      transact t ~page ~kind:read_kind
        ~at_owner:(fun owner eo ->
          (* Owner grants a read copy and downgrades to Read so a future
             write by the owner itself must re-invalidate. *)
          if not (List.mem node eo.Page_table.copyset) then
            eo.Page_table.copyset <- node :: eo.Page_table.copyset;
          if eo.Page_table.access = Page_table.Write then
            eo.Page_table.access <- Page_table.Read;
          (snapshot_page t ~node:owner page, owner))
        e.Page_table.prob_owner
    in
    t.st.page_transfers <- t.st.page_transfers + 1;
    t.st.transfer_bytes <- t.st.transfer_bytes + t.psize;
    install_page t ~node page data;
    e.Page_table.access <- Page_table.Read;
    e.Page_table.prob_owner <- owner
  end;
  Page_table.unlock_entry e

let write_fault t node page =
  t.st.write_faults <- t.st.write_faults + 1;
  Sim.Fiber.consume c.Costs.fault_trap_cpu;
  let e = Page_table.entry t.tables.(node) page in
  Page_table.lock_entry e;
  if e.Page_table.access <> Page_table.Write then begin
    if e.Page_table.is_owner then begin
      (* Upgrade in place: invalidate the readers we granted. *)
      t.st.upgrades <- t.st.upgrades + 1;
      let targets = e.Page_table.copyset in
      e.Page_table.copyset <- [];
      invalidate_copies t ~new_owner:node page targets;
      e.Page_table.access <- Page_table.Write
    end
    else begin
      let data, targets =
        transact t ~page ~kind:write_kind
          ~at_owner:(fun owner eo ->
            let data = snapshot_page t ~node:owner page in
            (* The old owner relinquishes on grant, so only read copies
               need explicit invalidation. *)
            let targets = eo.Page_table.copyset in
            eo.Page_table.copyset <- [];
            eo.Page_table.access <- Page_table.No_access;
            eo.Page_table.is_owner <- false;
            eo.Page_table.prob_owner <- node;
            (data, targets))
          e.Page_table.prob_owner
      in
      t.st.page_transfers <- t.st.page_transfers + 1;
      t.st.transfer_bytes <- t.st.transfer_bytes + t.psize;
      install_page t ~node page data;
      e.Page_table.is_owner <- true;
      e.Page_table.prob_owner <- node;
      record_fixed_owner t ~page ~new_owner:node;
      invalidate_copies t ~new_owner:node page
        (List.filter (fun v -> v <> node) targets);
      e.Page_table.copyset <- [];
      e.Page_table.access <- Page_table.Write
    end
  end;
  Page_table.unlock_entry e

let ensure t ~write addr =
  if addr < 0 then invalid_arg "Dsm: negative address";
  let page = addr / t.psize in
  check_page t page;
  let node = here t in
  let e = Page_table.entry t.tables.(node) page in
  match (e.Page_table.access, write) with
  | Page_table.Write, _ | Page_table.Read, false -> ()
  | Page_table.Read, true | Page_table.No_access, true ->
    write_fault t node page
  | Page_table.No_access, false -> read_fault t node page

let ensure_write t addr = ensure t ~write:true addr

let read_f64 t addr =
  ensure t ~write:false addr;
  Topaz.Vm.read_f64 t.vms.(here t) addr

let write_f64 t addr v =
  ensure t ~write:true addr;
  Topaz.Vm.write_f64 t.vms.(here t) addr v

let read_u8 t addr =
  ensure t ~write:false addr;
  Topaz.Vm.read_u8 t.vms.(here t) addr

let write_u8 t addr v =
  ensure t ~write:true addr;
  Topaz.Vm.write_u8 t.vms.(here t) addr v

let owner_of t page =
  check_page t page;
  let owners = ref [] in
  Array.iter
    (fun table ->
      let e = Page_table.entry table page in
      if e.Page_table.is_owner then owners := Page_table.node table :: !owners)
    t.tables;
  match !owners with
  | [ n ] -> n
  | [] -> failwith "Dsm.owner_of: page has no owner"
  | _ -> failwith "Dsm.owner_of: page has several owners"

let holders t page =
  check_page t page;
  Array.to_list t.tables
  |> List.filter_map (fun table ->
         let e = Page_table.entry table page in
         match e.Page_table.access with
         | Page_table.Read | Page_table.Write -> Some (Page_table.node table)
         | Page_table.No_access -> None)
