module A = Amber

type result = {
  iterations : int;
  checksum : float;
  compute_elapsed : float;
  read_faults : int;
  write_faults : int;
  invalidations : int;
  forward_hops : int;
  manager_lookups : int;
  transfer_bytes : int;
}

(* Interior cell (r, c), both 1-based, stored column-major so a column is
   a contiguous ~rows*8-byte run (the unit neighbors exchange). *)
let addr_of (p : Sor_core.params) ~r ~c =
  (((c - 1) * p.Sor_core.rows) + (r - 1)) * 8

(* Read a neighbor value, folding in the fixed boundary ring. *)
let read_cell dsm (p : Sor_core.params) ~r ~c =
  if r < 1 then p.Sor_core.top
  else if r > p.Sor_core.rows then p.Sor_core.bottom
  else if c < 1 then p.Sor_core.left
  else if c > p.Sor_core.cols then p.Sor_core.right
  else Ivy.Dsm.read_f64 dsm (addr_of p ~r ~c)

let sweep_columns dsm (p : Sor_core.params) color ~c_from ~c_to =
  let pts = ref 0 in
  for c = c_from to c_to do
    for r = 1 to p.Sor_core.rows do
      match (Sor_core.color_of ~r ~c, color) with
      | Sor_core.Red, Sor_core.Red | Sor_core.Black, Sor_core.Black ->
        let old = Ivy.Dsm.read_f64 dsm (addr_of p ~r ~c) in
        let avg =
          (read_cell dsm p ~r ~c:(c - 1)
          +. read_cell dsm p ~r ~c:(c + 1)
          +. read_cell dsm p ~r:(r - 1) ~c
          +. read_cell dsm p ~r:(r + 1) ~c)
          /. 4.0
        in
        let next = old +. (p.Sor_core.omega *. (avg -. old)) in
        Ivy.Dsm.write_f64 dsm (addr_of p ~r ~c) next;
        incr pts
      | Sor_core.Red, Sor_core.Black | Sor_core.Black, Sor_core.Red -> ()
    done;
    (* Charge the column's arithmetic in one slice; the faults above have
       already been charged individually. *)
    if !pts > 0 then begin
      Sim.Fiber.consume (p.Sor_core.point_cpu *. float_of_int !pts);
      pts := 0
    end
  done

let run rt (p : Sor_core.params) ?(manager = Ivy.Dsm.Dynamic) ~iters () =
  if iters <= 0 then invalid_arg "Sor_ivy.run: iters";
  (* One worker process per CPU. *)
  let procs_per_node = (A.Runtime.config rt).A.Config.cpus_per_node in
  let nodes = A.Runtime.nodes rt in
  let total_bytes = Sor_core.interior_points p * 8 in
  (* Band partitioning: node n owns columns [band_lo n, band_hi n]. *)
  let band_lo n = 1 + (n * p.Sor_core.cols / nodes) in
  let band_hi n = (n + 1) * p.Sor_core.cols / nodes in
  let page_owner psize page =
    (* Owner of the column holding the first byte of the page. *)
    let c = 1 + (page * psize / (p.Sor_core.rows * 8)) in
    let c = min c p.Sor_core.cols in
    let rec find n = if c <= band_hi n || n = nodes - 1 then n else find (n + 1) in
    find 0
  in
  let vm_psize = Topaz.Vm.page_size (A.Runtime.vm rt 0) in
  let npages = (total_bytes + vm_psize - 1) / vm_psize in
  let dsm =
    Ivy.Dsm.create rt ~initial_owner:(page_owner vm_psize) ~manager
      ~pages:npages ()
  in
  let parties = nodes * procs_per_node in
  let barrier = Ivy.Sync_rpc.Barrier.create rt ~home:0 ~parties in
  let t_ready = ref 0.0 and t_done = ref 0.0 in
  let worker node k () =
    let lo = band_lo node and hi = band_hi node in
    (* Split the node's band among its processes. *)
    let width = hi - lo + 1 in
    let c_from = lo + (k * width / procs_per_node) in
    let c_to = lo + (((k + 1) * width / procs_per_node) - 1) in
    Ivy.Sync_rpc.Barrier.pass barrier;
    if node = 0 && k = 0 then t_ready := A.Runtime.now rt;
    for _ = 1 to iters do
      if c_to >= c_from then
        sweep_columns dsm p Sor_core.Red ~c_from ~c_to;
      Ivy.Sync_rpc.Barrier.pass barrier;
      if c_to >= c_from then
        sweep_columns dsm p Sor_core.Black ~c_from ~c_to;
      Ivy.Sync_rpc.Barrier.pass barrier
    done;
    if node = 0 && k = 0 then t_done := A.Runtime.now rt
  in
  let procs =
    List.concat_map
      (fun node ->
        List.init procs_per_node (fun k ->
            Ivy.Process.spawn rt ~node
              ~name:(Printf.sprintf "ivy-sor%d.%d" node k)
              (worker node k)))
      (List.init nodes Fun.id)
  in
  List.iter (fun pr -> Ivy.Process.join pr) procs;
  (* Checksum read row-major (same order as the reference), after the
     measurement window. *)
  let checksum = ref 0.0 in
  for r = 1 to p.Sor_core.rows do
    for c = 1 to p.Sor_core.cols do
      checksum := !checksum +. Ivy.Dsm.read_f64 dsm (addr_of p ~r ~c)
    done
  done;
  let st = Ivy.Dsm.stats dsm in
  {
    iterations = iters;
    checksum = !checksum;
    compute_elapsed = !t_done -. !t_ready;
    read_faults = st.Ivy.Dsm.read_faults;
    write_faults = st.Ivy.Dsm.write_faults;
    invalidations = st.Ivy.Dsm.invalidations;
    forward_hops = st.Ivy.Dsm.forward_hops;
    manager_lookups = st.Ivy.Dsm.manager_lookups;
    transfer_bytes = st.Ivy.Dsm.transfer_bytes;
  }
