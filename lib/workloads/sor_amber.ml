module A = Amber

type cfg = {
  sections : int;
  overlap : bool;
  workers_per_section : int;
  placement : (int -> int) option;
      (* section -> node; None = blocked placement over the cluster *)
}

(* The paper partitions into 8 sections, except 6 for the 3- and 6-node
   experiments. *)
let default_sections ~nodes = max nodes (if nodes mod 3 = 0 then 6 else 8)

let default_cfg rt =
  let nodes = A.Runtime.nodes rt in
  let cpus = (A.Runtime.config rt).A.Config.cpus_per_node in
  let sections = default_sections ~nodes in
  {
    sections;
    overlap = true;
    workers_per_section = max 1 (nodes * cpus / sections);
    placement = None;
  }

type result = {
  iterations : int;
  checksum : float;
  compute_elapsed : float;
  total_elapsed : float;
  remote_invocations : int;
  thread_migrations : int;
  async_invocations : int;
}

(* --- section state ------------------------------------------------------ *)

(* Local cells are (rows+2) × (ncols+2) row-major: a boundary/ghost ring
   around the section's interior columns.  Column 0 and column ncols+1
   hold either the global boundary or ghost copies of neighbor edges. *)
type section = {
  rows : int;
  ncols : int;
  col0 : int;  (* global 1-based column index of local column 1 *)
  stride : int;
  cells : float array;
  mutable comp_phase : int;  (* latest phase released to workers *)
  mutable push_phase : int;  (* latest phase released to pushers *)
  mutable interior_release : int;  (* latest phase whose interior may run *)
  mutable border_done : int;  (* cumulative border-slice completions *)
  mutable workers_done : int;  (* cumulative phase completions *)
  mutable pushes_done : int;
  mutable recv_left : int;  (* latest phase received from the left *)
  mutable recv_right : int;
  delta : Sor_core.acc;  (* largest change of the current iteration *)
  mutable stop : bool;
  mutable waiters : (unit -> unit) list;
}

let make_section (p : Sor_core.params) ~ncols ~col0 ~is_first ~is_last =
  let stride = ncols + 2 in
  let cells = Array.make ((p.Sor_core.rows + 2) * stride) 0.0 in
  (* Boundary ring: top/bottom rows, and the global left/right edges for
     the outermost sections.  Interior ghosts start at the initial value
     (0), matching the neighbors' initial interiors. *)
  for c = 0 to ncols + 1 do
    cells.(c) <- p.Sor_core.top;
    cells.(((p.Sor_core.rows + 1) * stride) + c) <- p.Sor_core.bottom
  done;
  if is_first then
    for r = 1 to p.Sor_core.rows do
      cells.(r * stride) <- p.Sor_core.left
    done;
  if is_last then
    for r = 1 to p.Sor_core.rows do
      cells.((r * stride) + ncols + 1) <- p.Sor_core.right
    done;
  {
    rows = p.Sor_core.rows;
    ncols;
    col0;
    stride;
    cells;
    comp_phase = 0;
    push_phase = 0;
    interior_release = 0;
    border_done = 0;
    workers_done = 0;
    pushes_done = 0;
    recv_left = 0;
    recv_right = 0;
    delta = { Sor_core.max_change = 0.0 };
    stop = false;
    waiters = [];
  }

(* Intra-section signalling: the participants are bound to (and therefore
   co-resident with) the section object, so this is hardware shared-memory
   synchronization; we charge the fast-lock cost per operation. *)
let sync_cost rt = (A.Runtime.cost rt).A.Cost_model.lock_fast_cpu

let notify rt s =
  Sim.Fiber.consume (sync_cost rt);
  let ws = s.waiters in
  s.waiters <- [];
  List.iter (fun wake -> wake ()) ws

let rec wait_for rt s pred =
  Sim.Fiber.consume (sync_cost rt);
  if not (pred ()) then begin
    Sim.Fiber.block (fun wake -> s.waiters <- wake :: s.waiters);
    wait_for rt s pred
  end

let phase_color phase = if phase land 1 = 1 then Sor_core.Red else Sor_core.Black

(* Update every point of [color] in local columns [c_from..c_to], rows
   [r_from..r_to], folding their largest change into the section's
   delta, then charge their CPU.  Any split or order of the ranges gives
   the same values ({!Sor_core.relax_block}). *)
let relax (p : Sor_core.params) s color ~c_from ~c_to ~r_from ~r_to =
  let pts =
    Sor_core.relax_block s.cells ~stride:s.stride ~omega:p.Sor_core.omega
      ~col0:s.col0 color ~r_from ~r_to ~c_from ~c_to s.delta
  in
  if pts > 0 then
    Sim.Fiber.consume (p.Sor_core.point_cpu *. float_of_int pts)

let worker_body rt p cfg sec_obj ~w () =
  A.Invoke.invoke rt sec_obj (fun s ->
      let nworkers = cfg.workers_per_section in
      let rec loop next =
        wait_for rt s (fun () -> s.stop || s.comp_phase >= next);
        if not s.stop then begin
          let color = phase_color next in
          (* Border columns first, rows split across workers, so the edge
             values are ready to travel as early as possible. *)
          let r_from = 1 + (w * s.rows / nworkers) in
          let r_to = (w + 1) * s.rows / nworkers in
          relax p s color ~c_from:1 ~c_to:1 ~r_from ~r_to;
          if s.ncols > 1 then
            relax p s color ~c_from:s.ncols ~c_to:s.ncols ~r_from ~r_to;
          s.border_done <- s.border_done + 1;
          notify rt s;
          (* The interior may be gated behind the edge exchange when
             overlap is disabled. *)
          wait_for rt s (fun () -> s.stop || s.interior_release >= next);
          if not s.stop then begin
            let width = max 0 (s.ncols - 2) in
            relax p s color
              ~c_from:(2 + (w * width / nworkers))
              ~c_to:(1 + ((w + 1) * width / nworkers))
              ~r_from:1 ~r_to:s.rows;
            s.workers_done <- s.workers_done + 1;
            notify rt s;
            loop (next + 1)
          end
        end
      in
      loop 1)

(* Capture the [side] border column's values of [phase]'s color while
   co-resident with the section, so the next phase may overwrite the
   border freely.  Returns the payload size and the operation that
   installs the values in the neighbor's ghost column: the values for an
   entire edge travel in a single invocation.  A column's cells of one
   color are every other row from the first one of that color. *)
let capture_edge s ~side phase =
  let lc = match side with `Left -> 1 | `Right -> s.ncols in
  let gc = s.col0 + lc - 1 in
  let first =
    match (Sor_core.color_of ~r:1 ~c:gc, phase_color phase) with
    | Sor_core.Red, Sor_core.Red | Sor_core.Black, Sor_core.Black -> 1
    | Sor_core.Red, Sor_core.Black | Sor_core.Black, Sor_core.Red -> 2
  in
  let count = (s.rows - first + 2) / 2 in
  (* Loops, not [init]/[iteri], so no value is boxed in passing. *)
  let vals = Float.Array.create count in
  for i = 0 to count - 1 do
    Float.Array.set vals i s.cells.(((first + (2 * i)) * s.stride) + lc)
  done;
  let install ns =
    let ghost_col = match side with `Left -> ns.ncols + 1 | `Right -> 0 in
    for i = 0 to count - 1 do
      ns.cells.(((first + (2 * i)) * ns.stride) + ghost_col) <-
        Float.Array.get vals i
    done;
    (match side with
    | `Left -> ns.recv_right <- max ns.recv_right phase
    | `Right -> ns.recv_left <- max ns.recv_left phase);
    let ws = ns.waiters in
    ns.waiters <- [];
    List.iter (fun wake -> wake ()) ws
  in
  (8 * count, install)

(* --- master convergence object (barrier with a combined value) ---------- *)

type master_cell = {
  mutable out : float;
  mutable cell_wake : (unit -> unit) option;
  mutable fired : bool;
}

type master = {
  parties : int;
  mutable arrived : int;
  mutable agg : float;
  mutable waiting : master_cell list;
  mutable rounds : int;
  mutable t_ready : float;  (* completion time of round 1 (setup barrier) *)
  mutable t_last : float;  (* completion time of the latest round *)
}

(* One round of the barrier: contribute [delta], block until every section
   has arrived, return the combined (maximum) delta. *)
let report_op rt delta m =
  if delta > m.agg then m.agg <- delta;
  if m.arrived + 1 >= m.parties then begin
    let value = m.agg in
    m.arrived <- 0;
    m.agg <- 0.0;
    m.rounds <- m.rounds + 1;
    let t = A.Runtime.now rt in
    if m.rounds = 1 then m.t_ready <- t;
    m.t_last <- t;
    let cells = m.waiting in
    m.waiting <- [];
    List.iter
      (fun c ->
        c.out <- value;
        c.fired <- true;
        match c.cell_wake with Some wake -> wake () | None -> ())
      cells;
    value
  end
  else begin
    m.arrived <- m.arrived + 1;
    let c = { out = 0.0; cell_wake = None; fired = false } in
    m.waiting <- c :: m.waiting;
    Sim.Fiber.block (fun wake ->
        if c.fired then wake () else c.cell_wake <- Some wake);
    c.out
  end

(* --- setup and result, shared by both programs -------------------------- *)

type grid = {
  cfg : cfg;
  prefix : string;  (* names every object and thread of the program *)
  master_obj : master A.Aobject.t;
  sec_objs : section A.Aobject.t array;
  dests : int array;  (* the node each section runs on *)
}

(* Validate [cfg], partition the columns, create the master and the
   sections on this node and work out each section's node, then hand the
   grid to [program]: it distributes the sections, runs one coordinator
   per section and returns their iteration counts. *)
let execute rt (p : Sor_core.params) ?cfg ~prefix program =
  let cfg = match cfg with Some c -> c | None -> default_cfg rt in
  let n = cfg.sections and nodes = A.Runtime.nodes rt in
  if n <= 0 || n > p.Sor_core.cols then
    invalid_arg "Sor_amber: bad section count";
  if cfg.workers_per_section <= 0 then
    invalid_arg "Sor_amber: workers_per_section must be positive";
  let place =
    match cfg.placement with Some f -> f | None -> fun i -> i * nodes / n
  in
  let dests = Array.init n place in
  if Array.exists (fun d -> d < 0 || d >= nodes) dests then
    invalid_arg "Sor_amber: placement outside the cluster";
  let ctrs = A.Runtime.counters rt in
  let remote0 = ctrs.A.Runtime.remote_invocations in
  let migr0 = ctrs.A.Runtime.thread_migrations in
  let async0 = ctrs.A.Runtime.async_invocations in
  let t0 = A.Runtime.now rt in
  let master =
    {
      parties = n;
      arrived = 0;
      agg = 0.0;
      waiting = [];
      rounds = 0;
      t_ready = 0.0;
      t_last = 0.0;
    }
  in
  let master_obj =
    A.Runtime.create_object rt ~size:128 ~name:(prefix ^ "-master") master
  in
  (* Column partitioning: spread the remainder over the first sections. *)
  let base = p.Sor_core.cols / n and rem = p.Sor_core.cols mod n in
  let col0 = ref 1 in
  let sec_objs =
    Array.init n (fun i ->
        let ncols = base + if i < rem then 1 else 0 in
        let s =
          make_section p ~ncols ~col0:!col0 ~is_first:(i = 0)
            ~is_last:(i = n - 1)
        in
        col0 := !col0 + ncols;
        A.Runtime.create_object rt
          ~size:(8 * Array.length s.cells)
          ~name:(Printf.sprintf "%s-section%d" prefix i)
          s)
  in
  let counts = program { cfg; prefix; master_obj; sec_objs; dests } in
  let iterations = List.hd counts in
  if List.exists (fun c -> c <> iterations) counts then
    failwith "Sor_amber: coordinators disagree on iteration count";
  (* Assemble the global interior in row-major order so the checksum is
     bit-identical to the sequential implementation's. *)
  let checksum = ref 0.0 in
  for r = 1 to p.Sor_core.rows do
    Array.iter
      (fun obj ->
        let s = obj.A.Aobject.state in
        for lc = 1 to s.ncols do
          checksum := !checksum +. s.cells.((r * s.stride) + lc)
        done)
      sec_objs
  done;
  {
    iterations;
    checksum = !checksum;
    compute_elapsed = master.t_last -. master.t_ready;
    total_elapsed = A.Runtime.now rt -. t0;
    remote_invocations = ctrs.A.Runtime.remote_invocations - remote0;
    thread_migrations = ctrs.A.Runtime.thread_migrations - migr0;
    async_invocations = ctrs.A.Runtime.async_invocations - async0;
  }

(* Helper threads are created by the coordinator, on the section's node,
   and are bound to the section by their own invocations. *)
let start_workers rt p g i =
  List.init g.cfg.workers_per_section (fun w ->
      A.Athread.start rt
        ~name:(Printf.sprintf "%s%d-w%d" g.prefix i w)
        (worker_body rt p g.cfg g.sec_objs.(i) ~w))

(* Once the ghost values [phase]'s color reads are in place, release the
   workers onto the border columns and wait for the edges to complete. *)
let compute_borders rt g s i phase =
  let has_left = i > 0 and has_right = i < Array.length g.sec_objs - 1 in
  wait_for rt s (fun () ->
      ((not has_left) || s.recv_left >= phase - 1)
      && ((not has_right) || s.recv_right >= phase - 1));
  s.comp_phase <- phase;
  notify rt s;
  wait_for rt s (fun () ->
      s.border_done >= g.cfg.workers_per_section * phase)

(* --- run: edge-push threads and a synchronous barrier -------------------- *)

(* Push this section's border values of the current color into the
   neighbor's ghost column: one invocation per phase, edge as payload. *)
let pusher_body rt g i ~side () =
  let neighbor_obj =
    g.sec_objs.(match side with `Left -> i - 1 | `Right -> i + 1)
  in
  A.Invoke.invoke rt g.sec_objs.(i) (fun s ->
      let rec loop next =
        wait_for rt s (fun () -> s.stop || s.push_phase >= next);
        if not s.stop then begin
          let payload, install = capture_edge s ~side next in
          A.Invoke.invoke rt ~payload neighbor_obj install;
          s.pushes_done <- s.pushes_done + 1;
          notify rt s;
          loop (next + 1)
        end
      in
      loop 1)

type mode = Fixed of int | Converge of { eps : float; max_iters : int }

let coordinator_body rt p g ~mode i () =
  let has_left = i > 0 and has_right = i < Array.length g.sec_objs - 1 in
  let n_push = Bool.to_int has_left + Bool.to_int has_right in
  let nworkers = g.cfg.workers_per_section in
  A.Invoke.invoke rt g.sec_objs.(i) (fun s ->
      let workers = start_workers rt p g i in
      let pusher side suffix =
        A.Athread.start rt
          ~name:(Printf.sprintf "%s%d-%s" g.prefix i suffix)
          (pusher_body rt g i ~side)
      in
      (* The right pusher starts first: start order fixes thread ids and
         the schedule every committed baseline was measured with. *)
      let right = if has_right then [ pusher `Right "pr" ] else [] in
      let left = if has_left then [ pusher `Left "pl" ] else [] in
      (* Setup barrier: timing starts when every section is ready. *)
      ignore (A.Invoke.invoke rt g.master_obj (report_op rt 0.0) : float);
      let do_phase phase =
        compute_borders rt g s i phase;
        (* Edge values are complete: start the exchange. *)
        s.push_phase <- phase;
        notify rt s;
        if not g.cfg.overlap then
          (* No overlap: the exchange completes before the interior
             computation starts. *)
          wait_for rt s (fun () -> s.pushes_done >= n_push * phase);
        s.interior_release <- phase;
        notify rt s;
        wait_for rt s (fun () ->
            s.workers_done >= nworkers * phase
            && s.pushes_done >= n_push * phase)
      in
      let rec iterate it =
        do_phase ((2 * it) - 1);
        do_phase (2 * it);
        let global_delta =
          A.Invoke.invoke rt g.master_obj
            (report_op rt s.delta.Sor_core.max_change)
        in
        s.delta.Sor_core.max_change <- 0.0;
        (* Every coordinator sees the same combined delta, so they all
           make the same decision. *)
        let again =
          match mode with
          | Fixed n -> it < n
          | Converge { eps; max_iters } -> global_delta >= eps && it < max_iters
        in
        if again then iterate (it + 1) else it
      in
      let iterations = iterate 1 in
      s.stop <- true;
      notify rt s;
      List.iter (fun t -> A.Athread.join rt t) workers;
      List.iter (fun t -> A.Athread.join rt t) (left @ right);
      iterations)

let run_mode rt p ?cfg mode =
  (match mode with
  | Fixed n when n <= 0 -> invalid_arg "Sor_amber: iterations"
  | Converge { eps; max_iters } when eps <= 0.0 || max_iters <= 0 ->
    invalid_arg "Sor_amber: convergence parameters"
  | Fixed _ | Converge _ -> ());
  execute rt p ?cfg ~prefix:"sor" (fun g ->
      (* Distribute the sections (explicit placement, §2.3), one blocking
         move at a time. *)
      Array.iteri
        (fun i obj ->
          if g.dests.(i) <> 0 then A.Mobility.move_to rt obj ~dest:g.dests.(i))
        g.sec_objs;
      (* One coordinator thread per section; Start makes it run an
         operation on the section object, migrating it to the section's
         node. *)
      let coords =
        Array.mapi
          (fun i _ ->
            A.Athread.start rt
              ~name:(Printf.sprintf "%s%d-coord" g.prefix i)
              (coordinator_body rt p g ~mode i))
          g.sec_objs
      in
      Array.to_list (Array.map (fun t -> A.Athread.join rt t) coords))

let run rt p ?cfg ~iters () = run_mode rt p ?cfg (Fixed iters)

let run_to_convergence rt p ?cfg ~eps ~max_iters () =
  run_mode rt p ?cfg (Converge { eps; max_iters })

(* --- run_pipelined: async edge pushes and a pipelined barrier ------------ *)

let pipelined_op rt p g ~iters i s =
  let has_left = i > 0 and has_right = i < Array.length g.sec_objs - 1 in
  let nworkers = g.cfg.workers_per_section in
  let workers = start_workers rt p g i in
  (* Setup barrier stays synchronous: timing starts when every section is
     ready. *)
  ignore (A.Invoke.invoke rt g.master_obj (report_op rt 0.0) : float);
  (* Per-side depth-1 pipeline state. *)
  let prev_left = ref None and prev_right = ref None in
  let prev_report = ref None in
  let drain prev = Option.iter (fun f -> ignore (A.Future.await rt f)) !prev in
  let push_edge side phase =
    let prev, nb =
      match side with
      | `Left -> (prev_left, i - 1)
      | `Right -> (prev_right, i + 1)
    in
    (* Serialize same-side installs: only after the previous push landed
       may a newer one overwrite the neighbor's ghost slots, keeping the
       recv_* max-gating truthful. *)
    drain prev;
    let payload, install = capture_edge s ~side phase in
    prev := Some (A.Future.invoke_async rt ~payload g.sec_objs.(nb) install)
  in
  let do_phase phase =
    compute_borders rt g s i phase;
    (* Edges complete: ship them without blocking the interior. *)
    if has_left then push_edge `Left phase;
    if has_right then push_edge `Right phase;
    if not g.cfg.overlap then begin
      (* Degenerate (diagnostic) mode: drain the exchange before the
         interior, like [run] with overlap off. *)
      drain prev_left;
      drain prev_right
    end;
    s.interior_release <- phase;
    notify rt s;
    wait_for rt s (fun () -> s.workers_done >= nworkers * phase)
  in
  for it = 1 to iters do
    do_phase ((2 * it) - 1);
    do_phase (2 * it);
    let delta = s.delta.Sor_core.max_change in
    s.delta.Sor_core.max_change <- 0.0;
    (* Pipelined convergence barrier: overlap round [it] against the next
       iteration's compute, awaiting it only before joining round
       [it + 1] — so rounds never interleave at the master. *)
    drain prev_report;
    prev_report :=
      Some (A.Future.invoke_async rt g.master_obj (report_op rt delta))
  done;
  (* Drain the pipeline before tearing the section down. *)
  drain prev_left;
  drain prev_right;
  drain prev_report;
  s.stop <- true;
  notify rt s;
  ignore (A.Athread.join_all rt workers : unit list);
  iters

let run_pipelined rt p ?cfg ~iters () =
  if iters <= 0 then invalid_arg "Sor_amber: iterations";
  execute rt p ?cfg ~prefix:"sorp" (fun g ->
      (* Overlapped distribution: each move runs on its own helper thread,
         so the transfer latencies overlap and setup costs roughly one
         move plus the shared-wire serialization instead of their sum. *)
      let movers =
        List.filter_map
          (fun i ->
            let dest = g.dests.(i) in
            if dest = 0 then None
            else
              Some
                (A.Athread.start rt
                   ~name:(Printf.sprintf "%s%d-mover" g.prefix i)
                   (fun () -> A.Mobility.move_to rt g.sec_objs.(i) ~dest)))
          (List.init (Array.length g.sec_objs) Fun.id)
      in
      ignore (A.Athread.join_all rt movers : unit list);
      (* Each coordinator is itself an asynchronous invocation on its
         section.  Joining a thread that migrated away pays a locate chase
         over its forwarding chain (§3.4), whereas a future resolves home
         with a single notify datagram. *)
      A.Future.await_all rt
        (List.init (Array.length g.sec_objs) (fun i ->
             A.Future.invoke_async rt g.sec_objs.(i)
               (pipelined_op rt p g ~iters i))))
