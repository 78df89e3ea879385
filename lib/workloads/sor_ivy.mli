(** Red/Black SOR over Ivy-style shared virtual memory — the comparison
    system of paper §4, written the way an Ivy programmer would write it:

    - the grid lives in the shared address space, column-major so that a
      grid column (the unit neighbors exchange) is nearly page-aligned;
    - each node owns a band of columns; worker processes never migrate —
      remote data arrives via page faults;
    - phases are separated by an RPC barrier (the deviation from pure data
      shipping that "recent versions of Ivy" adopted, §4.1).

    Border columns are read by neighbors each phase and re-written by
    their owner each phase, so every iteration pays read faults +
    invalidations per boundary — and when the page size exceeds the column
    size, false sharing adds traffic Amber does not have (§4.2).  Each
    node runs one worker process per CPU. *)

type result = {
  iterations : int;
  checksum : float;
  compute_elapsed : float;  (** between the ready and final barriers *)
  read_faults : int;
  write_faults : int;
  invalidations : int;
  forward_hops : int;  (** dynamic-manager hint chases *)
  manager_lookups : int;  (** fixed-manager queries *)
  transfer_bytes : int;
}

(** Run [iters] iterations on a DSM created over [rt].  Must be called
    from the program's main thread. *)
val run :
  Amber.Runtime.t ->
  Sor_core.params ->
  ?manager:Ivy.Dsm.manager_mode ->
  iters:int ->
  unit ->
  result
