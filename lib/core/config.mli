(** Cluster configuration for an Amber run. *)

(** One scheduled node crash.  With [restart = Some t'] the outage is
    transient: the machine freezes (fibers keep their state) and packets
    addressed to it are dropped until [t'], when it resumes exactly where
    it stopped.  With [restart = None] the crash is fail-stop: every
    thread on the node dies with [Node_dead], its un-acked RPC state is
    discarded, and the object space recovers — masters that lived there
    are re-mastered by promoting the highest-epoch live replica, and
    unreplicated objects become permanently [Object_lost]. *)
type crash = { cnode : int; at : float; restart : float option }

type t = {
  nodes : int;  (** number of machines (Fireflies) *)
  cpus_per_node : int;  (** processors available for user threads *)
  ether_bandwidth_bps : float;
  ether_mac : Hw.Ethernet.mac;  (** FIFO (idealized) or CSMA/CD *)
  rpc_servers_per_node : int;
  cost : Cost_model.t;
  initial_regions_per_node : int;
  vm_page_size : int;  (** task VM page size (Ivy's coherence unit) *)
  faults : Hw.Ethernet.faults;
      (** network fault-injection model; when any fault is enabled the
          runtime switches its RPC fabric into reliable (retransmitting)
          mode *)
  rpc_rto : float;  (** initial RPC retransmission timeout, seconds *)
  rpc_coalesce : Topaz.Rpc.coalesce option;
      (** wire-level batching of small same-destination datagrams; [None]
          (the default) keeps the transport byte-identical to the
          uncoalesced one *)
  rpc_reliable : bool;
      (** force the reliable (retransmitting, deduplicating) transport
          even with fault injection off.  Default [false]; the runtime
          also enables reliability whenever faults are on.  The model
          checker sets this because its fault decisions come from the
          schedule explorer rather than the fault dice *)
  rpc_retire_window : int;
      (** dedup-entry retirement count window (see {!Topaz.Rpc.create});
          default 1024 *)
  rpc_unsafe_dedup : bool;
      (** re-introduce the pre-fix count-window-only dedup eviction (the
          PR-6 bug) for the checker's mutation smoke; default [false] *)
  crashes : crash list;
      (** scheduled node crashes (at most one per node; node 0 is never
          crashable).  Non-empty implies the reliable RPC transport. *)
  crash_rate : float;
      (** probabilistic crash mode: each node [> 0] independently suffers
          one transient crash with this probability, at a uniform random
          time drawn from a dedicated RNG stream.  [0.0] (the default)
          draws nothing — runs are byte-identical to a build without
          crash injection *)
  rpc_max_retransmits : int;
      (** retransmission attempts after which a reliable transaction
          declares its peer dead ({!Topaz.Rpc.Node_dead}) instead of
          backing off forever; default 30 *)
  crash_skip_repair : bool;
      (** mutation flag: skip the home-node forwarding-entry repair step
          of fail-stop recovery.  Exists only so the model checker can
          demonstrate the step is load-bearing; default [false] *)
  seed : int64;
}

(** The paper's testbed defaults: CVAX Fireflies with 4 usable CPUs on a
    10 Mbit/s Ethernet. *)
val default : t

(** [make ~nodes ~cpus ()] is {!default} with the cluster size replaced. *)
val make :
  nodes:int ->
  cpus:int ->
  ?cost:Cost_model.t ->
  ?seed:int64 ->
  ?faults:Hw.Ethernet.faults ->
  ?coalesce:Topaz.Rpc.coalesce ->
  ?crashes:crash list ->
  ?crash_rate:float ->
  unit ->
  t

(** True when any crash injection is configured (scheduled or
    probabilistic) — the condition under which the runtime splits a crash
    RNG and arms the recovery machinery. *)
val crashes_enabled : t -> bool

val validate : t -> unit
(** Raises [Invalid_argument] on nonsensical configurations. *)
