(** The calibrated cost model for Amber operations.

    Every virtual-time charge made by the runtime comes from this record,
    so the whole evaluation is driven by one set of constants.  The
    defaults are calibrated so that the five Table-1 microbenchmarks of the
    paper land on the published numbers (§5) {e under the paper's measuring
    conditions} (light load, moving entities fit in one packet, one-hop
    forwarding); Figures 2 and 3 then follow from the same constants
    without further fitting.

    All times are in seconds, sizes in bytes. *)

type t = {
  (* --- invocation path (§3.2, §3.5) --- *)
  invoke_entry_cpu : float;
      (** frame push + branch-on-bit residency check + virtual call *)
  invoke_return_cpu : float;  (** frame pop + return-time residency check *)
  trap_cpu : float;  (** kernel trap on a non-resident descriptor *)
  (* --- thread migration (remote invocation, §3.4) --- *)
  thread_state_bytes : int;
      (** processor state + control info + active stack pieces *)
  thread_send_cpu : float;  (** marshal + kernel send path, source node *)
  thread_recv_cpu : float;  (** unmarshal + rescheduling, destination *)
  (* --- object creation (§3.2) --- *)
  create_fixed_cpu : float;  (** heap alloc + descriptor init + constructor *)
  create_per_byte_cpu : float;
  (* --- object mobility (§3.4, §3.5) --- *)
  move_fixed_cpu : float;  (** initiation, descriptor updates both ends *)
  move_per_byte_cpu : float;  (** copying contents out of / into the heap *)
  move_ack_bytes : int;  (** completion acknowledgement *)
  preempt_victim_cpu : float;
      (** charged to each thread forcibly descheduled by a move (§3.5) *)
  (* --- forwarding and location (§3.3) --- *)
  forward_lookup_cpu : float;  (** descriptor/forwarding-address probe *)
  locate_req_bytes : int;
  (* --- threads (§2.1) --- *)
  thread_create_cpu : float;
      (** thread object + stack allocation + initial scheduling *)
  thread_join_cpu : float;  (** join rendezvous and result transfer *)
  (* --- synchronization (§2.2) --- *)
  lock_fast_cpu : float;  (** inline acquire/release of an uncontended lock *)
  spin_probe_cpu : float;  (** one spin iteration on a spinlock *)
  (* --- asynchronous invocation (Amber-Async) --- *)
  future_notify_bytes : int;
      (** resolution notice shipped from the node where an async
          invocation completed back to the future's home node: outcome
          tag plus a marshalled scalar result or exception id *)
}

val default : t

(** Topaz's scheduler timeslice: 5 ms. *)
val quantum : float

(** CPU time to switch a processor from one thread to another: 30 µs. *)
val ctx_switch : float

(** Scale every CPU cost by [factor] (e.g. to model faster processors, the
    §5 discussion of CPU speed vs. network latency). *)
val scale_cpu : t -> float -> t
