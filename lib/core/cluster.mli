(** Program execution over the simulated cluster.

    [run cfg main] builds the whole stack (machines, Ethernet, Topaz tasks
    and RPC servers, address-space server, descriptor tables), starts
    [main] as the program's first Amber thread on node 0, and drives the
    discrete-event engine until the simulation quiesces.  It returns
    [main]'s result together with a report of virtual-time performance. *)

type report = {
  elapsed : float;  (** virtual seconds from t=0 until [main] returned *)
  stats : Stats_report.t;  (** captured once the simulation quiesced *)
}

(** Raised when the event queue drains before the main thread finishes —
    i.e. the program deadlocked.  [unfinished] counts the Amber threads
    that never finished; [threads] describes the first ten of them in tid
    order, each as {!Hw.Machine.pp_tcb} prints it followed by
    [" in <name>"] of its innermost invocation frame's object, if it is
    inside one.  The registered printer shows both. *)
exception Deadlock of { unfinished : int; threads : string list }

(** Run to completion.  Re-raises the first thread failure, if any. *)
val run : Config.t -> (Runtime.t -> 'r) -> 'r * report

(** [run] without the report: nothing is captured. *)
val run_value : Config.t -> (Runtime.t -> 'r) -> 'r
