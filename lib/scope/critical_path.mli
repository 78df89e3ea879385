(** Critical-path analysis over the span forest.

    The analysis walks the {e main thread's} timeline from 0 to the end of
    the run and attributes every instant to exactly one component.  A
    span's self time (its duration minus its children's) is booked to the
    component of its kind; windows covered by no span are compute (the
    thread was running user code or was runnable).  A [Join_wait] span's
    self time descends into the {e joined} thread's timeline over the same
    window — the joined thread's work is what the waiter was actually
    waiting for — so the result approximates the longest dependency chain
    of the run.  By construction the four components sum exactly to the
    total analyzed time. *)

type component = Compute | Network | Queueing | Coherence

type report = {
  total : float;
  compute : float;
  network : float;
  queueing : float;
  coherence : float;
  contributors : (string * float) list;
      (** top self-time contributors along the walked path, largest
          first, as [(kind:label, seconds)] *)
}

val network_frac : report -> float
(** network / total (0 when total is 0). *)

val analyze :
  spans:Sim.Span.span list -> main_tid:int -> total:float -> report
(** [spans] in start order (as returned by {!Sim.Span.spans}); [total] is
    the virtual time to decompose (typically the main body's elapsed
    time); open spans are clipped to it. *)

val exclusive_times :
  spans:Sim.Span.span list -> total:float -> (Sim.Span.span * float) list
(** Self time of every span (duration minus the union of its children's
    intervals), for flat attribution uses like the per-node profile. *)

val pp : Format.formatter -> report -> unit
