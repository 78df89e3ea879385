(* Controlled nondeterminism: every scheduling decision the simulator
   makes — which pending event fires next, which ready fiber a machine
   dispatches, whether the medium misbehaves on a given packet — is a
   *choice point*.  In normal operation there is exactly one answer
   (earliest event by [(time, seq)], FIFO fiber order, the seeded fault
   dice), so no chooser is consulted and the seam costs one branch.
   When a chooser is installed (see {!Modelcheck} in the analysis
   library) the same decision points are put to it instead, which turns
   the deterministic simulator into a systematic schedule explorer. *)

type domain = Event | Fiber | Fault

let domain_name = function
  | Event -> "event"
  | Fiber -> "fiber"
  | Fault -> "fault"

let domain_of_name = function
  | "event" -> Some Event
  | "fiber" -> Some Fiber
  | "fault" -> Some Fault
  | _ -> None

type candidate = {
  dom : domain;
  ident : string;
      (* stable identity of the alternative within its decision state:
         event ids, fiber tids and fault verbs replay identically along a
         common prefix, so a chooser can recognise an alternative it has
         deferred (sleep sets) across runs *)
  key : string;
      (* static conflict key — which protocol state the alternative
         touches a priori.  "" means unknown: conservative choosers must
         treat it as conflicting with everything *)
  label : string Lazy.t;
      (* human-readable, for schedule files: forced only when a
         counterexample is written, so a decision never formats one *)
}

type t = {
  pick : domain -> candidate array -> int;
      (* called only with >= 2 candidates; must return a valid index *)
  faults : bool;
      (* offer drop/dup alternatives at fault choice points; when false
         the medium always delivers *)
  note_access : string -> unit;
      (* dynamic conflict vocabulary: the runtime reports which objects,
         locks, descriptors and futures the currently-executing decision
         touched (the AmberSan happens-before vocabulary), so the
         explorer can compute commutativity from observed behaviour
         rather than from static keys alone *)
}
