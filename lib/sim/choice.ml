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

(* Stable identity of an alternative within its decision state: event
   ids, fiber tids and packet fates replay identically along a common
   prefix, so a chooser can recognise an alternative it has deferred
   (sleep sets) across runs.  A fault names its packet by fields, so
   offering one formats nothing. *)
type ident =
  | Event_id of int
  | Tid of int
  | Fault_tag of {
      verb : string;
      kind : string;
      src : int;
      dst : int;
      seq : int;
    }

let ident_name = function
  | Event_id id -> "e" ^ string_of_int id
  | Tid tid -> "t" ^ string_of_int tid
  | Fault_tag f ->
    Printf.sprintf "%s:%s:%d>%d:%d" f.verb f.kind f.src f.dst f.seq

let ident_equal a b =
  match (a, b) with
  | Event_id x, Event_id y | Tid x, Tid y -> x = y
  | Fault_tag f, Fault_tag g ->
    f.seq = g.seq && f.src = g.src && f.dst = g.dst
    && String.equal f.verb g.verb && String.equal f.kind g.kind
  | (Event_id _ | Tid _ | Fault_tag _), _ -> false

(* Ids and seqs are dense counters, so they spread over buckets as they
   are; a packet's three fates share one. *)
let ident_hash = function
  | Event_id id -> id
  | Tid tid -> tid
  | Fault_tag f -> f.seq

(* A conflict key is one immediate int: the subject's id shifted over a
   4-bit tag.  Ids stay far below 2^58 (addresses end at 2^32), so no two
   (tag, id) pairs meet. *)
type key = int

let tag_bits = 4
let unknown = 0
let[@inline] make tag id = (id lsl tag_bits) lor tag
let node id = make 1 id
let net node = make 2 node
let obj addr = make 3 addr
let tcb tid = make 4 tid
let lock addr = make 5 addr
let cond token = make 6 token
let fut id = make 7 id
let rpc_dedup = make 8 0
let rpc_calls = make 9 0

let key_name k =
  let id = string_of_int (k asr tag_bits) in
  match k land ((1 lsl tag_bits) - 1) with
  | 1 -> "node:" ^ id
  | 2 -> "net:n" ^ id
  | 3 -> "obj:" ^ id
  | 4 -> "tcb:" ^ id
  | 5 -> "lock:" ^ id
  | 6 -> "cond:" ^ id
  | 7 -> "fut:" ^ id
  | 8 -> "rpc:dedup"
  | 9 -> "rpc:calls"
  | _ -> ""

type candidate = {
  dom : domain;
  ident : ident;
  key : key;
      (* static conflict key — which protocol state the alternative
         touches a priori.  [unknown] means conservative choosers must
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
  note_access : key -> unit;
      (* dynamic conflict vocabulary: the runtime reports which objects,
         locks, descriptors and futures the currently-executing decision
         touched (the AmberSan happens-before vocabulary), so the
         explorer can compute commutativity from observed behaviour
         rather than from static keys alone *)
}
