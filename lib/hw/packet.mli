(** Network packets.

    A packet carries no simulated bytes — only a size (which determines
    transmission time on the wire) and a [deliver] callback executed at the
    destination when the packet arrives.  The callback typically hands the
    payload to an OS-level handler (e.g. wakes an RPC server thread). *)

(** Packet kinds, interned: one value per name for the whole process.
    A sender interns its kind once, where it is defined, so the wire
    counts traffic by {!index} and never hashes a name per packet. *)
module Kind : sig
  type t

  (** The kind named [name]; interning one name twice gives the same
      kind. *)
  val v : string -> t

  val name : t -> string

  (** Dense, from 0 in interning order: an index into per-kind
      arrays. *)
  val index : t -> int

  (** Kinds interned so far: every {!index} is below it. *)
  val count : unit -> int

  (** The kind with this index.  Raises [Invalid_argument] for an index
      not yet handed out. *)
  val of_index : int -> t

  (** ["<name>-reply"] and ["<name>-ack"], interned on first use and
      kept with the kind, so deriving them again costs a field read. *)
  val reply : t -> t

  val ack : t -> t
end

type t = {
  src : int;  (** source node id *)
  dst : int;  (** destination node id *)
  size : int;  (** payload bytes (headers are added by the medium) *)
  kind : Kind.t;  (** for tracing: "rpc-req", "thread", "obj", "page", … *)
  seq : int;
      (** transport sequence number, or [-1] for unsequenced traffic.
          Retransmissions of the same logical message carry the same
          [seq], which is what receiver-side duplicate suppression keys
          on (and what makes retransmitted packets identifiable in
          traces). *)
  deliver : unit -> unit;
}

(** A packet of an interned kind.  Raises [Invalid_argument] on a
    negative size. *)
val of_kind :
  ?seq:int -> src:int -> dst:int -> size:int -> Kind.t -> (unit -> unit) ->
  t

(** {!of_kind} after interning [kind], which hashes the name: for tests
    and one-off senders. *)
val make :
  ?seq:int -> src:int -> dst:int -> size:int -> kind:string ->
  (unit -> unit) -> t

val pp : Format.formatter -> t -> unit
