(* Per-class admission control: token buckets plus a queue-depth cutoff.

   Buckets refill lazily from the virtual clock passed in by the caller —
   no engine events, no RNG — so an admission controller that never
   rejects contributes nothing observable to a run.  All state is plain
   and deterministic: the same request sequence at the same virtual
   times yields the same verdicts. *)

type bucket = {
  rate : float;  (* tokens per virtual second *)
  burst : float;  (* bucket capacity *)
  mutable tokens : float;
  mutable last : float;  (* virtual time of the last refill *)
}

let bucket ~rate ~burst = { rate; burst; tokens = burst; last = 0.0 }

let refill b ~now =
  if now > b.last then begin
    b.tokens <- Float.min b.burst (b.tokens +. ((now -. b.last) *. b.rate));
    b.last <- now
  end

let tokens b ~now =
  refill b ~now;
  b.tokens

let try_take b ~now =
  refill b ~now;
  if b.tokens >= 1.0 then begin
    b.tokens <- b.tokens -. 1.0;
    true
  end
  else false

(* One node's controller: a bucket per request class plus a shared
   admitted-but-unfinished depth cutoff. *)
type t = { buckets : (string * bucket) list; cutoff : int }

let create ~classes ~cutoff =
  {
    buckets =
      List.map (fun (c, rate, burst) -> (c, bucket ~rate ~burst)) classes;
    cutoff;
  }

(* The depth cutoff is checked first so a queue-full rejection does not
   burn a token the next request could have used. *)
let admit t ~now ~cls ~depth =
  depth < t.cutoff
  &&
  match List.assoc_opt cls t.buckets with
  | Some b -> try_take b ~now
  | None -> true
