module A = Amber

type t = { rt : A.Runtime.t; li : Loadinfo.t; rng : Sim.Rng.t }

(* Board load below which nobody is robbed. *)
let min_victim_load = 1.5

let steal_kind = Hw.Packet.Kind.v "steal-req"

let create rt ~li ~rng = { rt; li; rng }

(* Only unbound threads are stealable: a thread holding invocation frames
   is bound to its object (§3.5) and the residency check would bounce it
   straight back.  An unbound thread runs correctly anywhere.  Topaz
   server fibers are not registered Amber threads and are never taken. *)
let stealable rt tcb =
  match A.Runtime.tstate_of_tcb rt tcb with
  | Some ts -> ts.A.Runtime.frames = []
  | None -> false

let grab t ~victim ~thief =
  let rt = t.rt in
  let vm = A.Runtime.machine rt victim in
  let tm = A.Runtime.machine rt thief in
  (* Re-check at the victim: the thief may have found work, or the
     victim drained, while the steal request was in flight. *)
  if Hw.Machine.ready_length tm > 0 then false
  else
    match Hw.Machine.take_ready vm (stealable rt) with
    | None -> false
    | Some tcb ->
      let ts =
        match A.Runtime.tstate_of_tcb rt tcb with
        | Some ts -> ts
        | None -> assert false
      in
      (* The thread came out of the queue Ready; park it so the standard
         migration flight can transfer and wake it at the thief. *)
      Hw.Machine.park tcb;
      A.Runtime.with_san rt (fun h ->
          h
            (A.San_hooks.Event.Steal
               {
                 by = A.San_hooks.self_tid ();
                 tid = Hw.Machine.tcb_id tcb;
                 victim;
                 thief;
               }));
      let ctrs = A.Runtime.counters rt in
      ctrs.A.Runtime.threads_stolen <- ctrs.A.Runtime.threads_stolen + 1;
      Sim.Span.with_span (A.Runtime.spans rt) Sim.Span.Steal
        ~label:(Hw.Machine.tcb_name tcb) ~arg:thief (fun () ->
          A.Runtime.migrate_thread rt ts ~dest:thief);
      true

let tick t =
  let rt = t.rt in
  let nodes = A.Runtime.nodes rt in
  let ctrs = A.Runtime.counters rt in
  for thief = 0 to nodes - 1 do
    let m = A.Runtime.machine rt thief in
    if Hw.Machine.busy_cpus m < Hw.Machine.cpu_count m
       && Hw.Machine.ready_length m = 0
    then begin
      (* Victim = most-loaded peer on this node's board, provided it is
         over the steal threshold; ties broken by the seeded stream. *)
      let board = Loadinfo.board t.li ~viewer:thief in
      let candidates = ref [] and best = ref min_victim_load in
      for v = 0 to nodes - 1 do
        if v <> thief then begin
          let l = Loadinfo.load board.(v) in
          if l > !best +. 1e-9 then begin
            candidates := [ v ];
            best := l
          end
          else if !candidates <> [] && Float.abs (l -. !best) <= 1e-9 then
            candidates := v :: !candidates
        end
      done;
      match List.rev !candidates with
      | [] -> ()
      | cs ->
        let victim = List.nth cs (Sim.Rng.int t.rng (List.length cs)) in
        ctrs.A.Runtime.steal_requests <- ctrs.A.Runtime.steal_requests + 1;
        (* The dequeue must happen at the victim, after a wire delay —
           the handler runs in a server fiber there. *)
        Topaz.Rpc.post (A.Runtime.rpc rt) ~src:thief ~dst:victim
          ~kind:steal_kind ~size:32 (fun () ->
            ignore (grab t ~victim ~thief : bool))
    end
  done
