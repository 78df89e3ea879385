(* Span-balance lint: structural checks over a finished run's span set.

   The span tree is the causal record every Scope tool builds on — the
   profiler's blocked-time attribution, the critical-path walk and the
   Chrome export all assume it is well formed.  This lint makes the
   assumptions explicit and checks them:

   - balance: every span opened was closed (an open span at quiescence
     means a [finish] is missing on some code path — a leak the
     wall-clock attribution would silently mischarge);
   - async parentage: an [async] span is causally linked to its parent
     rather than nested, so a parent it names must exist and must have
     opened first — a dangling or not-yet-opened parent breaks the
     causal chain the critical-path analysis follows.  (The parent may
     well have {e closed} first: a message handler's span legitimately
     outlives the send that caused it — that is what [async] means.
     And a parent of 0 is legal: an operation launched from a thread
     body with no enclosing span is genuinely top-level.);
   - flow pairing: the Chrome export draws one [s]→[f] arrow per
     cross-node flight, keyed by span id, so flight span ids must be
     unique (a duplicated id would cross-wire two arrows in Perfetto).

   Pure function over the span list: usable online (after a run) and
   offline (loaded from a span dump). *)

let ok_eps = 1e-12

module Itbl = Vaspace.Addr_table

let lint (spans : Sim.Span.span list) : string list =
  let by_id : Sim.Span.span Itbl.t = Itbl.create 16 in
  List.iter (fun (s : Sim.Span.span) -> Itbl.replace by_id s.id s) spans;
  let findings = ref [] in
  let add fmt = Printf.ksprintf (fun s -> findings := s :: !findings) fmt in
  let describe (s : Sim.Span.span) =
    Printf.sprintf "span %d (%s %S, node %d tid %d)" s.id
      (Sim.Span.kind_name s.kind) s.label s.node s.tid
  in
  let flight_ids : unit Itbl.t = Itbl.create 16 in
  List.iter
    (fun (s : Sim.Span.span) ->
      (* balance: a close for every open *)
      if s.t1 < 0.0 then
        add "%s opened at %.6fs and never closed" (describe s) s.t0;
      (* async parentage *)
      if s.async && s.parent <> 0 then begin
        match Itbl.find_opt by_id s.parent with
        | None -> add "%s names missing parent %d" (describe s) s.parent
        | Some p ->
          if p.Sim.Span.t0 > s.t0 +. ok_eps then
            add "%s opened at %.6fs before its parent %d opened (%.6fs)"
              (describe s) s.t0 p.Sim.Span.id p.Sim.Span.t0
      end;
      (* flow pairing: ids that become s/f arrows must be unique *)
      match s.kind with
      | Sim.Span.Thread_flight | Sim.Span.Net_flight ->
        if s.arg >= 0 && s.arg <> s.node then begin
          if Itbl.mem flight_ids s.id then
            add "%s reuses flow-arrow id %d" (describe s) s.id;
          Itbl.replace flight_ids s.id ()
        end
      | _ -> ())
    spans;
  List.rev !findings
