type t = {
  rt : Amber.Runtime.t;
  main_tid : int;
  mutable sealed : float option;
}

let all_kinds =
  [
    Sim.Span.Invoke_local;
    Sim.Span.Invoke_remote;
    Sim.Span.Replica_read;
    Sim.Span.Async_invoke;
    Sim.Span.Chase_hop;
    Sim.Span.Thread_flight;
    Sim.Span.Net_flight;
    Sim.Span.Rpc_call;
    Sim.Span.Rpc_server;
    Sim.Span.Object_move;
    Sim.Span.Replica_install;
    Sim.Span.Invalidate;
    Sim.Span.Lock_wait;
    Sim.Span.Cond_wait;
    Sim.Span.Barrier_wait;
    Sim.Span.Join_wait;
    Sim.Span.Future_wait;
    Sim.Span.Steal;
    Sim.Span.Rebalance;
    Sim.Span.Serve_request;
  ]

let total t =
  match t.sealed with Some v -> v | None -> Amber.Runtime.now t.rt

let main_tid t = t.main_tid
let spans t = Sim.Span.spans (Amber.Runtime.spans t.rt)
let marks t = Sim.Span.marks (Amber.Runtime.spans t.rt)
let seal t = t.sealed <- Some (Amber.Runtime.now t.rt)

let critical_path t =
  Critical_path.analyze ~spans:(spans t) ~main_tid:t.main_tid ~total:(total t)

(* A span kind whose self time is spent off-CPU (waiting for a wire leg,
   a reply or a wakeup) rather than executing. *)
let blocked_kind = function
  | Sim.Span.Lock_wait | Sim.Span.Cond_wait | Sim.Span.Barrier_wait
  | Sim.Span.Join_wait | Sim.Span.Future_wait | Sim.Span.Thread_flight
  | Sim.Span.Net_flight | Sim.Span.Rpc_call | Sim.Span.Object_move ->
      true
  | Sim.Span.Invoke_local | Sim.Span.Invoke_remote | Sim.Span.Replica_read
  | Sim.Span.Async_invoke | Sim.Span.Chase_hop | Sim.Span.Rpc_server
  | Sim.Span.Replica_install | Sim.Span.Invalidate | Sim.Span.Steal
  | Sim.Span.Rebalance | Sim.Span.Serve_request ->
      false

let report_lines t =
  let spans = spans t in
  let tot = total t in
  (* Per-kind duration histograms (finished spans only): log-bucketed,
     so memory stays fixed on long runs and p50/p95/p99 carry a bounded
     relative error (half a 5% bucket) with no sampling noise — the same
     estimator the watch layer's windowed series use. *)
  let by_kind = Hashtbl.create 32 in
  (* Tagged spans additionally feed a per-(kind, tag) histogram, so one
     span attach yields per-attribute percentile breakdowns (e.g. the
     serving layer's per-request-class SLOs).  Untagged runs put nothing
     here and their report stays byte-identical. *)
  let by_tag = Hashtbl.create 8 in
  let opened = ref 0 in
  let hist_of tbl key =
    match Hashtbl.find_opt tbl key with
    | Some h -> h
    | None ->
        let h = Sim.Stats.Log_histogram.create () in
        Hashtbl.replace tbl key h;
        h
  in
  List.iter
    (fun (s : Sim.Span.span) ->
      if s.t1 < 0.0 then incr opened
      else begin
        let dt = s.t1 -. s.t0 in
        Sim.Stats.Log_histogram.add (hist_of by_kind s.kind) dt;
        if s.tag <> "" then
          Sim.Stats.Log_histogram.add (hist_of by_tag (s.kind, s.tag)) dt
      end)
    spans;
  let line name h =
    let p q = Sim.Stats.Log_histogram.percentile h q *. 1e6 in
    Printf.sprintf
      "%-18s n=%-6d total=%8.3fms p50=%8.1fus p95=%8.1fus p99=%8.1fus" name
      (Sim.Stats.Log_histogram.count h)
      (Sim.Stats.Log_histogram.total h *. 1e3)
      (p 50.0) (p 95.0) (p 99.0)
  in
  let kind_lines =
    List.concat_map
      (fun k ->
        match Hashtbl.find_opt by_kind k with
        | None -> []
        | Some s ->
            let tags =
              Hashtbl.fold
                (fun (k', tag) s' acc -> if k' = k then (tag, s') :: acc else acc)
                by_tag []
              |> List.sort (fun (a, _) (b, _) -> compare a b)
            in
            line (Sim.Span.kind_name k) s
            :: List.map
                 (fun (tag, s') ->
                   line (Printf.sprintf "%s[%s]" (Sim.Span.kind_name k) tag) s')
                 tags)
      all_kinds
  in
  (* Per-node attribution of span self time to on-CPU vs blocked kinds. *)
  let nodes = Amber.Runtime.nodes t.rt in
  let busy = Array.make nodes 0.0 and blocked = Array.make nodes 0.0 in
  List.iter
    (fun ((s : Sim.Span.span), excl) ->
      if s.node >= 0 && s.node < nodes then
        if blocked_kind s.kind then blocked.(s.node) <- blocked.(s.node) +. excl
        else busy.(s.node) <- busy.(s.node) +. excl)
    (Critical_path.exclusive_times ~spans ~total:tot);
  let node_lines =
    List.init nodes (fun i ->
        Printf.sprintf "node %d: spans busy %.3fms, blocked %.3fms" i
          (busy.(i) *. 1e3)
          (blocked.(i) *. 1e3))
  in
  let header =
    Printf.sprintf "%d spans over %.6fs%s" (List.length spans) tot
      (if !opened > 0 then Printf.sprintf " (%d still open)" !opened else "")
  in
  (header :: kind_lines) @ node_lines

let attach rt =
  let spans = Amber.Runtime.spans rt in
  Sim.Span.set_enabled spans true;
  let main_tid =
    match Hw.Machine.self () with
    | Some tcb -> Hw.Machine.tcb_id tcb
    | None -> -1
  in
  let t = { rt; main_tid; sealed = None } in
  Amber.Runtime.add_report_section rt ~name:"profile" (fun () ->
      report_lines t);
  t
