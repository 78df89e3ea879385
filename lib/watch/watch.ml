module A = Amber
module Slo = Slo
module Flight = Flight

type t = {
  rt : A.Runtime.t;
  interval : float; (* virtual seconds between samples *)
  slo : Slo.rule list;
  flight : Flight.t option;
  mutable tick_ev : Sim.Engine.event_id option;
  mutable stopped : bool;
}

let registry t = A.Runtime.metrics t.rt
let series t = Sim.Series.all (registry t)

let outcomes t = List.map (Slo.evaluate (registry t)) t.slo
let slo_fired t = Slo.any_fired (outcomes t)

let report_lines t =
  let m = registry t in
  let all = series t in
  let npoints = List.fold_left (fun n s -> n + Sim.Series.length s) 0 all in
  let header =
    Printf.sprintf "%d series, %d samples @ %.3gms, %d points (%d dropped)"
      (List.length all)
      (Sim.Series.samples_taken m)
      (t.interval *. 1e3)
      npoints (Sim.Series.total_dropped m)
  in
  let slo_lines = Slo.report_lines (outcomes t) in
  let flight_lines =
    match t.flight with Some f -> Flight.report_lines f | None -> []
  in
  let series_line s =
    let n = Sim.Series.length s in
    if n = 0 then Printf.sprintf "%-32s (no points)" (Sim.Series.qualified s)
    else begin
      let sum = ref 0.0 and mn = ref infinity and mx = ref neg_infinity in
      Sim.Series.iter_points s (fun p ->
          sum := !sum +. p.Sim.Series.v;
          if p.Sim.Series.v < !mn then mn := p.Sim.Series.v;
          if p.Sim.Series.v > !mx then mx := p.Sim.Series.v);
      let last =
        match Sim.Series.last s with
        | Some p -> p.Sim.Series.v
        | None -> 0.0
      in
      Printf.sprintf "%-32s n=%-5d last=%-10.6g min=%-10.6g max=%-10.6g mean=%.6g"
        (Sim.Series.qualified s) n last !mn !mx
        (!sum /. float_of_int n)
    end
  in
  (header :: slo_lines) @ flight_lines @ List.map series_line all

let attach rt ?(interval = 5e-3) ?(slo = []) ?flight () =
  if interval <= 0.0 then invalid_arg "Watch.attach: interval";
  let m = A.Runtime.metrics rt in
  (* Every counter and gauge of the one list, under its own name. *)
  List.iter
    (fun (e : A.Stats_report.entry) ->
      let add node =
        let read () = e.read rt node in
        match e.kind with
        | A.Stats_report.Counter -> Sim.Series.counter m ~name:e.name ~node read
        | A.Stats_report.Gauge -> Sim.Series.probe m ~name:e.name ~node read
      in
      if e.per_node then
        for n = 0 to A.Runtime.nodes rt - 1 do
          add n
        done
      else add (-1))
    A.Stats_report.entries;
  Sim.Series.enable m;
  let eng = A.Runtime.engine rt in
  let t = { rt; interval; slo; flight; tick_ev = None; stopped = false } in
  let label = Lazy.from_val "watch-tick" in
  let rec tick () =
    t.tick_ev <- None;
    if not t.stopped then begin
      Sim.Series.sample m;
      t.tick_ev <-
        Some (Sim.Engine.schedule eng ~label ~delay:interval tick)
    end
  in
  t.tick_ev <- Some (Sim.Engine.schedule eng ~label ~delay:interval tick);
  A.Runtime.add_report_section rt ~name:"watch" (fun () -> report_lines t);
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    (match t.tick_ev with
    | Some ev ->
        t.tick_ev <- None;
        Sim.Engine.cancel (A.Runtime.engine t.rt) ev
    | None -> ());
    (* One closing sample so the series reach the stop instant. *)
    Sim.Series.sample (A.Runtime.metrics t.rt)
  end
