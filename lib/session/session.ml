module A = Amber
module San = Analysis.Ambersan

type watch = { interval : float; slo : Watch.Slo.rule list }

type t = {
  sanitize : bool;
  profile : bool;
  watch : watch option;
  flight : string option;
  balance : Balance.Driver.cfg;
  report : bool;
  out : string option;
  watch_out : string option;
  watch_csv : string option;
  jsonl : bool;
}

let off =
  {
    sanitize = false;
    profile = false;
    watch = None;
    flight = None;
    balance = Balance.Driver.default_cfg;
    report = false;
    out = None;
    watch_out = None;
    watch_csv = None;
    jsonl = false;
  }

type 'a outcome = {
  result : ('a, exn) result;
  status : int;
  sanitizer : San.report option;
  profile : Scope.Profile.t option;
  watch : Watch.t option;
}

(* Handles of the layers attached inside the main thread. *)
type layers = {
  mutable san : San.t option;
  mutable prof : Scope.Profile.t option;
  mutable flight : Watch.Flight.t option;
  mutable tick : Watch.t option;
  mutable reported : int option;
      (* sanitizer findings shown in the printed report, if one was *)
}

let typed_failure = function
  | Topaz.Rpc.Node_dead _ | A.Aobject.Object_lost _
  | A.Aobject.Chain_exhausted _ | A.Overload.Overloaded _
  | A.Athread.Join_failed _ | A.Cluster.Deadlock _
  | Vaspace.Space_server.Exhausted _ ->
    true
  | _ -> false

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

(* The main thread: attach the layers in order, run the body, stop the
   recurring ticks (also when the body raises, or the engine would never
   quiesce), print the report, and seal the profiler before teardown.
   The balancer's daemons can die of the body's own typed failure, and
   stopping one joins it, so the stop runs outside the [finally]: its
   failure surfaces typed, and the body's exception wins over it. *)
let main s l ppf body rt =
  if s.sanitize then l.san <- Some (San.attach rt);
  if s.profile then l.prof <- Some (Scope.Profile.attach rt);
  l.flight <- Option.map (fun dir -> Watch.Flight.attach rt ~dir) s.flight;
  l.tick <-
    Option.map
      (fun w ->
        Watch.attach rt ~interval:w.interval ~slo:w.slo ?flight:l.flight ())
      s.watch;
  let lb = Balance.Driver.start rt s.balance in
  let r =
    Fun.protect
      ~finally:(fun () -> Option.iter Watch.stop l.tick)
      (fun () ->
        match body rt with
        | r ->
          Balance.Driver.stop lb;
          r
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          (try Balance.Driver.stop lb with _ -> ());
          Printexc.raise_with_backtrace e bt)
  in
  if s.report then begin
    l.reported <- Option.map (fun san -> San.findings (San.report san)) l.san;
    Format.fprintf ppf "@.%a@?" A.Stats_report.pp (A.Stats_report.capture rt)
  end;
  Option.iter Scope.Profile.seal l.prof;
  r

let line ppf str = Format.fprintf ppf "%s@." str

(* Profile lines (unless the report carried them), critical path, span
   exports. *)
let print_profile s ppf ~counters prof =
  if not s.report then List.iter (line ppf) (Scope.Profile.report_lines prof);
  Format.fprintf ppf "%a@?" Scope.Critical_path.pp
    (Scope.Profile.critical_path prof);
  let spans = Scope.Profile.spans prof in
  let clip = Scope.Profile.total prof in
  Option.iter
    (fun path ->
      write_file path
        (Scope.Export.chrome_json ~counters ~marks:(Scope.Profile.marks prof)
           ~clip spans);
      line ppf (Printf.sprintf "wrote %s (%d spans)" path (List.length spans)))
    s.out;
  if s.jsonl then List.iter (line ppf) (Scope.Export.spans_jsonl ~clip spans)

(* Series exports, then one verdict line per SLO rule. *)
let print_watch s ppf w =
  let series = Watch.series w in
  let export path contents =
    write_file path contents;
    line ppf (Printf.sprintf "wrote %s (%d series)" path (List.length series))
  in
  Option.iter
    (fun path ->
      export path
        (String.concat ""
           (List.map (fun l -> l ^ "\n") (Scope.Export.series_jsonl series))))
    s.watch_out;
  Option.iter
    (fun path -> export path (Scope.Export.series_csv series))
    s.watch_csv;
  List.iter (fun o -> line ppf (Watch.Slo.outcome_line o)) (Watch.outcomes w)

let run ?(ppf = Format.std_formatter) ?(print = ignore) s cfg body =
  let l =
    { san = None; prof = None; flight = None; tick = None; reported = None }
  in
  let result =
    match A.Cluster.run_value cfg (main s l ppf body) with
    | v -> Ok v
    | exception e when typed_failure e -> Error e
  in
  Result.iter_error
    (fun e -> line ppf ("failed: " ^ Printexc.to_string e))
    result;
  let sanitizer = Option.map San.finalize l.san in
  (* The printed report already carried the verdict, unless finalize's
     exhaustive audit found more. *)
  Option.iter
    (fun rep ->
      if l.reported <> Some (San.findings rep) then
        Format.fprintf ppf "%a@?" San.pp_report rep)
    sanitizer;
  Result.iter
    (fun v ->
      print v;
      let counters = Option.fold ~none:[] ~some:Watch.series l.tick in
      Option.iter (print_profile s ppf ~counters) l.prof;
      Option.iter (print_watch s ppf) l.tick)
    result;
  Option.iter
    (fun f -> List.iter (line ppf) (Watch.Flight.report_lines f))
    l.flight;
  Format.pp_print_flush ppf ();
  let status =
    if Result.is_error result then 5
    else if Option.fold ~none:false ~some:San.failed sanitizer then 3
    else if Option.fold ~none:false ~some:Watch.slo_fired l.tick then 4
    else 0
  in
  { result; status; sanitizer; profile = l.prof; watch = l.tick }
