(* amber_bench: the repository benchmark.

     amber_bench.exe run     [--workload W] [--seed S] [--reps N] [--scale X]
                             [--json FILE] [--max-seconds T]
     amber_bench.exe trace   [--workload W] [--seed S] [--out DIR]
     amber_bench.exe compare PARENT.json... -- CHANGE.json...
                             [--claim METRIC@WORKLOAD]
     amber_bench.exe --workload W --seed S --seconds T --trace 0|1

   Every repetition of a workload is a fresh child process (this same
   executable, [child] subcommand), run one at a time; the parent only
   spawns, waits and aggregates.  The last form is the fixed-duration
   entry point named by BENCHMARK.json: it repeats the workload for T
   seconds and ends with one JSON line holding the metrics that file
   lists.  See README.md for the metric dictionary. *)

let fi = float_of_int
let eprintf = Printf.eprintf

(* ------------------------------------------------------------------ *)
(* End-to-end metric dictionary                                        *)
(* ------------------------------------------------------------------ *)

type better = Lower | Higher

type spec = {
  name : string;
  better : better;
  rel : float option;  (** allowed relative worsening *)
  abs : float option;  (** allowed absolute worsening *)
}

let spec ?rel ?abs better name = { name; better; rel; abs }

(* In print order.  Metrics without a bound here take their relative
   bound from BENCHMARK.json (see [bounds]); set-up time also has an
   absolute floor, because a 10% move of a few milliseconds is noise. *)
let e2e =
  [
    spec Lower "virt_elapsed_s" ~rel:0.01;
    spec Higher "goodput_rps" ~rel:0.01;
    spec Lower "op_p50_ms" ~rel:0.05;
    spec Lower "op_p99_ms" ~rel:0.05;
    spec Lower "reject_frac" ~abs:0.005;
    spec Lower "error_frac" ~abs:0.0;
    spec Lower "paper_max_rel_err" ~abs:0.01;
    spec Lower "host_wall_s" ~rel:0.1;
    spec Lower "host_ref_s";
    spec Lower "setup_s" ~abs:0.005;
    spec Lower "peak_heap_mb";
    spec Lower "alloc_kwords_per_op";
  ]

let is_e2e name = List.exists (fun s -> s.name = name) e2e

(* [run] measures the full workloads.  The fixed-duration entry point
   and traced runs use a tenth of full size, so one run holds dozens of
   repetitions. *)
let small_scale = 0.1

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let median = Suite.median

(* Quartiles by the same rule as Python's statistics.quantiles(n=4). *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let q i =
      let m = (n + 1) * i in
      let j = m / 4 and delta = m mod 4 in
      let lo = a.(max 0 (min (n - 1) (j - 1))) and hi = a.(min (n - 1) j) in
      ((lo *. fi (4 - delta)) +. (hi *. fi delta)) /. 4.0
    in
    (q 1, q 3)

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)
(* ------------------------------------------------------------------ *)

let value_of name (ms : Suite.metric list) =
  List.find_map
    (fun (m : Suite.metric) ->
      if m.Suite.name = name then Some m.Suite.value else None)
    ms

(* The child brackets the workload with the calibration loop and turns
   the raw host times into reference seconds (see [Probes]).  The heap
   is compacted first, so the second loop, like the first, runs with no
   workload data left to scan. *)
let child_main (o : Suite.opts) (w : Suite.workload) =
  let before = Probes.calibration_s () in
  let r = w.Suite.run o in
  Gc.compact ();
  let calib = (before +. Probes.calibration_s ()) /. 2.0 in
  let to_ref name raw =
    let v = Option.get (value_of raw r.Suite.metrics) in
    Suite.host name "s" (v *. Probes.calibration_ref_s /. calib)
  in
  let probes = if o.Suite.probes then Probes.metrics () else [] in
  List.iter
    (fun (m : Suite.metric) ->
      Printf.printf "metric %s %s %s %s\n"
        (match m.Suite.kind with Suite.Det -> "det" | Suite.Host -> "host")
        m.Suite.unit m.Suite.name (Json.num m.Suite.value))
    ([ to_ref "host_ref_s" "host_wall_s"; to_ref "setup_s" "setup_wall_s" ]
    @ r.Suite.metrics @ probes);
  Printf.printf "attempted %d\nfailed %d\n" r.Suite.attempted r.Suite.failed;
  List.iter (Printf.printf "failure %s\n") r.Suite.failures

let parse_child_line (s : Suite.outcome) line =
  match String.split_on_char ' ' line with
  | [ "metric"; k; unit; name; v ] ->
    let kind = if k = "det" then Suite.Det else Suite.Host in
    let m = { Suite.name; unit; kind; value = float_of_string v } in
    { s with Suite.metrics = m :: s.Suite.metrics }
  | [ "attempted"; n ] -> { s with Suite.attempted = int_of_string n }
  | [ "failed"; n ] -> { s with Suite.failed = int_of_string n }
  | "failure" :: _ ->
    let msg = String.sub line 8 (String.length line - 8) in
    { s with Suite.failures = msg :: s.Suite.failures }
  | _ ->
    let msg = "unparsed child output: " ^ line in
    { s with Suite.failures = msg :: s.Suite.failures }

let spawn ~workload ~seed ~scale ?(profile = false) ?(probes = false) ?out ()
    =
  let args =
    [ Sys.executable_name; "child"; "--workload"; workload ]
    @ [ "--seed"; string_of_int seed; "--scale"; Json.num scale ]
    @ (if profile then [ "--profile" ] else [])
    @ (if probes then [ "--probes" ] else [])
    @ match out with Some d -> [ "--out"; d ] | None -> []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let rec read s =
    match input_line ic with
    | line -> read (parse_child_line s line)
    | exception End_of_file -> s
  in
  let s =
    read { Suite.metrics = []; attempted = 0; failed = 0; failures = [] }
  in
  let s =
    {
      s with
      Suite.metrics = List.rev s.Suite.metrics;
      failures = List.rev s.Suite.failures;
    }
  in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> s
  | Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c ->
    let msg = Printf.sprintf "%s: child exited with status %d" workload c in
    {
      s with
      Suite.failed = s.Suite.failed + 1;
      failures = s.Suite.failures @ [ msg ];
    }

(* ------------------------------------------------------------------ *)
(* Aggregation over repetitions                                        *)
(* ------------------------------------------------------------------ *)

type agg = {
  values : (Suite.metric * float list) list;
      (** per metric: the aggregate (median for host metrics) and every
          repetition's value *)
  attempted : int;
  failed : int;
  problems : string list;  (** failed checks and nondeterminism *)
}

let ok agg = agg.problems = [] && agg.failed = 0

(* Virtual metrics, counts and allocations must repeat exactly; a
   difference between repetitions is nondeterminism and fails the run. *)
let aggregate ~workload (samples : Suite.outcome list) =
  let firsts =
    List.fold_left
      (fun acc (s : Suite.outcome) ->
        List.fold_left
          (fun acc (m : Suite.metric) ->
            if List.mem_assoc m.Suite.name acc then acc
            else (m.Suite.name, m) :: acc)
          acc s.Suite.metrics)
      [] samples
    |> List.rev
  in
  let nondet = ref [] in
  let values =
    List.map
      (fun (name, (m : Suite.metric)) ->
        let vs =
          List.filter_map
            (fun (s : Suite.outcome) -> value_of name s.Suite.metrics)
            samples
        in
        let value =
          match m.Suite.kind with
          | Suite.Host -> median vs
          | Suite.Det ->
            let bits = Int64.bits_of_float in
            let same v = Int64.equal (bits v) (bits m.Suite.value) in
            if not (List.for_all same vs) then
              nondet :=
                Printf.sprintf "%s: nondeterminism: %s took values %s"
                  workload name
                  (String.concat ", " (List.map Json.num vs))
                :: !nondet;
            m.Suite.value
        in
        ({ m with Suite.value }, vs))
      firsts
  in
  let total f = List.fold_left (fun n s -> n + f s) 0 samples in
  {
    values;
    attempted = total (fun (s : Suite.outcome) -> s.Suite.attempted);
    failed = total (fun (s : Suite.outcome) -> s.Suite.failed);
    problems =
      List.concat_map (fun (s : Suite.outcome) -> s.Suite.failures) samples
      @ List.rev !nondet;
  }

let find_metric agg name =
  List.find_map
    (fun ((m : Suite.metric), _) ->
      if m.Suite.name = name then Some m else None)
    agg.values

let print_e2e ~workload agg =
  List.iter
    (fun spec ->
      match
        List.find_opt
          (fun ((m : Suite.metric), _) -> m.Suite.name = spec.name)
          agg.values
      with
      | Some (m, vs) ->
        Printf.printf "%-14s %-20s %14.6g %-6s n=%d\n%!" workload spec.name
          m.Suite.value m.Suite.unit (List.length vs)
      | None -> ())
    e2e

let print_layers ~workload layers =
  List.iter
    (fun ((m : Suite.metric), _) ->
      Printf.printf "%-14s %-44s %14.6g %s\n%!" workload m.Suite.name
        m.Suite.value m.Suite.unit)
    layers

let report_problems agg = List.iter (eprintf "FAIL %s\n%!") agg.problems

(* ------------------------------------------------------------------ *)
(* Traced runs                                                         *)
(* ------------------------------------------------------------------ *)

(* One traced repetition: the plain run (with the layer probes) gives the
   ledger, a second run with the profiler attached gives the scope.*
   numbers and the tracing overhead.  The checker builds its own
   clusters, so it gets the plain run only. *)
let trace_once ~workload ~seed ~scale ~out =
  let plain = spawn ~workload ~seed ~scale ~probes:true () in
  if workload = "check-replica" then (plain, None)
  else (plain, Some (spawn ~workload ~seed ~scale ~profile:true ?out ()))

let is_scope name =
  String.starts_with ~prefix:"scope." name
  || String.starts_with ~prefix:"sim.span." name

(* Profiling allocates, so only allocation figures may differ between the
   plain and the profiled run. *)
let is_allocation (m : Suite.metric) =
  m.Suite.unit = "words" || m.Suite.unit = "kwords"

(* Per-layer view of traced repetitions.  Profiling must not move a
   single virtual number, and the critical path must partition the run. *)
let layer_view ~workload pairs =
  let plain = aggregate ~workload (List.map fst pairs) in
  let layers =
    List.filter
      (fun ((m : Suite.metric), _) -> not (is_e2e m.Suite.name))
      plain.values
  in
  match List.filter_map snd pairs with
  | [] -> (layers, plain)
  | traced ->
    let t = aggregate ~workload:(workload ^ " (profiled)") traced in
    let moved =
      List.filter_map
        (fun ((m : Suite.metric), _) ->
          match (m.Suite.kind, find_metric plain m.Suite.name) with
          | Suite.Det, Some p
            when p.Suite.value <> m.Suite.value && not (is_allocation m) ->
            Some
              (Printf.sprintf "%s: profiling changed %s (%s -> %s)" workload
                 m.Suite.name (Json.num p.Suite.value)
                 (Json.num m.Suite.value))
          | _ -> None)
        t.values
    in
    let scope =
      List.filter
        (fun ((m : Suite.metric), _) -> is_scope m.Suite.name)
        t.values
    in
    let cp_sum =
      List.fold_left
        (fun acc ((m : Suite.metric), _) ->
          if String.starts_with ~prefix:"scope.cp." m.Suite.name then
            acc +. m.Suite.value
          else acc)
        0.0 scope
    in
    let ref_s agg =
      Option.map
        (fun (m : Suite.metric) -> m.Suite.value)
        (find_metric agg "host_ref_s")
    in
    let overhead =
      match (ref_s t, ref_s plain) with
      | Some a, Some b ->
        [ (Suite.host "scope.overhead_frac" "ratio" ((a /. b) -. 1.0), []) ]
      | _ -> []
    in
    let unbalanced =
      if abs_float (cp_sum -. 1.0) > 1e-9 then
        [
          Printf.sprintf "%s: critical-path fractions sum to %.12f" workload
            cp_sum;
        ]
      else []
    in
    ( layers @ scope @ overhead,
      {
        plain with
        failed = plain.failed + t.failed;
        problems = plain.problems @ t.problems @ moved @ unbalanced;
      } )

(* ------------------------------------------------------------------ *)
(* Argument parsing                                                    *)
(* ------------------------------------------------------------------ *)

let parse_args ~usage ~from spec =
  try
    Arg.parse_argv ~current:(ref from) Sys.argv spec
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      usage
  with
  | Arg.Help msg ->
    print_string msg;
    exit 0
  | Arg.Bad msg ->
    prerr_string msg;
    exit 2

let workload_names =
  List.map (fun (w : Suite.workload) -> w.Suite.name) Suite.all

let workloads_of = function
  | None -> workload_names
  | Some w when Suite.find w <> None -> [ w ]
  | Some w ->
    eprintf "amber_bench: unknown workload %s (have: %s)\n" w
      (String.concat ", " workload_names);
    exit 2


(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let json_of_agg agg =
  let metric ((m : Suite.metric), vs) =
    ( m.Suite.name,
      Json.obj
        [
          ("value", Json.num m.Suite.value);
          ("unit", Json.str m.Suite.unit);
          ("samples", Json.arr (List.map Json.num vs));
        ] )
  in
  Json.obj
    [
      ("correct", string_of_bool (ok agg));
      ("attempted", string_of_int agg.attempted);
      ("failed", string_of_int agg.failed);
      ("metrics", Json.obj (List.map metric agg.values));
    ]

let write_json path ~seed ~scale ~reps results =
  let workloads = List.map (fun (w, agg) -> (w, json_of_agg agg)) results in
  Suite.write_file path
    (Json.obj
       [
         ("seed", string_of_int seed);
         ("scale", Json.num scale);
         ("reps", string_of_int reps);
         ("workloads", Json.obj workloads);
       ]
    ^ "\n")

let run_cmd () =
  let workload = ref None and seed = ref 1 and reps = ref 5 in
  let scale = ref 1.0 and json = ref None and max_seconds = ref 0.0 in
  parse_args ~from:1 ~usage:"amber_bench.exe run [options]"
    [
      ("--workload", Arg.String (fun w -> workload := Some w), "W a workload");
      ("--seed", Arg.Set_int seed, "S input seed (default 1)");
      ("--reps", Arg.Set_int reps, "N repetitions per workload (default 5)");
      ("--scale", Arg.Set_float scale, "X workload size, 1.0 = full (default)");
      ("--json", Arg.String (fun f -> json := Some f), "FILE keep samples");
      ("--max-seconds", Arg.Set_float max_seconds, "T fail if slower than T");
    ];
  if !reps < 1 || !scale <= 0.0 then begin
    eprintf "amber_bench: --reps and --scale must be positive\n";
    exit 2
  end;
  let t0 = Suite.now_s () in
  let results =
    List.map
      (fun workload ->
        let samples =
          List.init !reps (fun _ ->
              spawn ~workload ~seed:!seed ~scale:!scale ())
        in
        let agg = aggregate ~workload samples in
        print_e2e ~workload agg;
        report_problems agg;
        (workload, agg))
      (workloads_of !workload)
  in
  Option.iter
    (fun f -> write_json f ~seed:!seed ~scale:!scale ~reps:!reps results)
    !json;
  let took = Suite.now_s () -. t0 in
  if !max_seconds > 0.0 && took > !max_seconds then begin
    eprintf "FAIL run took %.2f s, over the %.2f s limit\n" took !max_seconds;
    exit 1
  end;
  if not (List.for_all (fun (_, agg) -> ok agg) results) then exit 1

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd () =
  let workload = ref None and seed = ref 1 and out = ref None in
  parse_args ~from:1 ~usage:"amber_bench.exe trace [options]"
    [
      ("--workload", Arg.String (fun w -> workload := Some w), "W a workload");
      ("--seed", Arg.Set_int seed, "S input seed (default 1)");
      ("--out", Arg.String (fun d -> out := Some d), "DIR write span exports");
    ];
  let all_ok =
    List.fold_left
      (fun all_ok workload ->
        let pair =
          trace_once ~workload ~seed:!seed ~scale:small_scale ~out:!out
        in
        let layers, agg = layer_view ~workload [ pair ] in
        print_layers ~workload layers;
        report_problems agg;
        all_ok && ok agg)
      true (workloads_of !workload)
  in
  if not all_ok then exit 1

(* ------------------------------------------------------------------ *)
(* Fixed-duration entry point (BENCHMARK.json)                         *)
(* ------------------------------------------------------------------ *)

(* Repeat [f] while another repetition as long as the last one still
   fits in [seconds]; always at least three times. *)
let repeat_for ~seconds f =
  let t0 = Suite.now_s () in
  let rec go acc last =
    if List.length acc >= 3 && Suite.now_s () -. t0 +. last > seconds then
      List.rev acc
    else
      let s = Suite.now_s () in
      let x = f () in
      go (x :: acc) (Suite.now_s () -. s)
  in
  go [] 0.0

let benchmark_json key =
  Json.to_list (Json.member key (Json.of_file "BENCHMARK.json"))

let listed key =
  List.map (fun m -> Json.to_str (Json.member "name" m)) (benchmark_json key)

let timed_main () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0 in
  let trace = ref (-1) in
  parse_args ~from:0
    ~usage:"amber_bench.exe --workload W --seed S --seconds T --trace 0|1"
    [
      ("--workload", Arg.Set_string workload, "W workload");
      ("--seed", Arg.Set_int seed, "S input seed");
      ("--seconds", Arg.Set_int seconds, "T measure for this long");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ];
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    eprintf "amber_bench: need --seconds >= 1 and --trace 0 or 1\n";
    exit 2
  end;
  let workload = List.hd (workloads_of (Some !workload)) and seed = !seed in
  let seconds = fi !seconds in
  let names, values, agg =
    if !trace = 0 then begin
      let samples =
        repeat_for ~seconds (fun () ->
            spawn ~workload ~seed ~scale:small_scale ())
      in
      let agg = aggregate ~workload samples in
      print_e2e ~workload agg;
      (listed "end_to_end", agg.values, agg)
    end
    else begin
      let pairs =
        repeat_for ~seconds (fun () ->
            trace_once ~workload ~seed ~scale:small_scale ~out:None)
      in
      let layers, agg = layer_view ~workload pairs in
      print_layers ~workload layers;
      (listed "per_layer", layers, agg)
    end
  in
  report_problems agg;
  let pick name =
    match
      List.find_opt (fun ((m : Suite.metric), _) -> m.Suite.name = name) values
    with
    | Some (m, _) ->
      ( name,
        Json.obj
          [ ("value", Json.num m.Suite.value); ("unit", Json.str m.Suite.unit) ]
      )
    | None ->
      eprintf "amber_bench: %s reports no %s\n" workload name;
      exit 2
  in
  let metrics = List.map pick names in
  print_endline
    (Json.obj
       [
         ("correct", string_of_bool (ok agg));
         ("attempted", string_of_int (max 1 agg.attempted));
         ("failed", string_of_int agg.failed);
         ("metrics", Json.obj metrics);
       ])

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

(* Per workload, the file's aggregate value of each metric. *)
let load_run path =
  List.map
    (fun (w, r) ->
      ( w,
        List.map
          (fun (k, m) -> (k, Json.to_num (Json.member "value" m)))
          (Json.to_assoc (Json.member "metrics" r)) ))
    (Json.to_assoc (Json.member "workloads" (Json.of_file path)))

let bounds () =
  let listed =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          Json.to_num (Json.member "bound" m) ))
      (benchmark_json "end_to_end")
  in
  List.map
    (fun s ->
      match List.assoc_opt s.name listed with
      | Some b -> { s with rel = Some b }
      | None when s.rel = None && s.abs = None ->
        eprintf "amber_bench: BENCHMARK.json gives no bound for %s\n" s.name;
        exit 2
      | None -> s)
    e2e

(* How much worse [b] is than [a], in the metric's direction. *)
let worse spec a b = match spec.better with Lower -> b -. a | Higher -> a -. b

let beyond spec ~base delta =
  (match spec.rel with Some r -> delta > r *. abs_float base | None -> true)
  && match spec.abs with Some t -> delta > t | None -> true

let compare_row spec ~workload pv cv =
  let pm = median pv and cm = median cv in
  let pq1, pq3 = quartiles pv and cq1, cq3 = quartiles cv in
  let spread = pq3 -. pq1 in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> worse spec p c < 0.0) pv) cv
  in
  let regressed = beyond spec ~base:pm (worse spec pm cm) in
  let verdict =
    if regressed then "REGRESSION"
    else if spread > 0.0 && beyond spec ~base:pm spread && not all_better then
      "unresolved"
    else "ok"
  in
  Printf.printf
    "%-14s %-20s %12.6g [%.4g,%.4g] %12.6g [%.4g,%.4g] %+7.2f%%  %s\n" workload
    spec.name pm pq1 pq3 cm cq1 cq3
    (if pm = 0.0 then 0.0 else (cm -. pm) /. abs_float pm *. 100.0)
    verdict;
  regressed

(* Pairs the i-th parent run with the i-th change run. *)
let check_claim spec ~workload pv cv =
  let n = min (List.length pv) (List.length cv) in
  let pairs =
    List.combine (List.filteri (fun i _ -> i < n) pv)
      (List.filteri (fun i _ -> i < n) cv)
  in
  let wins =
    List.length (List.filter (fun (p, c) -> worse spec p c < 0.0) pairs)
  in
  let q1, q3 = quartiles pv in
  let gain = -.worse spec (median pv) (median cv) in
  let met = n > 0 && wins * 10 >= 9 * n && gain > q3 -. q1 in
  Printf.printf
    "claim %s@%s: change won %d of %d pairs, median gain %.6g against a \
     parent spread of %.6g: %s\n"
    spec.name workload wins n gain (q3 -. q1)
    (if met then "met" else "NOT met");
  met

let compare_cmd () =
  let rec parse claim parent change = function
    | "--claim" :: c :: rest -> parse (Some c) parent change rest
    | "--" :: rest ->
      parse claim parent (Some (Option.value change ~default:[])) rest
    | f :: rest -> (
      match change with
      | None -> parse claim (f :: parent) None rest
      | Some c -> parse claim parent (Some (f :: c)) rest)
    | [] -> (claim, List.rev parent, List.rev (Option.value change ~default:[]))
  in
  let claim, parent, change =
    parse None [] None (List.tl (List.tl (Array.to_list Sys.argv)))
  in
  if List.length parent < 10 || List.length change < 10 then begin
    eprintf "amber_bench: compare needs 10 or more runs a side (got %d, %d)\n"
      (List.length parent) (List.length change);
    exit 2
  end;
  let specs = bounds () in
  let p_runs = List.map load_run parent and c_runs = List.map load_run change in
  let series runs w k =
    List.filter_map
      (fun r -> Option.bind (List.assoc_opt w r) (List.assoc_opt k))
      runs
  in
  let workloads =
    List.sort_uniq compare (List.concat_map (List.map fst) p_runs)
  in
  Printf.printf "%-14s %-20s %26s %26s %8s  %s\n" "workload" "metric"
    "parent median [q1,q3]" "change median [q1,q3]" "delta" "verdict";
  let regressions =
    List.concat_map
      (fun workload ->
        List.filter_map
          (fun spec ->
            let pv = series p_runs workload spec.name in
            let cv = series c_runs workload spec.name in
            if pv <> [] && cv <> [] && compare_row spec ~workload pv cv then
              Some spec.name
            else None)
          specs)
      workloads
  in
  let claim_met =
    match Option.map (String.split_on_char '@') claim with
    | None -> true
    | Some [ m; workload ] -> (
      match List.find_opt (fun s -> s.name = m) specs with
      | Some spec ->
        check_claim spec ~workload (series p_runs workload m)
          (series c_runs workload m)
      | None ->
        eprintf "amber_bench: %s is not an end-to-end metric\n" m;
        exit 2)
    | Some _ ->
      eprintf "amber_bench: --claim wants METRIC@WORKLOAD\n";
      exit 2
  in
  if regressions <> [] || not claim_met then exit 1

(* ------------------------------------------------------------------ *)

let child_cmd () =
  let workload = ref "" and seed = ref 1 and scale = ref 1.0 in
  let profile = ref false and probes = ref false and out = ref None in
  parse_args ~from:1 ~usage:"amber_bench.exe child (internal)"
    [
      ("--workload", Arg.Set_string workload, "W");
      ("--seed", Arg.Set_int seed, "S");
      ("--scale", Arg.Set_float scale, "X");
      ("--profile", Arg.Set profile, " attach the profiler");
      ("--probes", Arg.Set probes, " run the layer probes");
      ("--out", Arg.String (fun d -> out := Some d), "DIR span exports");
    ];
  let w = List.hd (workloads_of (Some !workload)) in
  child_main
    {
      Suite.seed = !seed;
      scale = !scale;
      profile = !profile;
      probes = !probes;
      out = !out;
    }
    (Option.get (Suite.find w))

let () =
  try
    match Array.to_list Sys.argv with
    | _ :: "run" :: _ -> run_cmd ()
    | _ :: "trace" :: _ -> trace_cmd ()
    | _ :: "compare" :: _ -> compare_cmd ()
    | _ :: "child" :: _ -> child_cmd ()
    | _ :: a :: _ when String.starts_with ~prefix:"--" a -> timed_main ()
    | _ ->
      prerr_endline
        "usage: amber_bench.exe (run|trace|compare) [options]\n\
        \       amber_bench.exe --workload W --seed S --seconds T --trace 0|1";
      exit 2
  with Json.Error e | Sys_error e | Failure e ->
    eprintf "amber_bench: %s\n" e;
    exit 2
