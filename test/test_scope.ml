(* Amber-Scope: span collection, critical-path analysis and exporters. *)

module A = Amber

let sor_params =
  Workloads.Sor_core.with_size Workloads.Sor_core.default ~rows:16 ~cols:64

(* One profiled SOR run shared by the inspection tests below. *)
let profiled =
  lazy
    (let cfg = A.Config.make ~nodes:3 ~cpus:2 ~seed:11L () in
     let box = ref None in
     A.Cluster.run_value cfg (fun rt ->
         let prof = Scope.Profile.attach rt in
         ignore
           (Workloads.Sor_amber.run rt sor_params ~iters:2 ()
             : Workloads.Sor_amber.result);
         Scope.Profile.seal prof;
         box := Some prof);
     Option.get !box)

let test_disabled_records_nothing () =
  let cfg = A.Config.make ~nodes:3 ~cpus:2 ~seed:11L () in
  let count = ref (-1) in
  A.Cluster.run_value cfg (fun rt ->
      ignore
        (Workloads.Sor_amber.run rt sor_params ~iters:2 ()
          : Workloads.Sor_amber.result);
      count := Sim.Span.count (A.Runtime.spans rt));
  Alcotest.(check int) "no spans without attach" 0 !count

let test_ids_dense_and_ordered () =
  let prof = Lazy.force profiled in
  let spans = Scope.Profile.spans prof in
  Alcotest.(check bool) "collected something" true (List.length spans > 50);
  List.iteri
    (fun i (s : Sim.Span.span) ->
      Alcotest.(check int) "dense 1-based ids" (i + 1) s.id)
    spans;
  ignore
    (List.fold_left
       (fun prev (s : Sim.Span.span) ->
         if s.t0 < prev then Alcotest.fail "spans not in start order";
         s.t0)
       0.0 spans)

(* Every synchronous span must lie inside its parent's interval; async
   spans (wire flights, one-way post handlers) are causal links only. *)
let test_sync_spans_nest () =
  let prof = Lazy.force profiled in
  let total = Scope.Profile.total prof in
  let spans = Scope.Profile.spans prof in
  let by_id = Hashtbl.create 256 in
  List.iter (fun (s : Sim.Span.span) -> Hashtbl.replace by_id s.id s) spans;
  let clip (s : Sim.Span.span) = if s.t1 < 0.0 then total else s.t1 in
  let eps = 1e-9 in
  List.iter
    (fun (s : Sim.Span.span) ->
      if (not s.async) && s.parent > 0 then
        match Hashtbl.find_opt by_id s.parent with
        | None -> Alcotest.failf "span %d has unknown parent %d" s.id s.parent
        | Some p ->
            if s.t0 < p.Sim.Span.t0 -. eps || clip s > clip p +. eps then
              Alcotest.failf
                "span %d (%s) [%.9f, %.9f] escapes parent %d (%s) [%.9f, %.9f]"
                s.id
                (Sim.Span.kind_name s.kind)
                s.t0 (clip s) p.Sim.Span.id
                (Sim.Span.kind_name p.Sim.Span.kind)
                p.Sim.Span.t0 (clip p))
    spans

(* A remote invocation's wire legs appear as net.* descendants (the hop
   that carried the thread lives under a chase.hop child). *)
let test_remote_invokes_carry_flights () =
  let prof = Lazy.force profiled in
  let spans = Scope.Profile.spans prof in
  let children = Hashtbl.create 256 in
  List.iter
    (fun (s : Sim.Span.span) ->
      Hashtbl.replace children s.parent
        (s :: (try Hashtbl.find children s.parent with Not_found -> [])))
    spans;
  let rec has_net (s : Sim.Span.span) =
    match s.kind with
    | Sim.Span.Thread_flight | Sim.Span.Net_flight -> true
    | _ ->
        List.exists has_net
          (try Hashtbl.find children s.id with Not_found -> [])
  in
  let remotes =
    List.filter
      (fun (s : Sim.Span.span) -> s.kind = Sim.Span.Invoke_remote)
      spans
  in
  Alcotest.(check bool) "saw remote invokes" true (remotes <> []);
  List.iter
    (fun (s : Sim.Span.span) ->
      if not (has_net s) then
        Alcotest.failf "remote invoke span %d has no net flight descendant"
          s.id)
    remotes

let test_critical_path_sums_to_total () =
  let prof = Lazy.force profiled in
  let r = Scope.Profile.critical_path prof in
  let sum = r.Scope.Critical_path.compute +. r.Scope.Critical_path.network
            +. r.Scope.Critical_path.queueing
            +. r.Scope.Critical_path.coherence in
  Alcotest.(check bool) "total positive" true (r.Scope.Critical_path.total > 0.0);
  Alcotest.(check bool) "components sum to total within 1%" true
    (Float.abs (sum -. r.Scope.Critical_path.total)
    <= 0.01 *. r.Scope.Critical_path.total);
  (* Contributors are the same time, broken down by span key. *)
  let csum =
    List.fold_left (fun a (_, v) -> a +. v) 0.0 r.Scope.Critical_path.contributors
  in
  Alcotest.(check (float 1e-6)) "contributors cover the path"
    r.Scope.Critical_path.total csum

(* -- a tiny JSON syntax checker (no JSON library in the test deps) -------- *)

exception Bad_json of int

let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise (Bad_json !pos) in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
      | _ -> ()
  in
  let expect c =
    if peek () <> c then raise (Bad_json !pos);
    advance ()
  in
  let is_num c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> string_lit ()
    | 't' -> lit "true"
    | 'f' -> lit "false"
    | 'n' -> lit "null"
    | c when is_num c -> while !pos < n && is_num s.[!pos] do advance () done
    | _ -> raise (Bad_json !pos)
  and lit w = String.iter (fun c -> expect c) w
  and string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | '\\' ->
          advance ();
          advance ();
          go ()
      | '"' -> advance ()
      | _ ->
          advance ();
          go ()
    in
    go ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            members ()
        | '}' -> advance ()
        | _ -> raise (Bad_json !pos)
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then advance ()
    else
      let rec items () =
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            items ()
        | ']' -> advance ()
        | _ -> raise (Bad_json !pos)
      in
      items ()
  in
  value ();
  skip_ws ();
  if !pos <> n then raise (Bad_json !pos)

let count_substring hay needle =
  let nl = String.length needle and hl = String.length hay in
  let count = ref 0 in
  for i = 0 to hl - nl do
    if String.sub hay i nl = needle then incr count
  done;
  !count

let test_chrome_export_valid () =
  let prof = Lazy.force profiled in
  let json =
    Scope.Export.chrome_json ~clip:(Scope.Profile.total prof)
      (Scope.Profile.spans prof)
  in
  (match validate_json json with
  | () -> ()
  | exception Bad_json at ->
      Alcotest.failf "chrome export is not valid JSON at byte %d: %s" at
        (String.sub json (max 0 (at - 40)) (min 80 (String.length json - max 0 (at - 40)))));
  Alcotest.(check bool) "has traceEvents" true
    (count_substring json "\"traceEvents\"" = 1);
  (* One complete event per span, in addition to metadata and flow pairs. *)
  Alcotest.(check int) "one X event per span"
    (List.length (Scope.Profile.spans prof))
    (count_substring json "\"ph\":\"X\"");
  Alcotest.(check int) "flow starts pair with flow ends"
    (count_substring json "\"ph\":\"s\"")
    (count_substring json "\"ph\":\"f\"")

let test_jsonl_export_valid () =
  let prof = Lazy.force profiled in
  let lines =
    Scope.Export.spans_jsonl ~clip:(Scope.Profile.total prof)
      (Scope.Profile.spans prof)
  in
  Alcotest.(check int) "one line per span"
    (List.length (Scope.Profile.spans prof))
    (List.length lines);
  List.iter
    (fun l ->
      match validate_json l with
      | () -> ()
      | exception Bad_json at ->
          Alcotest.failf "jsonl line invalid at byte %d: %s" at l)
    lines

let test_profile_report_lines () =
  let prof = Lazy.force profiled in
  match Scope.Profile.report_lines prof with
  | [] -> Alcotest.fail "empty profile report"
  | header :: rest ->
      Alcotest.(check bool) "header mentions spans" true
        (count_substring header "spans over" = 1);
      Alcotest.(check bool) "per-kind and per-node lines" true
        (List.exists (fun l -> count_substring l "invoke.remote" = 1) rest
        && List.exists (fun l -> count_substring l "node 0:" = 1) rest)

(* The tag dimension: tagged spans get their own [kind[tag]] percentile
   lines under the per-kind line, all from the same profiler attach;
   tag-free spans add no bracketed lines at all. *)
let test_profile_tag_breakdown () =
  let cfg = Amber.Config.make ~nodes:2 ~cpus:2 () in
  let lines =
    Amber.Cluster.run_value cfg (fun rt ->
        let prof = Scope.Profile.attach rt in
        let spans = Amber.Runtime.spans rt in
        let o = Amber.Api.create rt ~name:"tagged" (ref 0) in
        List.iter
          (fun tag ->
            Sim.Span.with_span spans Sim.Span.Serve_request ~label:tag ~tag
              (fun () -> ignore (Amber.Api.invoke rt o (fun r -> !r) : int)))
          [ "read"; "read"; "write" ];
        Scope.Profile.seal prof;
        Scope.Profile.report_lines prof)
  in
  Alcotest.(check bool) "per-tag lines appear under the kind" true
    (List.exists (fun l -> count_substring l "serve.request[read]" = 1) lines
    && List.exists (fun l -> count_substring l "serve.request[write]" = 1) lines);
  Alcotest.(check bool) "untagged kinds grow no bracketed lines" true
    (not (List.exists (fun l -> count_substring l "invoke.local[" = 1) lines))

let suite =
  [
    Alcotest.test_case "disabled collector records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "span ids dense and start-ordered" `Quick
      test_ids_dense_and_ordered;
    Alcotest.test_case "sync spans nest inside parents" `Quick
      test_sync_spans_nest;
    Alcotest.test_case "remote invokes carry net flights" `Quick
      test_remote_invokes_carry_flights;
    Alcotest.test_case "critical path sums to total" `Quick
      test_critical_path_sums_to_total;
    Alcotest.test_case "chrome export is valid JSON" `Quick
      test_chrome_export_valid;
    Alcotest.test_case "jsonl export is valid" `Quick test_jsonl_export_valid;
    Alcotest.test_case "profile report lines" `Quick test_profile_report_lines;
    Alcotest.test_case "profile tag breakdown" `Quick
      test_profile_tag_breakdown;
  ]
