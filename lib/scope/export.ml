let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let jstr s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  escape b s;
  Buffer.add_char b '"';
  Buffer.contents b

let span_name (s : Sim.Span.span) =
  if s.label = "" then Sim.Span.kind_name s.kind
  else Sim.Span.kind_name s.kind ^ ":" ^ s.label

let span_cat (s : Sim.Span.span) =
  match String.index_opt (Sim.Span.kind_name s.kind) '.' with
  | Some i -> String.sub (Sim.Span.kind_name s.kind) 0 i
  | None -> Sim.Span.kind_name s.kind

let default_clip spans =
  List.fold_left
    (fun acc (s : Sim.Span.span) -> Float.max acc (Float.max s.t0 s.t1))
    0.0 spans

let clip_end ~clip (s : Sim.Span.span) =
  if s.t1 < 0.0 then clip else Float.min s.t1 clip

let is_flight (s : Sim.Span.span) =
  match s.kind with
  | Sim.Span.Thread_flight | Sim.Span.Net_flight -> true
  | _ -> false

let us t = t *. 1e6

let chrome_json ?(counters = []) ?(marks = []) ?clip spans =
  let clip = match clip with Some c -> c | None -> default_clip spans in
  let b = Buffer.create 4096 in
  let first = ref true in
  let event fields =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (jstr k);
        Buffer.add_char b ':';
        Buffer.add_string b v)
      fields;
    Buffer.add_char b '}'
  in
  Buffer.add_string b "{\"traceEvents\":[\n";
  (* Track metadata: one process per node, one named track per thread. *)
  let pids = Hashtbl.create 16 and tracks = Hashtbl.create 64 in
  let ensure_pid pid =
    if not (Hashtbl.mem pids pid) then begin
      Hashtbl.replace pids pid ();
      event
        [
          ("ph", jstr "M");
          ("pid", string_of_int pid);
          ("name", jstr "process_name");
          ("args", Printf.sprintf "{\"name\":%s}"
             (jstr (Printf.sprintf "node%d" pid)));
        ]
    end
  in
  List.iter
    (fun (s : Sim.Span.span) ->
      let pid = max 0 s.node and tid = max 0 s.tid in
      ensure_pid pid;
      if not (Hashtbl.mem tracks (pid, tid)) then begin
        Hashtbl.replace tracks (pid, tid) ();
        event
          [
            ("ph", jstr "M");
            ("pid", string_of_int pid);
            ("tid", string_of_int tid);
            ("name", jstr "thread_name");
            ("args", Printf.sprintf "{\"name\":%s}"
               (jstr (Printf.sprintf "tcb%d" tid)));
          ]
      end)
    spans;
  List.iter
    (fun (s : Sim.Span.span) ->
      let pid = max 0 s.node and tid = max 0 s.tid in
      let t1 = clip_end ~clip s in
      let args =
        Printf.sprintf
          "{\"span\":%d,\"parent\":%d,\"obj\":%d,\"arg\":%d%s%s}" s.id s.parent
          s.obj s.arg
          (if s.async then ",\"async\":true" else "")
          (if s.t1 < 0.0 then ",\"open\":true" else "")
      in
      event
        [
          ("ph", jstr "X");
          ("pid", string_of_int pid);
          ("tid", string_of_int tid);
          ("ts", Printf.sprintf "%.3f" (us s.t0));
          ("dur", Printf.sprintf "%.3f" (us (t1 -. s.t0)));
          ("name", jstr (span_name s));
          ("cat", jstr (span_cat s));
          ("args", args);
        ];
      (* Cross-node flights additionally draw a flow arrow from the source
         node's track to the destination's. *)
      if is_flight s && s.arg >= 0 && s.arg <> s.node then begin
        event
          [
            ("ph", jstr "s");
            ("id", string_of_int s.id);
            ("pid", string_of_int pid);
            ("tid", string_of_int tid);
            ("ts", Printf.sprintf "%.3f" (us s.t0));
            ("name", jstr (span_name s));
            ("cat", jstr (span_cat s));
          ];
        event
          [
            ("ph", jstr "f");
            ("bp", jstr "e");
            ("id", string_of_int s.id);
            ("pid", string_of_int s.arg);
            ("tid", string_of_int tid);
            ("ts", Printf.sprintf "%.3f" (us t1));
            ("name", jstr (span_name s));
            ("cat", jstr (span_cat s));
          ]
      end)
    spans;
  (* Marks render as thread-scoped instant ("i") events on their emitter's
     track (outside any thread: node0's track 0), linked to the enclosing
     span through [args.span]. *)
  List.iter
    (fun (m : Sim.Span.mark) ->
      event
        [
          ("ph", jstr "i");
          ("s", jstr "t");
          ("pid", string_of_int (max 0 m.node));
          ("tid", string_of_int (max 0 m.tid));
          ("ts", Printf.sprintf "%.3f" (us m.time));
          ("name", jstr m.category);
          ("cat", jstr "mark");
          ( "args",
            Printf.sprintf "{\"span\":%d,\"detail\":%s}" m.span
              (jstr m.detail) );
        ])
    marks;
  (* Watch time series render as counter ("C") tracks under the span
     lanes: one track per (node, series name), one sample per point.
     Cluster-wide series (node -1) land on node0's process. *)
  List.iter
    (fun s ->
      let pid = max 0 (Sim.Series.node s) in
      ensure_pid pid;
      let name = jstr (Sim.Series.name s) in
      Sim.Series.iter_points s (fun (p : Sim.Series.point) ->
          event
            [
              ("ph", jstr "C");
              ("pid", string_of_int pid);
              ("ts", Printf.sprintf "%.3f" (us p.at));
              ("name", name);
              ("args", Printf.sprintf "{\"v\":%.9g}" p.v);
            ]))
    counters;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

let span_json ~clip (s : Sim.Span.span) =
  Printf.sprintf
    "{\"id\":%d,\"parent\":%d,\"async\":%b,\"kind\":%s,\"label\":%s,\"node\":%d,\"tid\":%d,\"obj\":%d,\"arg\":%d,\"t0\":%.9f,\"t1\":%.9f,\"open\":%b}"
    s.id s.parent s.async
    (jstr (Sim.Span.kind_name s.kind))
    (jstr s.label) s.node s.tid s.obj s.arg s.t0 (clip_end ~clip s)
    (s.t1 < 0.0)

let spans_jsonl ?clip spans =
  let clip = match clip with Some c -> c | None -> default_clip spans in
  List.map (span_json ~clip) spans

let series_json s =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "{\"series\":%s,\"node\":%d,\"kind\":%s,\"dropped\":%d,\"points\":["
       (jstr (Sim.Series.name s))
       (Sim.Series.node s)
       (jstr (Sim.Series.kind_label (Sim.Series.kind s)))
       (Sim.Series.dropped s));
  let first = ref true in
  Sim.Series.iter_points s (fun (p : Sim.Series.point) ->
      if !first then first := false else Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "[%.9f,%.9g]" p.at p.v));
  Buffer.add_string b "]}";
  Buffer.contents b

let series_jsonl series = List.map series_json series

let series_csv series =
  let b = Buffer.create 4096 in
  Buffer.add_string b "series,node,kind,time_s,value\n";
  List.iter
    (fun s ->
      let prefix =
        Printf.sprintf "%s,%d,%s,"
          (Sim.Series.name s)
          (Sim.Series.node s)
          (Sim.Series.kind_label (Sim.Series.kind s))
      in
      Sim.Series.iter_points s (fun (p : Sim.Series.point) ->
          Buffer.add_string b prefix;
          Buffer.add_string b (Printf.sprintf "%.9f,%.9g\n" p.at p.v)))
    series;
  Buffer.contents b

let mark_json (m : Sim.Span.mark) =
  Printf.sprintf
    "{\"time\":%.9f,\"category\":%s,\"detail\":%s,\"node\":%d,\"cpu\":%d,\"tid\":%d,\"obj\":%d,\"span\":%d,\"parent\":%d}"
    m.time (jstr m.category) (jstr m.detail) m.node m.cpu m.tid m.obj m.span
    m.parent
