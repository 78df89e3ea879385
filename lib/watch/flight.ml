module A = Amber

type t = {
  rt : A.Runtime.t;
  dir : string;
  mutable dumps : string list; (* paths, oldest first *)
  mutable suppressed : int;
  seen : (string * int, unit) Hashtbl.t; (* (kind, node) already dumped *)
  mutable seq : int;
}

let window = 0.05
let max_dumps = 4

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* One postmortem: a typed-failure header, then one read of the runtime's
   collector — every mark in the trailing window, and the victim node's
   spans that were open or recently closed at failure time — "the last N
   virtual-milliseconds before any failure are always inspectable".
   Cluster-scoped failures (node -1, e.g. a sanitizer race) keep every
   node's spans.  The window is closed on the right too: a packet queued
   behind a busy medium is marked at its future transmit start. *)
let dump_string t ~kind ~node ~detail =
  let now = A.Runtime.now t.rt in
  let cutoff = now -. window in
  let collector = A.Runtime.spans t.rt in
  let marks =
    List.filter
      (fun (m : Sim.Span.mark) -> cutoff <= m.time && m.time <= now)
      (Sim.Span.marks collector)
  in
  let spans =
    List.filter
      (fun (s : Sim.Span.span) ->
        (node < 0 || s.node = node || s.node < 0)
        && (s.t1 < 0.0 || s.t1 >= cutoff))
      (Sim.Span.spans collector)
  in
  let lines f l = String.concat ",\n" (List.map f l) in
  Printf.sprintf
    "{\"postmortem\":{\"kind\":%s,\"node\":%d,\"time\":%.9f,\"detail\":%s,\"seq\":%d,\"window_s\":%.6f},\n\"trace\":[%s],\n\"spans\":[%s]}\n"
    (Scope.Export.jstr kind) node now (Scope.Export.jstr detail) t.seq window
    (lines Scope.Export.mark_json marks)
    (lines (Scope.Export.span_json ~clip:now) spans)

let record t ~kind ~node ~detail =
  if Hashtbl.mem t.seen (kind, node) || List.length t.dumps >= max_dumps then
    t.suppressed <- t.suppressed + 1
  else begin
    Hashtbl.replace t.seen (kind, node) ();
    let body = dump_string t ~kind ~node ~detail in
    let path =
      Filename.concat t.dir
        (Printf.sprintf "postmortem-%d-%s-%s.json" t.seq kind
           (if node < 0 then "all" else Printf.sprintf "n%d" node))
    in
    t.seq <- t.seq + 1;
    mkdir_p t.dir;
    let oc = open_out path in
    output_string oc body;
    close_out oc;
    t.dumps <- t.dumps @ [ path ]
  end

let attach rt ~dir =
  Sim.Span.set_marks (A.Runtime.spans rt) true;
  Sim.Span.set_enabled (A.Runtime.spans rt) true;
  let t =
    {
      rt;
      dir;
      dumps = [];
      suppressed = 0;
      seen = Hashtbl.create 8;
      seq = 0;
    }
  in
  A.Runtime.on_failure rt (fun ~kind ~node ~detail ->
      record t ~kind ~node ~detail);
  t

let dumps t = t.dumps
let dump_count t = List.length t.dumps
let suppressed t = t.suppressed

let report_lines t =
  Printf.sprintf "flight recorder: %d postmortem(s), %d suppressed"
    (dump_count t) t.suppressed
  :: List.map (fun p -> "  " ^ Filename.basename p) t.dumps
