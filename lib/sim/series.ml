type point = { at : float; v : float }
type kind = Gauge | Cumulative | Derived

type series = {
  s_name : string;
  s_node : int;
  s_kind : kind;
  buf : point array;
  mutable len : int;
  mutable start : int;
  mutable s_dropped : int;
}

type window = {
  w_name : string;
  w_node : int;
  hist : Stats.Log_histogram.t;
  scale : float;
  p50 : series;
  p95 : series;
  p99 : series;
  rate : series;
  w_reg : t;
}

and inst = Probe of series * (unit -> float) | Window of window

and t = {
  clock : unit -> float;
  capacity : int;
  mutable enabled : bool;
  mutable insts : inst list; (* reverse registration order *)
  mutable last_sample : float;
  mutable samples : int;
}

let create ?(capacity = 4096) ~clock () =
  if capacity <= 0 then invalid_arg "Series.create: capacity";
  { clock; capacity; enabled = false; insts = []; last_sample = 0.0; samples = 0 }

let enabled t = t.enabled

let enable t =
  if not t.enabled then begin
    t.enabled <- true;
    t.last_sample <- t.clock ()
  end

let mk_series t ~name ~node ~kind =
  {
    s_name = name;
    s_node = node;
    s_kind = kind;
    buf = Array.make t.capacity { at = 0.0; v = 0.0 };
    len = 0;
    start = 0;
    s_dropped = 0;
  }

let push s p =
  let cap = Array.length s.buf in
  if s.len < cap then begin
    s.buf.((s.start + s.len) mod cap) <- p;
    s.len <- s.len + 1
  end
  else begin
    (* Full: overwrite the oldest point and account for the loss, so a
       long run keeps the newest window and the report can say how much
       history fell off the front. *)
    s.buf.(s.start) <- p;
    s.start <- (s.start + 1) mod cap;
    s.s_dropped <- s.s_dropped + 1
  end

let poll kind t ~name ?(node = -1) f =
  t.insts <- Probe (mk_series t ~name ~node ~kind, f) :: t.insts

let probe t = poll Gauge t
let counter t = poll Cumulative t

let window t ~name ?(node = -1) ?(scale = 1.0) () =
  let mk suffix =
    mk_series t ~name:(name ^ "." ^ suffix) ~node ~kind:Derived
  in
  let w =
    {
      w_name = name;
      w_node = node;
      hist = Stats.Log_histogram.create ();
      scale;
      p50 = mk "p50";
      p95 = mk "p95";
      p99 = mk "p99";
      rate = mk "rate";
      w_reg = t;
    }
  in
  t.insts <- Window w :: t.insts;
  w

let observe w v = if w.w_reg.enabled then Stats.Log_histogram.add w.hist v

let sample t =
  (* Idempotent per instant: a closing sample that lands exactly on the
     last tick would otherwise duplicate every series' timestamp. *)
  if t.enabled && not (t.samples > 0 && t.clock () = t.last_sample) then begin
    let now = t.clock () in
    let dt = now -. t.last_sample in
    List.iter
      (fun inst ->
        match inst with
        | Probe (s, f) -> push s { at = now; v = f () }
        | Window w ->
            let h = w.hist in
            let n = Stats.Log_histogram.count h in
            if n > 0 then begin
              let pct p = Stats.Log_histogram.percentile h p *. w.scale in
              push w.p50 { at = now; v = pct 50.0 };
              push w.p95 { at = now; v = pct 95.0 };
              push w.p99 { at = now; v = pct 99.0 }
            end;
            let r = if dt > 0.0 then float_of_int n /. dt else 0.0 in
            push w.rate { at = now; v = r };
            Stats.Log_histogram.clear h)
      (List.rev t.insts);
    t.last_sample <- now;
    t.samples <- t.samples + 1
  end

let all t =
  List.rev
    (List.fold_left
       (fun acc inst ->
         match inst with
         | Probe (s, _) -> s :: acc
         | Window w -> w.rate :: w.p99 :: w.p95 :: w.p50 :: acc)
       [] (List.rev t.insts))

let name s = s.s_name
let node s = s.s_node
let kind s = s.s_kind
let length s = s.len
let dropped s = s.s_dropped

let points s =
  let cap = Array.length s.buf in
  List.init s.len (fun i -> s.buf.((s.start + i) mod cap))

let iter_points s f =
  let cap = Array.length s.buf in
  for i = 0 to s.len - 1 do
    f s.buf.((s.start + i) mod cap)
  done

let last s =
  if s.len = 0 then None
  else Some s.buf.((s.start + s.len - 1) mod Array.length s.buf)

let qualified s = if s.s_node < 0 then s.s_name else Printf.sprintf "%s@%d" s.s_name s.s_node

let find t q =
  let rec scan = function
    | [] -> None
    | s :: rest -> if qualified s = q then Some s else scan rest
  in
  scan (all t)

let total_dropped t =
  List.fold_left (fun acc s -> acc + s.s_dropped) 0 (all t)

let samples_taken t = t.samples

let kind_label = function
  | Gauge -> "gauge"
  | Cumulative -> "counter"
  | Derived -> "derived"
