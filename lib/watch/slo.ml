type op = Le | Ge

type rule = {
  text : string;
  series : string;
  op : op;
  threshold : float;
  budget : float;
}

let default_budget = 0.1

(* Burn-rate windows, in ticks. *)
let short_win = 12
let long_win = 48

let op_name = function Le -> "<=" | Ge -> ">="

let parse s =
  let fail msg = Error (Printf.sprintf "bad SLO rule %S: %s" s msg) in
  let split_on sub =
    let n = String.length sub and len = String.length s in
    let rec scan i =
      if i + n > len then None
      else if String.sub s i n = sub then
        Some (String.sub s 0 i, String.sub s (i + n) (len - i - n))
      else scan (i + 1)
    in
    scan 0
  in
  let parsed =
    match split_on "<=" with
    | Some (l, r) -> Some (l, Le, r)
    | None -> (
        match split_on ">=" with
        | Some (l, r) -> Some (l, Ge, r)
        | None -> None)
  in
  match parsed with
  | None -> fail "expected SERIES<=THRESHOLD or SERIES>=THRESHOLD"
  | Some (l, op, r) -> (
      let series = String.trim l in
      if series = "" then fail "empty series name"
      else
        let rhs, budget_s =
          match String.index_opt r '@' with
          | Some i ->
              ( String.sub r 0 i,
                Some (String.sub r (i + 1) (String.length r - i - 1)) )
          | None -> (r, None)
        in
        match float_of_string_opt (String.trim rhs) with
        | None -> fail "threshold is not a number"
        | Some threshold -> (
            match budget_s with
            | None ->
                Ok { text = s; series; op; threshold; budget = default_budget }
            | Some b -> (
                match float_of_string_opt (String.trim b) with
                | Some budget when budget > 0.0 && budget <= 1.0 ->
                    Ok { text = s; series; op; threshold; budget }
                | _ -> fail "budget must be a fraction in (0, 1]")))

type outcome = {
  rule : rule;
  points : int;
  bad : int;
  fired : bool;
  fire_at : float option;
  peak_fast : float;
  peak_slow : float;
}

let violates rule v =
  match rule.op with Le -> v > rule.threshold | Ge -> v < rule.threshold

(* Multi-window burn rate over the sampled points: at each tick, the
   burn is (bad fraction over the trailing window) / budget; the rule
   fires at the first tick where both the short and the long window burn
   at >= 1 — i.e. the error budget is being consumed faster than
   allotted on both timescales, the classic fast+slow gate that ignores
   a lone bad tick but catches a sustained breach quickly.  Windows
   clamp to the available history; nothing fires before [short_win]
   points exist. *)
let evaluate reg rule =
  match Sim.Series.find reg rule.series with
  | None ->
      {
        rule;
        points = 0;
        bad = 0;
        fired = false;
        fire_at = None;
        peak_fast = 0.0;
        peak_slow = 0.0;
      }
  | Some s ->
      let pts = Array.of_list (Sim.Series.points s) in
      let n = Array.length pts in
      let bad = Array.map (fun (p : Sim.Series.point) -> violates rule p.v) pts in
      (* prefix.(i) = number of bad points among pts.(0..i-1) *)
      let prefix = Array.make (n + 1) 0 in
      for i = 0 to n - 1 do
        prefix.(i + 1) <- (prefix.(i) + if bad.(i) then 1 else 0)
      done;
      let burn ~window i =
        let w = Stdlib.min window (i + 1) in
        let b = prefix.(i + 1) - prefix.(i + 1 - w) in
        float_of_int b /. float_of_int w /. rule.budget
      in
      let fired = ref false in
      let fire_at = ref None in
      let peak_fast = ref 0.0 and peak_slow = ref 0.0 in
      for i = 0 to n - 1 do
        if i + 1 >= short_win then begin
          let f = burn ~window:short_win i in
          let sl = burn ~window:long_win i in
          if f > !peak_fast then peak_fast := f;
          if sl > !peak_slow then peak_slow := sl;
          if (not !fired) && f >= 1.0 && sl >= 1.0 then begin
            fired := true;
            fire_at := Some pts.(i).at
          end
        end
      done;
      {
        rule;
        points = n;
        bad = prefix.(n);
        fired = !fired;
        fire_at = !fire_at;
        peak_fast = !peak_fast;
        peak_slow = !peak_slow;
      }

let any_fired outcomes = List.exists (fun o -> o.fired) outcomes

let outcome_line o =
  let head =
    Printf.sprintf "slo %s %s %g @%g: " o.rule.series (op_name o.rule.op)
      o.rule.threshold o.rule.budget
  in
  if o.points = 0 then head ^ "no data"
  else
    let tail =
      Printf.sprintf "(bad %d/%d, peak burn fast=%.2f slow=%.2f)" o.bad
        o.points o.peak_fast o.peak_slow
    in
    match o.fire_at with
    | Some at -> head ^ Printf.sprintf "FIRED at %.6fs " at ^ tail
    | None -> head ^ "ok " ^ tail

let report_lines outcomes = List.map outcome_line outcomes
