(* Serializable schedule trees: the decision trail of one explored
   execution, in a stable text format, so a counterexample found by
   {!Modelcheck} can be written out ([--schedule-out]), inspected, and
   replayed later ([--schedule-in]) — on the same binary and fixture the
   replay is bit-identical.

   Format (tab-separated, one decision per line):

   {v
   # ambercheck schedule v1
   # <free-form comment lines>
   <domain> TAB <chosen index> TAB <candidate count> TAB <ident> TAB <key> TAB <label>
   v}

   [domain] is [event] (which pending engine event fired), [fiber]
   (which ready thread a machine dispatched) or [fault] (what the medium
   did to a packet).  Only the domain and chosen index drive a replay;
   ident/key/label are recorded so a human can read the schedule and so
   replay can detect divergence. *)

type decision = {
  dom : Sim.Choice.domain;
  index : int;  (* which candidate was taken *)
  ncands : int;  (* how many there were *)
  ident : string;
  key : string;
  label : string;
}

type t = decision list

let magic = "# ambercheck schedule v1"

let of_choice (c : Sim.Choice.candidate) ~index ~ncands =
  {
    dom = c.Sim.Choice.dom;
    index;
    ncands;
    ident = Sim.Choice.ident_name c.Sim.Choice.ident;
    key = Sim.Choice.key_name c.Sim.Choice.key;
    label = Lazy.force c.Sim.Choice.label;
  }

(* Labels are machine-generated and never contain tabs or newlines, but
   sanitize anyway so a schedule file always round-trips line-per-line. *)
let clean s =
  String.map (fun c -> if c = '\t' || c = '\n' || c = '\r' then ' ' else c) s

let decision_to_line d =
  Printf.sprintf "%s\t%d\t%d\t%s\t%s\t%s"
    (Sim.Choice.domain_name d.dom)
    d.index d.ncands (clean d.ident) (clean d.key) (clean d.label)

let decision_of_line line =
  match String.split_on_char '\t' line with
  | [ dom; index; ncands; ident; key; label ] -> (
    match
      (Sim.Choice.domain_of_name dom, int_of_string_opt index,
       int_of_string_opt ncands)
    with
    | Some dom, Some index, Some ncands when index >= 0 && ncands > index ->
      Some { dom; index; ncands; ident; key; label }
    | _ -> None)
  | _ -> None

let to_string ?(comments = []) (t : t) =
  let b = Buffer.create 1024 in
  Buffer.add_string b magic;
  Buffer.add_char b '\n';
  List.iter
    (fun c ->
      Buffer.add_string b ("# " ^ clean c);
      Buffer.add_char b '\n')
    comments;
  List.iter
    (fun d ->
      Buffer.add_string b (decision_to_line d);
      Buffer.add_char b '\n')
    t;
  Buffer.contents b

let of_string s =
  let lines = String.split_on_char '\n' s in
  match lines with
  | first :: rest when String.trim first = magic ->
    let rec parse acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
        let line = String.trim line in
        if line = "" || String.length line > 0 && line.[0] = '#' then
          parse acc rest
        else (
          match decision_of_line line with
          | Some d -> parse (d :: acc) rest
          | None -> Error (Printf.sprintf "bad schedule line: %S" line))
    in
    parse [] rest
  | _ -> Error "not an ambercheck schedule (missing version header)"

let save ?comments path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?comments t))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      of_string s)

let pp ppf (t : t) =
  List.iteri
    (fun i d ->
      Format.fprintf ppf "%4d  %-5s %d/%d  %s@." i
        (Sim.Choice.domain_name d.dom)
        d.index d.ncands
        (if d.label = "" then d.key else d.label))
    t
