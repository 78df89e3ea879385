(* Shared helpers for Amber-level tests. *)

(* Run [body] as the main thread of a fresh cluster and return its result. *)
let run ?(nodes = 4) ?(cpus = 2) body =
  let cfg = Amber.Config.make ~nodes ~cpus () in
  Amber.Cluster.run_value cfg body

(* A chooser that always takes the first candidate, which is what the
   engine and the scheduler would pick without one. *)
let pass_through =
  { Sim.Choice.pick = (fun _ _ -> 0); faults = false; note_access = ignore }

(* A formatter that discards everything: run-harness sections a test
   does not read. *)
let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore

(* Run [body] through the run harness, under AmberSan when [sanitize],
   and return its result.  Fails on any sanitizer finding; a typed
   failure escaping the body is re-raised. *)
let run_sanitized ~sanitize cfg body =
  let o =
    Session.run ~ppf:quiet { Session.off with Session.sanitize } cfg body
  in
  Option.iter
    (fun rep ->
      if Analysis.Ambersan.failed rep then
        failwith
          (Format.asprintf "sanitizer not clean:@.%a"
             Analysis.Ambersan.pp_report rep))
    o.Session.sanitizer;
  match o.Session.result with Ok v -> v | Error e -> raise e

let run_report ?(nodes = 4) ?(cpus = 2) body =
  let cfg = Amber.Config.make ~nodes ~cpus () in
  Amber.Cluster.run cfg body

(* The node where the protocol currently believes the object to be, read
   from ground truth. *)
let location obj = obj.Amber.Aobject.location

let check_float = Alcotest.(check (float 1e-9))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Run the CLI built next to the test runner: exit status, output lines. *)
let cli args =
  let amber_sim =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat Filename.parent_dir_name "bin/amber_sim.exe")
  in
  let out = Filename.temp_file "amber-cli" ".txt" in
  let status =
    Sys.command (Filename.quote_command amber_sim args ~stdout:out ~stderr:out)
  in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (status, String.split_on_char '\n' text)
