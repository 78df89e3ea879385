(* Shared helpers for Amber-level tests. *)

(* Run [body] as the main thread of a fresh cluster and return its result. *)
let run ?(nodes = 4) ?(cpus = 2) body =
  let cfg = Amber.Config.make ~nodes ~cpus () in
  Amber.Cluster.run_value cfg body

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
