type report = { elapsed : float; stats : Stats_report.t }

exception Deadlock of { unfinished : int; threads : string list }

let () =
  Printexc.register_printer (function
    | Deadlock { unfinished; threads } ->
      let more = unfinished - List.length threads in
      Some
        (Printf.sprintf
           "Cluster.Deadlock (the engine drained with %d unfinished \
            thread%s: %s%s)"
           unfinished
           (if unfinished = 1 then "" else "s")
           (String.concat "; " threads)
           (if more > 0 then Printf.sprintf "; and %d more" more else ""))
    | _ -> None)

let shown_threads = 10

(* The unfinished threads in tid order: the first [shown_threads] as
   [Hw.Machine.pp_tcb] prints them, each with its innermost frame's
   object, and how many there are. *)
let deadlock rt =
  let unfinished = ref 0 and threads = ref [] in
  Runtime.iter_threads rt (fun ts ->
      incr unfinished;
      if !unfinished <= shown_threads then
        let obj =
          match ts.Runtime.frames with
          | f :: _ -> " in " ^ Aobject.name_of_any f.Runtime.fobj
          | [] -> ""
        in
        threads :=
          Format.asprintf "%a%s" Hw.Machine.pp_tcb ts.Runtime.tcb obj
          :: !threads);
  Deadlock { unfinished = !unfinished; threads = List.rev !threads }

(* The runtime after quiescence, [main]'s result and when it returned. *)
let execute cfg main =
  let rt = Runtime.create cfg in
  let finished_at = ref None in
  let thread = Athread.start_on rt ~node:0 ~name:"main" (fun () -> main rt) in
  Hw.Machine.on_finish (Athread.tcb thread) (fun _ ->
      finished_at := Some (Runtime.now rt));
  ignore (Sim.Engine.run (Runtime.engine rt) : int);
  Runtime.check_failures rt;
  match (Hw.Machine.state (Athread.tcb thread), !finished_at) with
  | Hw.Machine.Finished (Sim.Fiber.Failed e), _ -> raise e
  | Hw.Machine.Finished Sim.Fiber.Completed, Some elapsed ->
    (rt, Athread.result_exn thread, elapsed)
  | (Hw.Machine.Finished Sim.Fiber.Completed | Hw.Machine.Ready
    | Hw.Machine.Running _ | Hw.Machine.Blocked), _ ->
    raise (deadlock rt)

let run cfg main =
  let rt, value, elapsed = execute cfg main in
  (value, { elapsed; stats = Stats_report.capture rt })

let run_value cfg main =
  let _, value, _ = execute cfg main in
  value
