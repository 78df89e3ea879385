type report = { elapsed : float; stats : Stats_report.t }

exception Deadlock

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
    raise Deadlock

let run cfg main =
  let rt, value, elapsed = execute cfg main in
  (value, { elapsed; stats = Stats_report.capture rt })

let run_value cfg main =
  let _, value, _ = execute cfg main in
  value
