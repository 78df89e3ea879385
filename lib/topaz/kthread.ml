let join tcb =
  let result = ref None in
  (match Hw.Machine.state tcb with
  | Hw.Machine.Finished outcome -> result := Some outcome
  | Hw.Machine.Ready | Hw.Machine.Running _ | Hw.Machine.Blocked ->
    Sim.Fiber.block (fun wake ->
        Hw.Machine.on_finish tcb (fun outcome ->
            result := Some outcome;
            wake ())));
  match !result with
  | Some outcome -> outcome
  | None -> assert false

let sleep ~engine dt =
  if dt < 0.0 then invalid_arg "Kthread.sleep: negative duration";
  Sim.Fiber.block (fun wake ->
      ignore (Sim.Engine.schedule engine ~delay:dt wake : Sim.Engine.event_id))
