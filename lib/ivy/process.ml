module Runtime = Amber.Runtime

type 'r t = {
  tcb : Hw.Machine.tcb;
  result : 'r option ref;
}

let spawn rt ~node ?(name = "ivy-proc") body =
  let result = ref None in
  let tcb =
    Hw.Machine.spawn (Runtime.machine rt node) ~name (fun () ->
        result := Some (body ()))
  in
  { tcb; result }

let join t =
  match Topaz.Kthread.join t.tcb with
  | Sim.Fiber.Completed -> (
    match !(t.result) with
    | Some r -> r
    | None -> failwith "Process.join: no result")
  | Sim.Fiber.Failed e -> raise e

(* Default process context: registers + kernel state + working-set pages
   pushed with the process (Ivy moved processes wholesale). *)
let default_state_bytes = 4096
let process_kind = Hw.Packet.Kind.v "process"

let migrate rt ?(state_bytes = default_state_bytes) ~dest () =
  let machine = Hw.Machine.self_machine () in
  let src = Hw.Machine.id machine in
  if src <> dest then begin
    let tcb = Hw.Machine.self_exn () in
    let c = Runtime.cost rt in
    Sim.Fiber.consume c.Amber.Cost_model.thread_send_cpu;
    Sim.Fiber.block (fun wake ->
        (* Reliable: a dropped process-state flight would strand it. *)
        Topaz.Rpc.send_reliable (Runtime.rpc rt) ~src ~dst:dest
          ~size:state_bytes ~kind:process_kind (fun () ->
            Hw.Machine.transfer tcb ~dest:(Runtime.machine rt dest);
            wake ()));
    Sim.Fiber.consume c.Amber.Cost_model.thread_recv_cpu
  end

let node t = Hw.Machine.id (Hw.Machine.home t.tcb)

let is_finished t =
  match Hw.Machine.state t.tcb with
  | Hw.Machine.Finished _ -> true
  | Hw.Machine.Ready | Hw.Machine.Running _ | Hw.Machine.Blocked -> false
