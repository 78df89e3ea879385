type t = {
  invoke_entry_cpu : float;
  invoke_return_cpu : float;
  trap_cpu : float;
  thread_state_bytes : int;
  thread_send_cpu : float;
  thread_recv_cpu : float;
  create_fixed_cpu : float;
  create_per_byte_cpu : float;
  move_fixed_cpu : float;
  move_per_byte_cpu : float;
  move_ack_bytes : int;
  preempt_victim_cpu : float;
  forward_lookup_cpu : float;
  locate_req_bytes : int;
  thread_create_cpu : float;
  thread_join_cpu : float;
  lock_fast_cpu : float;
  spin_probe_cpu : float;
  future_notify_bytes : int;
}

(* Calibration notes.  Targets are Table 1 of the paper, measured on CVAX
   Fireflies over 10 Mbit/s Ethernet:
     object create        0.18 ms
     local invoke/return  0.012 ms
     remote invoke/return 8.32 ms
     object move          12.43 ms
     thread start/join    1.33 ms
   The remote-invoke budget decomposes as two thread flights (out and
   back), each: entry/trap + marshal + wire (~0.51 ms for a thread-state
   packet) + unmarshal + dispatch.  Move adds a control RPC, the §3.5
   preempt-everybody step, the bulk contents transfer, and an ack. *)
let default =
  {
    invoke_entry_cpu = 6.0e-6;
    invoke_return_cpu = 6.0e-6;
    trap_cpu = 120.0e-6;
    thread_state_bytes = 512;
    thread_send_cpu = 2.325e-3;
    thread_recv_cpu = 1.15e-3;
    create_fixed_cpu = 160.0e-6;
    create_per_byte_cpu = 0.3e-6;
    move_fixed_cpu = 3.20e-3;
    move_per_byte_cpu = 0.9e-6;
    move_ack_bytes = 32;
    preempt_victim_cpu = 60.0e-6;
    forward_lookup_cpu = 15.0e-6;
    locate_req_bytes = 48;
    thread_create_cpu = 1.07e-3;
    thread_join_cpu = 0.26e-3;
    lock_fast_cpu = 4.0e-6;
    spin_probe_cpu = 2.0e-6;
    future_notify_bytes = 64;
  }

let quantum = 5e-3
let ctx_switch = 30e-6

let scale_cpu c factor =
  if factor <= 0.0 then invalid_arg "Cost_model.scale_cpu: factor";
  {
    c with
    invoke_entry_cpu = c.invoke_entry_cpu *. factor;
    invoke_return_cpu = c.invoke_return_cpu *. factor;
    trap_cpu = c.trap_cpu *. factor;
    thread_send_cpu = c.thread_send_cpu *. factor;
    thread_recv_cpu = c.thread_recv_cpu *. factor;
    create_fixed_cpu = c.create_fixed_cpu *. factor;
    create_per_byte_cpu = c.create_per_byte_cpu *. factor;
    move_fixed_cpu = c.move_fixed_cpu *. factor;
    move_per_byte_cpu = c.move_per_byte_cpu *. factor;
    preempt_victim_cpu = c.preempt_victim_cpu *. factor;
    forward_lookup_cpu = c.forward_lookup_cpu *. factor;
    thread_create_cpu = c.thread_create_cpu *. factor;
    thread_join_cpu = c.thread_join_cpu *. factor;
    lock_fast_cpu = c.lock_fast_cpu *. factor;
    spin_probe_cpu = c.spin_probe_cpu *. factor;
  }
