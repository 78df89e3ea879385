module A = Amber

type cfg = { policy : Rebalancer.policy; steal : bool; gossip_interval : float }

let default_cfg =
  { policy = Rebalancer.Off; steal = false; gossip_interval = 10e-3 }

type active = {
  li : Loadinfo.t;
  stealer : Stealer.t option;
  reb : Rebalancer.t;
  mutable tick_ev : Sim.Engine.event_id option;
  mutable stopped : bool;
}

type t = { rt : A.Runtime.t; active : active option }

let start rt cfg =
  if not (cfg.gossip_interval > 0.0) then
    invalid_arg "Balance.Driver.start: gossip_interval";
  if cfg.policy = Rebalancer.Off && not cfg.steal then
    (* Fully off: no RNG draws, no events, no report lines — runs are
       byte-identical to a driverless build. *)
    { rt; active = None }
  else begin
    let eng = A.Runtime.engine rt in
    let root = Sim.Rng.split (Sim.Engine.rng eng) in
    let li = Loadinfo.create rt ~rng:(Sim.Rng.split root) in
    let stealer =
      if cfg.steal then Some (Stealer.create rt ~li ~rng:(Sim.Rng.split root))
      else None
    in
    let reb = Rebalancer.create rt ~policy:cfg.policy in
    let a = { li; stealer; reb; tick_ev = None; stopped = false } in
    (* Telemetry: publish each node's own EWMA load view as a gauge when
       a watcher enabled the registry — the exact signal the stealer and
       rebalancer act on, so watch plots show what the policy saw. *)
    let metrics = A.Runtime.metrics rt in
    if Sim.Series.enabled metrics then
      for n = 0 to A.Runtime.nodes rt - 1 do
        Sim.Series.probe metrics ~name:"balance.ewma_load" ~node:n (fun () ->
            Loadinfo.load (Loadinfo.board li ~viewer:n).(n))
      done;
    let rec tick () =
      a.tick_ev <- None;
      if not a.stopped then begin
        Loadinfo.tick li;
        (match a.stealer with Some s -> Stealer.tick s | None -> ());
        a.tick_ev <- Some (Sim.Engine.schedule eng ~delay:cfg.gossip_interval tick)
      end
    in
    a.tick_ev <- Some (Sim.Engine.schedule eng ~delay:cfg.gossip_interval tick);
    Rebalancer.start reb;
    { rt; active = Some a }
  end

let stop t =
  match t.active with
  | None -> ()
  | Some a ->
    a.stopped <- true;
    (match a.tick_ev with
    | Some ev ->
      a.tick_ev <- None;
      Sim.Engine.cancel (A.Runtime.engine t.rt) ev
    | None -> ());
    Rebalancer.stop a.reb

let move_log t =
  match t.active with None -> [] | Some a -> Rebalancer.move_log a.reb

let loadinfo t = match t.active with None -> None | Some a -> Some a.li
