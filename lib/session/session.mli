(** The run harness: one entry point that runs a workload on the simulated
    cluster with the optional layers around it, the way an Amber program
    hands its work to one runtime.

    {[
      let o =
        Session.run { Session.off with profile = true } cfg (fun rt ->
            Workloads.Sor_amber.run rt p ~iters ())
      in
      exit o.Session.status
    ]}

    Inside the main thread, [run] attaches the requested layers in a
    fixed order: sanitizer, profiler, flight recorder, watch tick, then
    the balancer.  It runs the body, then stops the balancer and the
    tick (also when the body raises, so the engine can quiesce).  A
    balancer that fails to stop fails the run as the body would; when
    both fail, the body's exception is the one raised.  With
    [report] it prints the cluster report, and finally it seals the
    profiler, so teardown stays outside the measured region.

    After the cluster drains, [run] finalizes the sanitizer and prints
    every section once, in this order: sanitizer verdict, [print result],
    profile and critical path, exports, SLO verdicts, flight recorder.
    Sections already inside the printed report (the [profile:] lines,
    the [sanitizer:] verdict) are not printed again.

    With every layer off ({!off}) only the inert balancer handle is
    created, and the run is byte-identical to a bare
    {!Amber.Cluster.run_value}. *)

type watch = {
  interval : float;  (** sampling tick period, virtual seconds *)
  slo : Watch.Slo.rule list;  (** burn-rate rules; a firing one exits 4 *)
}

type t = {
  sanitize : bool;  (** run under AmberSan; findings exit 3 *)
  profile : bool;  (** span profiler plus critical-path decomposition *)
  watch : watch option;  (** continuous telemetry *)
  flight : string option;  (** failure flight-recorder directory *)
  balance : Balance.Driver.cfg;  (** the default is inert *)
  report : bool;  (** print the full cluster report *)
  out : string option;  (** Chrome trace export (needs [profile]) *)
  watch_out : string option;  (** series JSON Lines export (needs [watch]) *)
  watch_csv : string option;  (** series CSV export (needs [watch]) *)
  jsonl : bool;  (** dump every span as JSON Lines (needs [profile]) *)
}

val off : t
(** Every layer off, nothing printed, no exports. *)

type 'a outcome = {
  result : ('a, exn) result;
      (** [Error e] when a typed failure escaped the body:
          [Topaz.Rpc.Node_dead], [Amber.Aobject.Object_lost],
          [Amber.Aobject.Chain_exhausted], [Amber.Overload.Overloaded],
          [Amber.Athread.Join_failed] or [Amber.Cluster.Deadlock].  Any
          other exception propagates out of {!run}. *)
  status : int;
      (** 0; 3 on sanitizer findings; else 4 on a fired SLO; 5 on a typed
          failure *)
  sanitizer : Analysis.Ambersan.report option;  (** the finalized verdict *)
  profile : Scope.Profile.t option;
  watch : Watch.t option;
}

val run :
  ?ppf:Format.formatter ->
  ?print:('a -> unit) ->
  t ->
  Amber.Config.t ->
  (Amber.Runtime.t -> 'a) ->
  'a outcome
(** Sections go to [ppf] (default stdout).  [print] reports the body's
    result; it runs after the sanitizer verdict and before the profile,
    and only when the body returned. *)
