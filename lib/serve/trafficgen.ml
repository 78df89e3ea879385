(* Seeded open-loop traffic generation.

   Everything here is a pure function of the [Sim.Rng.t] it is handed:
   no virtual time, no engine events.  The serving driver draws each
   arrival from the stream as it issues the request, so only the
   requests in flight are live, however long the run; the generator
   stays bit-reproducible, and tests study the distributions without
   running a cluster at all. *)

type cls = Read | Write | Compute

let cls_name = function Read -> "read" | Write -> "write" | Compute -> "compute"
let all_classes = [ Read; Write; Compute ]

type mix = { read : float; write : float; compute : float }

let default_mix = { read = 0.7; write = 0.2; compute = 0.1 }

let weight mix = function
  | Read -> mix.read
  | Write -> mix.write
  | Compute -> mix.compute

let normalize mix =
  let s = mix.read +. mix.write +. mix.compute in
  { read = mix.read /. s; write = mix.write /. s; compute = mix.compute /. s }

type arrival =
  | Poisson of float  (* mean arrival rate, requests per virtual second *)
  | Bursty of {
      rate : float;  (* base (off-phase) rate *)
      factor : float;  (* on-phase multiplier, > 1 *)
      on_mean : float;  (* mean on-phase length, seconds *)
      off_mean : float;  (* mean off-phase length, seconds *)
    }

(* Long-run mean rate of an arrival process (used to derive default
   admission rates and to sanity-check empirical means in tests). *)
let mean_rate = function
  | Poisson r -> r
  | Bursty { rate; factor; on_mean; off_mean } ->
      rate *. ((factor *. on_mean) +. off_mean) /. (on_mean +. off_mean)

type request = { at : float; cls : cls; key : int }

(* Zipf(s) over [0, n): P(k) proportional to 1/(k+1)^s, sampled by binary
   search over the precomputed CDF.  s = 0 degenerates to uniform. *)
type zipf = { cdf : float array }

let zipf ~n ~s =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (k + 1) ** s));
    cdf.(k) <- !acc
  done;
  let total = !acc in
  for k = 0 to n - 1 do
    cdf.(k) <- cdf.(k) /. total
  done;
  { cdf }

let zipf_sample z rng =
  let u = Sim.Rng.float rng in
  let n = Array.length z.cdf in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let pick_class mix rng =
  let u = Sim.Rng.float rng in
  if u < mix.read then Read
  else if u < mix.read +. mix.write then Write
  else Compute

(* Arrivals over [0, duration), in order, drawn as the stream is
   forced.  Per request the draw sequence is fixed — inter-arrival gap,
   class, key — so the stream is a pure function of the rng.  The bursty
   process is Markov-modulated Poisson: exponential on/off phases starting
   in the on phase; exponential memorylessness makes redrawing the gap at
   each phase boundary exact, not an approximation. *)
let stream ~rng ~arrival ~mix ~keys ~skew ~duration =
  let mix = normalize mix in
  let z = zipf ~n:keys ~s:skew in
  let request at =
    let cls = pick_class mix rng in
    let key = zipf_sample z rng in
    { at; cls; key }
  in
  match arrival with
  | Poisson rate ->
      let mean = 1.0 /. rate in
      let rec from t () =
        if t < duration then
          (* Class and key are drawn before the next gap. *)
          let r = request t in
          Seq.Cons (r, from (t +. Sim.Rng.exponential rng ~mean))
        else Seq.Nil
      in
      fun () -> from (Sim.Rng.exponential rng ~mean) ()
  | Bursty { rate; factor; on_mean; off_mean } ->
      let rec from t on phase_end () =
        if t >= duration then Seq.Nil
        else
          let r = if on then rate *. factor else rate in
          let gap = Sim.Rng.exponential rng ~mean:(1.0 /. r) in
          if t +. gap >= phase_end then
            let on = not on in
            let mean = if on then on_mean else off_mean in
            from phase_end on (phase_end +. Sim.Rng.exponential rng ~mean) ()
          else
            let t = t +. gap in
            if t < duration then Seq.Cons (request t, from t on phase_end)
            else Seq.Nil
      in
      fun () -> from 0.0 true (Sim.Rng.exponential rng ~mean:on_mean) ()

let generate ~rng ~arrival ~mix ~keys ~skew ~duration =
  List.of_seq (stream ~rng ~arrival ~mix ~keys ~skew ~duration)

(* Canonical one-line-per-request rendering, for determinism digests. *)
let to_string reqs =
  let b = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%.9f %s %d\n" r.at (cls_name r.cls) r.key))
    reqs;
  Buffer.contents b
