type mode = Read | Write | Atomic

let mode_to_string = function Read -> "r" | Write -> "w" | Atomic -> "a"

let mode_of_string = function
  | "r" -> Some Read
  | "w" -> Some Write
  | "a" -> Some Atomic
  | _ -> None

let pp_mode ppf m =
  Format.pp_print_string ppf
    (match m with Read -> "read" | Write -> "write" | Atomic -> "atomic")

module Event = struct
  type barrier_phase = Arrive | Release | Resume

  type t =
    | Thread_start of { parent : int; child : int }
    | Thread_join of { parent : int; child : int }
    | Migrate of { tid : int; src : int; dst : int }
    | Object_created of { addr : int; name : string }
    | Object_destroyed of { addr : int }
    | Sync_created of { addr : int; kind : string }
    | Access of { tid : int; addr : int; mode : mode }
    | Access_end of { tid : int; addr : int }
    | Lock_acquired of { tid : int; addr : int }
    | Lock_released of { tid : int; addr : int }
    | Barrier of { tid : int; addr : int; gen : int; phase : barrier_phase }
    | Cond_signal of { tid : int; token : int }
    | Cond_wake of { tid : int; token : int }
    | Move_begin of { addr : int }
    | Move_end of { addr : int }
    | Replica_read of { tid : int; addr : int; node : int; epoch : int }
    | Steal of { by : int; tid : int; victim : int; thief : int }
    | Future_resolve of { tid : int; id : int }
    | Future_await of { tid : int; id : int }

  let phase_to_string = function
    | Arrive -> "arrive"
    | Release -> "release"
    | Resume -> "resume"

  let to_string = function
    | Thread_start { parent; child } ->
      Printf.sprintf "start p=%d c=%d" parent child
    | Thread_join { parent; child } ->
      Printf.sprintf "join p=%d c=%d" parent child
    | Migrate { tid; src; dst } ->
      Printf.sprintf "migrate t=%d src=%d dst=%d" tid src dst
    (* Name last so names with spaces survive the round trip. *)
    | Object_created { addr; name } -> Printf.sprintf "new 0x%x %s" addr name
    | Object_destroyed { addr } -> Printf.sprintf "del 0x%x" addr
    | Sync_created { addr; kind } -> Printf.sprintf "sync 0x%x %s" addr kind
    | Access { tid; addr; mode } ->
      Printf.sprintf "acc t=%d 0x%x %s" tid addr (mode_to_string mode)
    | Access_end { tid; addr } -> Printf.sprintf "fin t=%d 0x%x" tid addr
    | Lock_acquired { tid; addr } -> Printf.sprintf "acq t=%d 0x%x" tid addr
    | Lock_released { tid; addr } -> Printf.sprintf "rel t=%d 0x%x" tid addr
    | Barrier { tid; addr; gen; phase } ->
      Printf.sprintf "bar t=%d 0x%x g=%d %s" tid addr gen
        (phase_to_string phase)
    | Cond_signal { tid; token } -> Printf.sprintf "sig t=%d k=%d" tid token
    | Cond_wake { tid; token } -> Printf.sprintf "wake t=%d k=%d" tid token
    | Move_begin { addr } -> Printf.sprintf "mvb 0x%x" addr
    | Move_end { addr } -> Printf.sprintf "mve 0x%x" addr
    | Replica_read { tid; addr; node; epoch } ->
      Printf.sprintf "rrd t=%d 0x%x n=%d e=%d" tid addr node epoch
    | Steal { by; tid; victim; thief } ->
      Printf.sprintf "steal by=%d t=%d v=%d th=%d" by tid victim thief
    | Future_resolve { tid; id } -> Printf.sprintf "fres t=%d f=%d" tid id
    | Future_await { tid; id } -> Printf.sprintf "fawa t=%d f=%d" tid id

  (* "p=3" with the expected key -> 3; raises on mismatch. *)
  let kv key tok =
    match String.split_on_char '=' tok with
    | [ k; v ] when String.equal k key -> int_of_string v
    | _ -> failwith "San_hooks.Event.kv"

  let of_string s =
    match String.split_on_char ' ' s with
    | [ "start"; p; c ] ->
      Some (Thread_start { parent = kv "p" p; child = kv "c" c })
    | [ "join"; p; c ] ->
      Some (Thread_join { parent = kv "p" p; child = kv "c" c })
    | [ "migrate"; t; src; dst ] ->
      Some
        (Migrate { tid = kv "t" t; src = kv "src" src; dst = kv "dst" dst })
    | "new" :: addr :: (_ :: _ as name_parts) ->
      Some
        (Object_created
           {
             addr = int_of_string addr;
             name = String.concat " " name_parts;
           })
    | [ "del"; addr ] -> Some (Object_destroyed { addr = int_of_string addr })
    | [ "sync"; addr; kind ] ->
      Some (Sync_created { addr = int_of_string addr; kind })
    | [ "acc"; t; addr; m ] -> (
      match mode_of_string m with
      | Some mode ->
        Some (Access { tid = kv "t" t; addr = int_of_string addr; mode })
      | None -> None)
    | [ "fin"; t; addr ] ->
      Some (Access_end { tid = kv "t" t; addr = int_of_string addr })
    | [ "acq"; t; addr ] ->
      Some (Lock_acquired { tid = kv "t" t; addr = int_of_string addr })
    | [ "rel"; t; addr ] ->
      Some (Lock_released { tid = kv "t" t; addr = int_of_string addr })
    | [ "bar"; t; addr; g; ph ] ->
      let phase =
        match ph with
        | "arrive" -> Arrive
        | "release" -> Release
        | "resume" -> Resume
        | _ -> failwith "San_hooks.Event.of_string: barrier phase"
      in
      Some
        (Barrier
           { tid = kv "t" t; addr = int_of_string addr; gen = kv "g" g; phase })
    | [ "sig"; t; k ] -> Some (Cond_signal { tid = kv "t" t; token = kv "k" k })
    | [ "wake"; t; k ] -> Some (Cond_wake { tid = kv "t" t; token = kv "k" k })
    | [ "mvb"; addr ] -> Some (Move_begin { addr = int_of_string addr })
    | [ "mve"; addr ] -> Some (Move_end { addr = int_of_string addr })
    | [ "rrd"; t; addr; n; e ] ->
      Some
        (Replica_read
           {
             tid = kv "t" t;
             addr = int_of_string addr;
             node = kv "n" n;
             epoch = kv "e" e;
           })
    | [ "steal"; by; t; v; th ] ->
      Some
        (Steal
           {
             by = kv "by" by;
             tid = kv "t" t;
             victim = kv "v" v;
             thief = kv "th" th;
           })
    | [ "fres"; t; f ] ->
      Some (Future_resolve { tid = kv "t" t; id = kv "f" f })
    | [ "fawa"; t; f ] ->
      Some (Future_await { tid = kv "t" t; id = kv "f" f })
    | _ -> None

  let of_string s = try of_string s with _ -> None
end

type t = Event.t -> unit

let self_tid () =
  match Hw.Machine.self () with Some me -> Hw.Machine.tcb_id me | None -> -1
