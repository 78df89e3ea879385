type kind =
  | Invoke_local
  | Invoke_remote
  | Replica_read
  | Chase_hop
  | Thread_flight
  | Net_flight
  | Rpc_call
  | Rpc_server
  | Object_move
  | Replica_install
  | Invalidate
  | Lock_wait
  | Cond_wait
  | Barrier_wait
  | Join_wait
  | Future_wait
  | Async_invoke
  | Steal
  | Rebalance
  | Serve_request

let kind_name = function
  | Invoke_local -> "invoke.local"
  | Invoke_remote -> "invoke.remote"
  | Replica_read -> "invoke.replica"
  | Chase_hop -> "chase.hop"
  | Thread_flight -> "net.thread_flight"
  | Net_flight -> "net.flight"
  | Rpc_call -> "rpc.call"
  | Rpc_server -> "rpc.server"
  | Object_move -> "move.object"
  | Replica_install -> "coherence.install"
  | Invalidate -> "coherence.invalidate"
  | Lock_wait -> "wait.lock"
  | Cond_wait -> "wait.cond"
  | Barrier_wait -> "wait.barrier"
  | Join_wait -> "wait.join"
  | Future_wait -> "wait.future"
  | Async_invoke -> "invoke.async"
  | Steal -> "balance.steal"
  | Rebalance -> "balance.move"
  | Serve_request -> "serve.request"

type mark = {
  time : float;
  category : string;
  detail : string;
  node : int;
  cpu : int;
  tid : int;
  obj : int;
  span : int;
  parent : int;
}

type span = {
  id : int;
  parent : int;
  async : bool;
      (* detached from the parent's interval: a wire flight or a one-way
         message handler, causally linked but not temporally contained *)
  mutable kind : kind;
  label : string;
  tag : string;
      (* free-form attribute dimension (e.g. a request class); "" for the
         untagged default, so tag-free traces are unchanged *)
  node : int;
  tid : int;
  obj : int;
  mutable arg : int;
  t0 : float;
  mutable t1 : float;
}

type t = {
  clock : unit -> float;
  current_tid : unit -> int;
  current_node : unit -> int;
  current_cpu : unit -> int;
  mutable enabled : bool;
  mutable buf : span array;  (* spans in start order; ids are 1-based *)
  mutable n : int;
  mutable stacks : int list array;
      (* [stacks.(tid + 1)]: [tid]'s open span ids, innermost first.  Tids
         are dense within a cluster, and tid -1 is event context. *)
  mutable marking : bool;
  mutable rev_marks : mark list;  (* newest first *)
}

let dummy =
  {
    id = 0;
    parent = 0;
    async = false;
    kind = Invoke_local;
    label = "";
    tag = "";
    node = -1;
    tid = -1;
    obj = -1;
    arg = -1;
    t0 = 0.0;
    t1 = 0.0;
  }

let create ~clock ~current_tid ~current_node ~current_cpu () =
  {
    clock;
    current_tid;
    current_node;
    current_cpu;
    enabled = false;
    buf = [||];
    n = 0;
    stacks = Array.make 16 [];
    marking = false;
    rev_marks = [];
  }

let disabled_instance =
  lazy
    (create
       ~clock:(fun () -> 0.0)
       ~current_tid:(fun () -> -1)
       ~current_node:(fun () -> -1)
       ~current_cpu:(fun () -> -1)
       ())

let disabled () = Lazy.force disabled_instance
let set_enabled t flag = t.enabled <- flag
let enabled t = t.enabled
let set_marks t flag = t.marking <- flag
let marking t = t.marking

let stack t tid =
  let i = tid + 1 in
  if i >= 0 && i < Array.length t.stacks then t.stacks.(i) else []

let set_stack t tid st =
  let i = tid + 1 in
  let n = Array.length t.stacks in
  if i >= n then begin
    let bigger = Array.make (Int.max (2 * n) (i + 1)) [] in
    Array.blit t.stacks 0 bigger 0 n;
    t.stacks <- bigger
  end;
  t.stacks.(i) <- st

let find t id = if id >= 1 && id <= t.n then Some t.buf.(id - 1) else None

let append t s =
  if t.n >= Array.length t.buf then begin
    let cap = Stdlib.max 256 (2 * Array.length t.buf) in
    let bigger = Array.make cap dummy in
    Array.blit t.buf 0 bigger 0 t.n;
    t.buf <- bigger
  end;
  t.buf.(t.n) <- s;
  t.n <- t.n + 1

(* Append a span on [tid], parented to [parent] or else to [tid]'s
   innermost open span; [start] then pushes it, a flow span stays off the
   stack. *)
let open_span t kind ~label ~tag ~obj ~arg ~async ~tid ~parent =
  let parent =
    match parent with
    | Some p -> p
    | None -> ( match stack t tid with [] -> 0 | p :: _ -> p)
  in
  let id = t.n + 1 in
  append t
    {
      id;
      parent;
      async;
      kind;
      label;
      tag;
      node = t.current_node ();
      tid;
      obj;
      arg;
      t0 = t.clock ();
      t1 = -1.0;
    };
  id

let start t kind ?(label = "") ?(tag = "") ?(obj = -1) ?(arg = -1)
    ?(async = false) ?parent () =
  if not t.enabled then 0
  else begin
    let tid = t.current_tid () in
    let id = open_span t kind ~label ~tag ~obj ~arg ~async ~tid ~parent in
    set_stack t tid (id :: stack t tid);
    id
  end

let start_flow t kind ?(label = "") ?(tag = "") ?(obj = -1) ?(arg = -1) ?tid
    ?parent () =
  if not t.enabled then 0
  else
    let tid = match tid with Some v -> v | None -> t.current_tid () in
    open_span t kind ~label ~tag ~obj ~arg ~async:true ~tid ~parent

(* The stack below [id]; [Not_found] when [id] is not on it. *)
let rec below (id : int) = function
  | [] -> raise_notrace Not_found
  | x :: rest -> if x = id then rest else below id rest

let finish t id =
  if id >= 1 && id <= t.n then begin
    let s = t.buf.(id - 1) in
    if s.t1 < 0.0 then begin
      s.t1 <- t.clock ();
      (* Pop it (and anything opened above it that an exception unwound
         past) off its thread's stack; flow spans are never on a stack, so
         this is a no-op for them. *)
      match below id (stack t s.tid) with
      | rest -> set_stack t s.tid rest
      | exception Not_found -> ()
    end
  end

let set_kind t id kind =
  if id >= 1 && id <= t.n then t.buf.(id - 1).kind <- kind

let set_arg t id arg = if id >= 1 && id <= t.n then t.buf.(id - 1).arg <- arg

let with_span t kind ?label ?tag ?obj ?arg f =
  let id = start t kind ?label ?tag ?obj ?arg () in
  match f () with
  | v ->
      finish t id;
      v
  | exception e ->
      finish t id;
      raise e

(* Close every span still open on [tid]'s stack: a crash-killed thread
   never unwinds its own spans, so the recovery path retires them at the
   kill instant to keep traces balanced. *)
let finish_all_for t ~tid =
  match stack t tid with
  | [] -> ()
  | st ->
      List.iter
        (fun id ->
          match find t id with
          | Some s when s.t1 < 0.0 -> s.t1 <- t.clock ()
          | Some _ | None -> ())
        st;
      set_stack t tid []

let current t =
  if not t.enabled then 0
  else match stack t (t.current_tid ()) with p :: _ -> p | [] -> 0

let parent_of t id =
  if id >= 1 && id <= t.n then t.buf.(id - 1).parent else 0

(* Marks take no span id and never touch a stack, so span ids and every
   span export are the same whether marks are on or off. *)
let mark t ~category ?(obj = -1) ?at detail =
  if t.marking then begin
    let tid = t.current_tid () and span = current t in
    let time = match at with Some at -> at | None -> t.clock () in
    let detail = Lazy.force detail and node = t.current_node () in
    let cpu = t.current_cpu () and parent = parent_of t span in
    t.rev_marks <-
      { time; category; detail; node; cpu; tid; obj; span; parent }
      :: t.rev_marks
  end

let marks t = List.rev t.rev_marks

let pp_mark ppf (m : mark) =
  Format.fprintf ppf "[%.6f] %-8s %s" m.time m.category m.detail;
  let field name v = if v >= 0 then [ name ^ string_of_int v ] else [] in
  let who = field "n" m.node @ field "c" m.cpu @ field "t" m.tid in
  let sp = if m.span > 0 then field "s" m.span @ field "p" m.parent else [] in
  match who @ field "o" m.obj @ sp with
  | [] -> ()
  | ctx -> Format.fprintf ppf "  (%s)" (String.concat " " ctx)

let spans t =
  let out = ref [] in
  for i = t.n - 1 downto 0 do
    out := t.buf.(i) :: !out
  done;
  !out

let count t = t.n

let clear t =
  t.buf <- [||];
  t.n <- 0;
  Array.fill t.stacks 0 (Array.length t.stacks) [];
  t.rev_marks <- []
