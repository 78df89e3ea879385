(* A three-stage pipeline across the cluster, built from monitors and
   condition variables (§2.2): producers on node 0 parse records, a
   bounded buffer hands them to transformers on node 1, a second buffer
   feeds a writer on node 2.

   The bounded buffer is a single Amber object guarded by a monitor; its
   threads block *at the buffer's node* when it is full/empty, and the
   buffers are explicitly placed to put each stage's data next to its
   consumers.

   Run with:  dune exec examples/pipeline.exe *)

open Amber

type 'a buffer = {
  capacity : int;
  items : 'a Queue.t;
  monitor : Sync.Monitor.t;
  not_full : Sync.Condition.t;
  not_empty : Sync.Condition.t;
}

let make_buffer rt ~capacity ~node =
  let monitor = Sync.Monitor.create rt ~name:"buf.monitor" () in
  let buf =
    {
      capacity;
      items = Queue.create ();
      monitor;
      not_full = Sync.Monitor.new_condition rt monitor;
      not_empty = Sync.Monitor.new_condition rt monitor;
    }
  in
  (* Place the buffer's synchronization next to its consumer: waiting
     threads then block on the consumer's node. *)
  Sync.Monitor.move rt buf.monitor ~dest:node;
  Sync.Condition.move rt buf.not_full ~dest:node;
  Sync.Condition.move rt buf.not_empty ~dest:node;
  buf

let put rt b x =
  Sync.Monitor.with_monitor rt b.monitor (fun () ->
      while Queue.length b.items >= b.capacity do
        Sync.Monitor.wait rt b.monitor b.not_full
      done;
      Queue.add x b.items;
      Sync.Monitor.signal rt b.not_empty)

let take rt b =
  Sync.Monitor.with_monitor rt b.monitor (fun () ->
      while Queue.is_empty b.items do
        Sync.Monitor.wait rt b.monitor b.not_empty
      done;
      let x = Queue.pop b.items in
      Sync.Monitor.signal rt b.not_full;
      x)

let () =
  let records = 40 in
  let cfg = Api.config ~nodes:3 ~cpus:2 () in
  let written, report =
    Api.run cfg (fun rt ->
        let parsed = make_buffer rt ~capacity:4 ~node:1 in
        let transformed = make_buffer rt ~capacity:4 ~node:2 in
        (* Anchors pin each stage's computation to its node. *)
        let anchor node =
          let a = Api.create rt ~name:(Printf.sprintf "stage%d" node) () in
          if node <> 0 then Api.move_to rt a ~dest:node;
          a
        in
        let parser_anchor = anchor 0
        and transform_anchor = anchor 1
        and writer_anchor = anchor 2 in
        let producer =
          Api.start_invoke rt ~name:"parser" parser_anchor (fun () ->
              for i = 1 to records do
                Sim.Fiber.consume 2e-3 (* parse *);
                put rt parsed i
              done;
              put rt parsed (-1) (* end marker *))
        in
        let transformer =
          Api.start_invoke rt ~name:"transformer" transform_anchor (fun () ->
              let rec loop () =
                let x = take rt parsed in
                if x >= 0 then begin
                  Sim.Fiber.consume 3e-3 (* transform *);
                  put rt transformed (x * x);
                  loop ()
                end
                else put rt transformed (-1)
              in
              loop ())
        in
        let writer =
          Api.start_invoke rt ~name:"writer" writer_anchor (fun () ->
              let count = ref 0 and sum = ref 0 in
              let rec loop () =
                let x = take rt transformed in
                if x >= 0 then begin
                  Sim.Fiber.consume 1e-3 (* write *);
                  incr count;
                  sum := !sum + x;
                  loop ()
                end
              in
              loop ();
              (!count, !sum))
        in
        Api.join rt producer;
        Api.join rt transformer;
        Api.join rt writer)
  in
  let count, sum = written in
  Printf.printf "pipeline wrote %d records (checksum %d, expected %d)\n" count
    sum
    (List.fold_left (fun acc i -> acc + (i * i)) 0 (List.init records succ));
  Printf.printf "virtual time: %.3f s; %d remote invocations\n"
    report.Cluster.elapsed
    (int_of_float
       (Stats_report.get report.Cluster.stats "amber.invoke.remote"))
