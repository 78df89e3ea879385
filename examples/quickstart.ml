(* Quickstart: the Amber programming model in one page.

   A 4-node × 2-CPU cluster; a shared counter object that we place
   explicitly; threads that invoke it from everywhere; a mobile lock.

   Run with:  dune exec examples/quickstart.exe *)

open Amber

let () =
  let cfg = Api.config ~nodes:4 ~cpus:2 () in
  let (), report =
    Api.run cfg (fun rt ->
        (* Objects are created on the calling thread's node (node 0)... *)
        let counter = Api.create rt ~name:"counter" ~size:64 (ref 0) in
        Printf.printf "counter created on node %d\n" (Api.locate rt counter);

        (* ... and placed explicitly: data placement is program-controlled. *)
        Api.move_to rt counter ~dest:2;
        Printf.printf "counter moved to node %d\n" (Api.locate rt counter);

        (* A mobile lock guards it (locks are objects too). *)
        let lock = Sync.Lock.create rt ~name:"counter-lock" () in
        Sync.Lock.move rt lock ~dest:2;

        (* Threads: Start/Join.  Invoking the counter ships the thread to
           node 2 (function shipping); it stays there for the follow-up
           invocations, so only the first one pays the network. *)
        let workers =
          List.init 8 (fun i ->
              Api.start rt ~name:(Printf.sprintf "worker-%d" i) (fun () ->
                  for _ = 1 to 25 do
                    Sync.Lock.with_lock rt lock (fun () ->
                        Api.invoke rt counter (fun c -> incr c))
                  done))
        in
        List.iter (fun t -> Api.join rt t) workers;

        let total = Api.invoke rt counter (fun c -> !c) in
        Printf.printf "final count: %d (expected 200)\n" total;
        Printf.printf "virtual time elapsed: %.3f ms\n" (Api.now rt *. 1e3))
  in
  Format.printf "run report:@.%a" Stats_report.pp report.Cluster.stats
