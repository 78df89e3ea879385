(* A distributed work queue: one hot shared object, workers on every node
   pulling batches through remote invocations, and a mid-run re-placement
   of the queue object while threads are actively invoking it.

   Run with:  dune exec examples/work_queue_demo.exe *)

let () =
  let cluster = Amber.Config.make ~nodes:4 ~cpus:4 () in
  let cfg =
    {
      Workloads.Work_queue.items = 400;
      work_cpu = 10e-3;
      batch = 8;
      workers_per_node = 3;
      move_queue_at = Some 150;
    }
  in
  let r, report =
    Amber.Cluster.run cluster (fun rt -> Workloads.Work_queue.run rt cfg)
  in
  Printf.printf "processed %d/%d items in %.3f virtual seconds\n"
    r.Workloads.Work_queue.processed cfg.Workloads.Work_queue.items
    r.Workloads.Work_queue.elapsed;
  Array.iteri
    (fun node count -> Printf.printf "  node %d processed %d items\n" node count)
    r.Workloads.Work_queue.per_node;
  Printf.printf
    "queue finished on node %d (moved mid-run from node 0 while %d threads \
     were hammering it)\n"
    r.Workloads.Work_queue.queue_final_node
    (4 * cfg.Workloads.Work_queue.workers_per_node);
  Format.printf "%a" Amber.Stats_report.pp report.Amber.Cluster.stats
