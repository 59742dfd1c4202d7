(* Profiling benchmark: where does the parallel-DSE wall time go?

   For each workload of the nn zoo the pipeline runs up to (but
   excluding) the parallelization pass on freshly built IR; the
   per-node DSE then runs under an observation scope at jobs = 1, 2
   and 4 with no QoR store, and the profiling layer's counters
   decompose the wall time into named buckets:

     level_barrier_wait_ms    time pool slots sat at the end-of-level
                              barrier after running out of tasks
     candidate_eval_work_ms   aggregate candidate-evaluation (cost
                              scoring) time, a subset of node search
     node_search_work_ms      aggregate per-node search time across all
                              slots (includes candidate eval)
     other_ms                 jobs * wall - node search - barrier wait:
                              domain spawn/join overhead, the serial
                              prepare/merge phases and pool idle time

   plus p50/p99 candidate-evaluation latency.  Results are written to
   BENCH_profile.json; EXPERIMENTS.md reads the breakdown against the
   parallel-speedup numbers of BENCH_dse.json. *)

open Hida_ir
open Hida_core
open Hida_frontend

type spec = {
  w_name : string;
  w_path : [ `Nn | `Memref ];
  w_build : unit -> Ir.op;
}

let nn_spec (e : Models.entry) =
  {
    w_name = e.Models.e_name;
    w_path = `Nn;
    w_build = (fun () -> snd (e.Models.e_build ()));
  }

let memref_spec (e : Polybench.entry) =
  {
    w_name = e.Polybench.e_name;
    w_path = `Memref;
    w_build = (fun () -> snd (e.Polybench.e_build ()));
  }

(* Pipeline prefix up to the parallelization pass (mirrors [Driver]). *)
let prep spec =
  let f = spec.w_build () in
  Hida_dialects.Canonicalize.run f;
  Construct.run f;
  Fusion.run f;
  (match spec.w_path with
  | `Memref -> Lowering.lower_memref_func f
  | `Nn -> ignore (Lowering.lower_nn_func f));
  Multi_producer.run f;
  Balance.run f;
  f

(* Search-dominated setting, matching the DSE bench. *)
let max_pf = 256

type run_row = {
  p_jobs : int;
  p_wall_ms : float;
  p_barrier_wait_ms : float;
  p_candidate_eval_ms : float;
  p_node_search_ms : float;
  p_other_ms : float;
  p_eval_p50_ns : int;
  p_eval_p99_ns : int;
  p_eval_count : int;
  p_utilization : float; (* busy / (wall * slots) over parallel levels *)
  p_pool_tasks : int;
  p_pool_steals : int;
}

let ms_of_ns ns = float_of_int ns /. 1e6

let profile_run ~jobs spec =
  let f = prep spec in
  let pool0 = Domain_pool.stats () in
  let scope = Hida_obs.Scope.create () in
  let t0 = Unix.gettimeofday () in
  Hida_obs.Scope.with_scope scope (fun () ->
      ignore (Parallelize.run ~jobs ~max_parallel_factor:max_pf f));
  let wall_ms = 1000. *. (Unix.gettimeofday () -. t0) in
  let m = Hida_obs.Scope.metrics scope in
  let c name = Hida_obs.Metrics.counter m name in
  let node_search_ms = ms_of_ns (c "dse.node_search_total_ns") in
  let barrier_ms = ms_of_ns (c "dse.barrier_wait_total_ns") in
  let eval_p50, eval_p99, eval_count =
    match Hida_obs.Metrics.histogram m "dse.candidate_eval_ns" with
    | Some h ->
        ( Hida_obs.Histogram.percentile h 50.,
          Hida_obs.Histogram.percentile h 99.,
          Hida_obs.Histogram.count h )
    | None -> (0, 0, 0)
  in
  let busy = c "parallelize.pool.busy_ns"
  and slot_ns = c "parallelize.pool.slots_ns" in
  let pool1 = Domain_pool.stats () in
  {
    p_jobs = jobs;
    p_wall_ms = wall_ms;
    p_barrier_wait_ms = barrier_ms;
    p_candidate_eval_ms = ms_of_ns (c "dse.candidate_eval_total_ns");
    p_node_search_ms = node_search_ms;
    p_other_ms =
      Float.max 0.
        ((float_of_int jobs *. wall_ms) -. node_search_ms -. barrier_ms);
    p_eval_p50_ns = eval_p50;
    p_eval_p99_ns = eval_p99;
    p_eval_count = eval_count;
    p_utilization =
      (if slot_ns > 0 then float_of_int busy /. float_of_int slot_ns else 1.);
    p_pool_tasks = pool1.Domain_pool.st_tasks - pool0.Domain_pool.st_tasks;
    p_pool_steals = pool1.Domain_pool.st_steals - pool0.Domain_pool.st_steals;
  }

let json_of ~jobs_swept rows_by_workload =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf ("  " ^ Util.host_provenance_json () ^ ",\n");
  Buffer.add_string buf
    (Printf.sprintf "  \"max_parallel_factor\": %d,\n" max_pf);
  Buffer.add_string buf
    (Printf.sprintf "  \"jobs_swept\": [%s],\n"
       (String.concat ", " (List.map string_of_int jobs_swept)));
  Buffer.add_string buf "  \"workloads\": [\n";
  List.iteri
    (fun i (name, rows) ->
      Buffer.add_string buf (Printf.sprintf "    {\"name\": %S, \"runs\": [\n" name);
      List.iteri
        (fun j (r : run_row) ->
          Buffer.add_string buf
            (Printf.sprintf
               "      {\"jobs\": %d, \"wall_ms\": %.3f, \
                \"level_barrier_wait_ms\": %.3f, \
                \"candidate_eval_work_ms\": %.3f, \"node_search_work_ms\": \
                %.3f, \"other_ms\": %.3f, \"candidate_eval_p50_ns\": %d, \
                \"candidate_eval_p99_ns\": %d, \"candidate_evals\": %d, \
                \"pool_utilization\": %.3f, \"pool_tasks\": %d, \
                \"pool_steals\": %d}%s\n"
               r.p_jobs r.p_wall_ms r.p_barrier_wait_ms r.p_candidate_eval_ms
               r.p_node_search_ms r.p_other_ms r.p_eval_p50_ns r.p_eval_p99_ns
               r.p_eval_count r.p_utilization r.p_pool_tasks r.p_pool_steals
               (if j = List.length rows - 1 then "" else ",")))
        rows;
      Buffer.add_string buf
        (Printf.sprintf "    ]}%s\n"
           (if i = List.length rows_by_workload - 1 then "" else ","));
      ())
    rows_by_workload;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let run ?(smoke = false) ?quick () =
  ignore quick;
  Util.header
    (if smoke then "Profiling benchmark (smoke: one workload)"
     else "Profiling benchmark: parallel-DSE wall-time decomposition");
  let jobs_swept = if smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  let specs =
    if smoke then [ memref_spec (Polybench.by_name "3mm") ]
    else
      List.map (fun n -> nn_spec (Models.by_name n))
        [ "lenet"; "mobilenet"; "resnet18" ]
  in
  Printf.printf "%-12s %5s %9s %12s %10s %10s %8s\n" "workload" "jobs"
    "wall ms" "barrier ms" "search ms" "other ms" "util";
  let rows_by_workload =
    List.map
      (fun spec ->
        let rows =
          List.map
            (fun jobs ->
              let r = profile_run ~jobs spec in
              Printf.printf "%-12s %5d %9.2f %12.2f %10.2f %10.2f %7.1f%%\n"
                spec.w_name r.p_jobs r.p_wall_ms r.p_barrier_wait_ms r.p_node_search_ms r.p_other_ms
                (100. *. r.p_utilization);
              r)
            jobs_swept
        in
        (spec.w_name, rows))
      specs
  in
  let json = json_of ~jobs_swept rows_by_workload in
  let path = Util.write_bench_json ~smoke "BENCH_profile.json" json in
  print_endline ("\nwritten to " ^ path)
