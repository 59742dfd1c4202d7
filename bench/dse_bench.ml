(* DSE benchmark: cold / warm / parallel timing of the per-node
   design-space exploration.

   For every workload the pipeline is run up to (but excluding) the
   parallelization pass on freshly built IR; the timed section is then
   exactly [Parallelize.run] (per-node DSE) followed by
   [Qor.estimate_func]:

     cold      jobs=1, no QoR store
     warm      jobs=1, one QoR store populated before the first rep and
               reused across reps, on a freshly rebuilt
               (byte-identical) IR: hits skip whole searches and node
               estimates
     parallel  jobs=N (N = recommended domain count), no QoR store

   Results are written to BENCH_dse.json (per-workload milliseconds,
   speedups, warm-run store counters, geomeans over the set). *)

open Hida_ir
open Hida_estimator
open Hida_core
open Hida_frontend

type spec = {
  w_name : string;
  w_path : [ `Nn | `Memref ];
  w_build : unit -> Ir.op;
}

let memref_spec (e : Polybench.entry) =
  {
    w_name = e.Polybench.e_name;
    w_path = `Memref;
    w_build = (fun () -> snd (e.Polybench.e_build ()));
  }

let memref_extra_spec (e : Polybench_extra.entry) =
  {
    w_name = e.Polybench_extra.e_name;
    w_path = `Memref;
    w_build = (fun () -> snd (e.Polybench_extra.e_build ()));
  }

let nn_spec (e : Models.entry) =
  {
    w_name = e.Models.e_name;
    w_path = `Nn;
    w_build = (fun () -> snd (e.Models.e_build ()));
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

let device_of = function `Memref -> Device.zu3eg | `Nn -> Device.vu9p_slr

(* A large parallel factor makes the timed section search-dominated
   (the divisor lattice grows with the factor), which is what this bench
   is about; the compile benches cover the pf=32 default. *)
let max_pf = 256

let dse_once ?store ~jobs device f =
  ignore (Parallelize.run ~jobs ?store ~max_parallel_factor:max_pf f);
  ignore
    (Qor.estimate_func ?memo:(Option.map Qor_cache.node_memo store) device f)

let time_ms f =
  let t0 = Unix.gettimeofday () in
  f ();
  1000. *. (Unix.gettimeofday () -. t0)

let min_over n f =
  let rec go best k = if k = 0 then best else go (min best (f ())) (k - 1) in
  go (f ()) (n - 1)

type row = {
  b_name : string;
  b_path : string;
  b_cold_ms : float;
  b_warm_ms : float;
  b_parallel_ms : float;
  b_hits : int;
  b_misses : int;
  b_pool_tasks : int;
  b_pool_steals : int;
}

let bench_workload ~reps ~par_jobs spec =
  let device = device_of spec.w_path in
  (* Cold: no store, sequential. *)
  let cold_ms =
    min_over reps (fun () ->
        let f = prep spec in
        time_ms (fun () -> dse_once ~jobs:1 device f))
  in
  (* Populate one store so every warm rep starts fully cached. *)
  let store = Blob_store.create () in
  dse_once ~store ~jobs:1 device (prep spec);
  let s0 = Blob_store.stats store in
  let warm_ms =
    min_over reps (fun () ->
        let f = prep spec in
        time_ms (fun () -> dse_once ~store ~jobs:1 device f))
  in
  let s1 = Blob_store.stats store in
  (* Parallel: no store, the shared work-stealing pool.  Pool counters
     are process-cumulative, so record the delta over the parallel reps
     (per-rep average, like the store counters). *)
  let p0 = Domain_pool.stats () in
  let parallel_ms =
    min_over reps (fun () ->
        let f = prep spec in
        time_ms (fun () -> dse_once ~jobs:par_jobs device f))
  in
  let p1 = Domain_pool.stats () in
  {
    b_name = spec.w_name;
    b_path = (match spec.w_path with `Memref -> "memref" | `Nn -> "nn");
    b_cold_ms = cold_ms;
    b_warm_ms = warm_ms;
    b_parallel_ms = parallel_ms;
    b_hits = (s1.Blob_store.s_hits - s0.Blob_store.s_hits) / reps;
    b_misses = (s1.Blob_store.s_misses - s0.Blob_store.s_misses) / reps;
    b_pool_tasks = (p1.Domain_pool.st_tasks - p0.Domain_pool.st_tasks) / reps;
    b_pool_steals =
      (p1.Domain_pool.st_steals - p0.Domain_pool.st_steals) / reps;
  }

let json_of_rows ~par_jobs ~reps rows =
  let buf = Buffer.create 4096 in
  let speedup cold t = if t > 0. then cold /. t else nan in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf ("  " ^ Util.host_provenance_json () ^ ",\n");
  Buffer.add_string buf (Printf.sprintf "  \"max_parallel_factor\": %d,\n" max_pf);
  Buffer.add_string buf (Printf.sprintf "  \"parallel_jobs\": %d,\n" par_jobs);
  Buffer.add_string buf (Printf.sprintf "  \"reps\": %d,\n" reps);
  Buffer.add_string buf "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"path\": %S, \"cold_ms\": %.3f, \"warm_ms\": \
            %.3f, \"parallel_ms\": %.3f, \"warm_speedup\": %.2f, \
            \"parallel_speedup\": %.2f, \"warm_cache_hits\": %d, \
            \"warm_cache_misses\": %d, \"pool_tasks\": %d, \"pool_steals\": \
            %d}%s\n"
           r.b_name r.b_path r.b_cold_ms r.b_warm_ms r.b_parallel_ms
           (speedup r.b_cold_ms r.b_warm_ms)
           (speedup r.b_cold_ms r.b_parallel_ms)
           r.b_hits r.b_misses r.b_pool_tasks r.b_pool_steals
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  let warm = List.map (fun r -> speedup r.b_cold_ms r.b_warm_ms) rows in
  let par = List.map (fun r -> speedup r.b_cold_ms r.b_parallel_ms) rows in
  Buffer.add_string buf
    (Printf.sprintf "  \"geomean_warm_speedup\": %.2f,\n" (Util.geomean warm));
  Buffer.add_string buf
    (Printf.sprintf "  \"geomean_parallel_speedup\": %.2f\n" (Util.geomean par));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let run ?(smoke = false) ?(quick = false) () =
  Util.header
    (if smoke then "DSE benchmark (smoke: one workload)"
     else "DSE benchmark: cold / warm / parallel per-node exploration");
  let reps = if smoke then 1 else 3 in
  let par_jobs = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let specs =
    if smoke then [ memref_spec (Polybench.by_name "2mm") ]
    else if quick then
      List.map
        (fun n -> memref_spec (Polybench.by_name n))
        [ "2mm"; "3mm"; "atax"; "bicg"; "gesummv" ]
      @ [ nn_spec (Models.by_name "lenet") ]
    else
      List.map memref_spec Polybench.all
      @ List.map memref_extra_spec Polybench_extra.all
      @ List.map (fun n -> nn_spec (Models.by_name n))
          [ "lenet"; "mobilenet"; "resnet18" ]
  in
  Printf.printf "%-14s %-7s %10s %10s %10s %7s %7s\n" "workload" "path"
    "cold ms" "warm ms" "par ms" "warm x" "par x";
  let rows =
    List.map
      (fun spec ->
        let r = bench_workload ~reps ~par_jobs spec in
        Printf.printf "%-14s %-7s %10.2f %10.2f %10.2f %7.2f %7.2f\n" r.b_name
          r.b_path r.b_cold_ms r.b_warm_ms r.b_parallel_ms
          (r.b_cold_ms /. r.b_warm_ms)
          (r.b_cold_ms /. r.b_parallel_ms);
        r)
      specs
  in
  let json = json_of_rows ~par_jobs ~reps rows in
  let path = Util.write_bench_json ~smoke "BENCH_dse.json" json in
  Printf.printf "\ngeomeans: warm %.2fx, parallel(%d jobs) %.2fx — written to %s\n"
    (Util.geomean (List.map (fun r -> r.b_cold_ms /. r.b_warm_ms) rows))
    par_jobs
    (Util.geomean (List.map (fun r -> r.b_cold_ms /. r.b_parallel_ms) rows))
    path
