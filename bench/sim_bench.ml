(* Simulator-throughput benchmark: the dense reference core vs the
   compiled-step core at sustained frame counts, plus a
   replicated-accelerator serving scenario.

   Per workload (nn zoo on the VU9P SLR, PolyBench kernels on the
   ZU3EG; each compiled once through the full pipeline, then the
   schedule's simulator graph extracted):

     dense     Sim.run_dense — hashtable edge walks, O(nodes x frames)
               matrices, always traced (the pre-compiled-step core)
     compiled  Sim.run with tracing off — flattened edges + ring
               buffers, O(nodes x depth) memory

   both at [frames] frames, reported as simulated frames per wall
   second (min over reps).  Every workload's compiled-step results are
   checked identical to the dense core's (totals, steady interval,
   first-frame latency, busy fractions, inter-frame histogram, and the
   full trace at a traced frame count).

   The replica scenario instantiates N copies of one schedule behind a
   shared batch arrival stream arriving faster than a single replica
   drains, and reports aggregate frames/kilocycle plus p50/p99 sojourn
   latency — the sustained-serving shape of the ROADMAP item.  Results
   land in BENCH_sim.json. *)

open Hida_ir
open Ir
open Hida_dialects
open Hida_estimator
open Hida_core
open Hida_frontend
open Hida_hlssim

type spec = { w_name : string; w_path : string }

let nn n = { w_name = n; w_path = "nn" }
let kernel n = { w_name = n; w_path = "memref" }

let time_s f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* Compile the workload and extract the simulator graph of its dataflow
   schedule.  A modest parallel factor keeps the (untimed) compile
   cheap; the simulated graph shape is what the bench exercises. *)
let graph_of spec =
  let opts = { Driver.default with Driver.max_parallel_factor = 4 } in
  let device, f =
    match spec.w_path with
    | "nn" ->
        let _m, f = (Models.by_name spec.w_name).Models.e_build () in
        ignore (Driver.run_nn ~opts ~device:Device.vu9p_slr f);
        (Device.vu9p_slr, f)
    | _ ->
        let _m, f = (Polybench.by_name spec.w_name).Polybench.e_build () in
        ignore (Driver.run_memref ~opts ~device:Device.zu3eg f);
        (Device.zu3eg, f)
  in
  match Walk.collect f ~pred:Hida_d.is_schedule with
  | sched :: _ -> Some (Sim_ir.of_schedule device sched)
  | [] -> None

let hist_equal a b =
  Hida_obs.Histogram.count a = Hida_obs.Histogram.count b
  && Hida_obs.Histogram.sum a = Hida_obs.Histogram.sum b
  && Hida_obs.Histogram.max_value a = Hida_obs.Histogram.max_value b
  && Hida_obs.Histogram.min_value a = Hida_obs.Histogram.min_value b
  && Hida_obs.Histogram.buckets a = Hida_obs.Histogram.buckets b

(* Dense and compiled cores must agree bit for bit: summary results at
   the sustained frame count, and full traces at a traced one. *)
let cores_identical ~frames nodes buffers =
  let d = Sim.run_dense ~frames nodes buffers in
  let c = Sim.run ~frames ~trace:false nodes buffers in
  let summary_ok =
    d.Sim.r_total_cycles = c.Sim.r_total_cycles
    && d.Sim.r_steady_interval = c.Sim.r_steady_interval
    && d.Sim.r_first_frame_latency = c.Sim.r_first_frame_latency
    && d.Sim.r_node_busy = c.Sim.r_node_busy
    && hist_equal d.Sim.r_interframe c.Sim.r_interframe
  in
  let dt = Sim.run_dense ~frames:64 nodes buffers in
  let ct = Sim.run ~frames:64 ~trace:true nodes buffers in
  summary_ok && dt.Sim.r_trace = ct.Sim.r_trace

type row = {
  b_name : string;
  b_path : string;
  b_nodes : int;
  b_dense_fps : float;
  b_compiled_fps : float;
  b_identical : bool;
  b_p50 : int;
  b_p90 : int;
  b_p99 : int;
}

let bench_workload ~frames ~reps spec =
  match graph_of spec with
  | None -> None
  | Some (nodes, buffers) ->
      let best f =
        List.fold_left min infinity (List.init reps (fun _ -> fst (time_s f)))
      in
      let dense_s = best (fun () -> ignore (Sim.run_dense ~frames nodes buffers)) in
      (* The compiled-step time includes [Sim.compile] every rep: the
         honest cold-call comparison. *)
      let compiled_s =
        best (fun () -> ignore (Sim.run ~frames ~trace:false nodes buffers))
      in
      let r = Sim.run ~frames ~trace:false nodes buffers in
      let h = r.Sim.r_interframe in
      Some
        {
          b_name = spec.w_name;
          b_path = spec.w_path;
          b_nodes = List.length nodes;
          b_dense_fps = float_of_int frames /. dense_s;
          b_compiled_fps = float_of_int frames /. compiled_s;
          b_identical = cores_identical ~frames nodes buffers;
          b_p50 = Hida_obs.Histogram.percentile h 50.;
          b_p90 = Hida_obs.Histogram.percentile h 90.;
          b_p99 = Hida_obs.Histogram.percentile h 99.;
        }

type replica_row = {
  p_replicas : int;
  p_fpk : float;
  p_p50 : int;
  p_p99 : int;
  p_total : int;
}

(* Replica scaling: a stream arriving 4x faster than one replica drains
   saturates 1-2 replicas (throughput-bound) and is drained by 4+
   (arrival-bound, sojourn collapses to the pipeline latency). *)
let bench_replicas ~frames spec =
  match graph_of spec with
  | None -> ([], 0)
  | Some (nodes, buffers) ->
      let c = Sim.compile nodes buffers in
      let single = Sim.run_compiled ~frames:256 ~trace:false c in
      let interval =
        max 1 (int_of_float single.Sim.r_steady_interval / 4)
      in
      ( List.map
          (fun replicas ->
            let rep =
              Sim_farm.simulate ~replicas ~frames ~arrival_interval:interval c
            in
            {
              p_replicas = replicas;
              p_fpk = rep.Sim_farm.fr_frames_per_kcycle;
              p_p50 = Hida_obs.Histogram.percentile rep.Sim_farm.fr_latency 50.;
              p_p99 = Hida_obs.Histogram.percentile rep.Sim_farm.fr_latency 99.;
              p_total = rep.Sim_farm.fr_total_cycles;
            })
          [ 1; 2; 4; 8 ],
        interval )

let run ?(smoke = false) ?(quick = false) () =
  ignore quick;
  Util.header
    (if smoke then "Simulator throughput (smoke: reduced zoo and frames)"
     else "Simulator throughput: dense core vs compiled-step core");
  let frames = if smoke then 256 else 2048 in
  let reps = if smoke then 1 else 3 in
  let nn_zoo =
    if smoke then [ nn "lenet" ]
    else List.map (fun (e : Models.entry) -> nn e.Models.e_name) Models.all
  in
  let kernel_zoo =
    if smoke then [ kernel "2mm" ]
    else
      List.filter_map
        (fun (e : Polybench.entry) ->
          if e.Polybench.e_multi_loop then Some (kernel e.Polybench.e_name)
          else None)
        Polybench.all
  in
  let rows =
    List.filter_map (bench_workload ~frames ~reps) (nn_zoo @ kernel_zoo)
  in
  Printf.printf "%-14s %-7s %6s %14s %14s %8s %6s %8s %8s\n" "workload" "path"
    "nodes" "dense f/s" "compiled f/s" "speedup" "ident" "gap p50" "gap p99";
  List.iter
    (fun r ->
      Printf.printf "%-14s %-7s %6d %14.0f %14.0f %7.2fx %6b %8d %8d\n"
        r.b_name r.b_path r.b_nodes r.b_dense_fps r.b_compiled_fps
        (r.b_compiled_fps /. r.b_dense_fps)
        r.b_identical r.b_p50 r.b_p99)
    rows;
  let speedups path =
    List.filter_map
      (fun r ->
        if path = "" || r.b_path = path then
          Some (r.b_compiled_fps /. r.b_dense_fps)
        else None)
      rows
  in
  let geo_all = Util.geomean (speedups "") in
  let geo_nn = Util.geomean (speedups "nn") in
  Printf.printf "geomean speedup: %.2fx (nn zoo %.2fx) at %d frames\n" geo_all
    geo_nn frames;
  let all_identical = List.for_all (fun r -> r.b_identical) rows in
  if not all_identical then
    failwith "sim bench: compiled-step core diverged from the dense core";
  let replica_workload = if smoke then "lenet" else "resnet18" in
  let replica_frames = if smoke then 128 else 2048 in
  let replica_rows, arrival_interval =
    bench_replicas ~frames:replica_frames (nn replica_workload)
  in
  Util.subheader
    (Printf.sprintf
       "Replica scaling: %s, %d frames arriving every %d cycles"
       replica_workload replica_frames arrival_interval);
  Printf.printf "%-9s %16s %14s %14s %14s\n" "replicas" "frames/kcycle"
    "sojourn p50" "sojourn p99" "total cycles";
  List.iter
    (fun p ->
      Printf.printf "%-9d %16.6f %14d %14d %14d\n" p.p_replicas p.p_fpk p.p_p50
        p.p_p99 p.p_total)
    replica_rows;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf ("  " ^ Util.host_provenance_json () ^ ",\n");
  Buffer.add_string buf (Printf.sprintf "  \"frames\": %d,\n" frames);
  Buffer.add_string buf (Printf.sprintf "  \"reps\": %d,\n" reps);
  Buffer.add_string buf "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"path\": %S, \"nodes\": %d, \"dense_fps\": \
            %.1f, \"compiled_fps\": %.1f, \"speedup\": %.2f, \"identical\": \
            %b, \"interframe_p50\": %d, \"interframe_p90\": %d, \
            \"interframe_p99\": %d}%s\n"
           r.b_name r.b_path r.b_nodes r.b_dense_fps r.b_compiled_fps
           (r.b_compiled_fps /. r.b_dense_fps)
           r.b_identical r.b_p50 r.b_p90 r.b_p99
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"geomean_speedup\": %.2f,\n" geo_all);
  Buffer.add_string buf
    (Printf.sprintf "  \"geomean_speedup_nn\": %.2f,\n" geo_nn);
  Buffer.add_string buf
    (Printf.sprintf "  \"all_identical\": %b,\n" all_identical);
  Buffer.add_string buf
    (Printf.sprintf "  \"replica_workload\": %S,\n" replica_workload);
  Buffer.add_string buf
    (Printf.sprintf "  \"replica_frames\": %d,\n" replica_frames);
  Buffer.add_string buf
    (Printf.sprintf "  \"replica_arrival_interval\": %d,\n" arrival_interval);
  Buffer.add_string buf "  \"replicas\": [\n";
  List.iteri
    (fun i p ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"replicas\": %d, \"frames_per_kcycle\": %.6f, \
            \"latency_p50\": %d, \"latency_p99\": %d, \"total_cycles\": %d}%s\n"
           p.p_replicas p.p_fpk p.p_p50 p.p_p99 p.p_total
           (if i = List.length replica_rows - 1 then "" else ",")))
    replica_rows;
  Buffer.add_string buf "  ]\n";
  Buffer.add_string buf "}\n";
  let path = Util.write_bench_json ~smoke "BENCH_sim.json" (Buffer.contents buf) in
  Printf.printf
    "\ncompiled-step %.2fx geomean (%d frames, %d workloads) — written to %s\n"
    geo_all frames (List.length rows) path
