(* The repository benchmark: one seeded, closed-loop, single-client run
   of one workload, ending in a JSON summary line.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   --compile-exe PATH --serve-exe PATH

   [perfbench/run.py] builds the binaries and supplies the two paths.
   With [--trace 0] the summary carries the end-to-end metrics, with
   [--trace 1] the per-layer ones.  See perfbench/README.md. *)

open Wl

let workloads =
  [
    ("compile-cold", Compile_cold.run);
    ("edit-incr", Edit_incr.run);
    ("serve-mix", Serve_mix.run);
  ]

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_ms_p50", "ms");
    ("op_ms_p90", "ms");
    ("alloc_mb_per_op", "MB");
    ("peak_rss_mb", "MB");
    ("qor_throughput_geomean", "samples/s");
    ("qor_dsp_eff_geomean", "%");
    ("sim_est_gap", "x");
    ("ok_frac", "fraction");
  ]

let per_layer =
  List.map (fun l -> ("pass." ^ l ^ "_ms", "ms")) (List.map fst Compile_cold.pass_layers @ [ "other" ])
  @ [
      ("frontend.build_ms", "ms");
      ("estimator.finish_ms", "ms");
      ("estimator.cache_lookups", "count");
      ("estimator.cache_hit_ratio", "fraction");
      ("emitter.cpp_ms", "ms");
      ("emitter.cpp_kb", "KB");
      ("ir.print_ms", "ms");
      ("ir.design_kb", "KB");
      ("ir.design_ops", "count");
      ("incr.store_load_ms", "ms");
      ("incr.store_save_ms", "ms");
      ("incr.store_mb", "MB");
      ("incr.store_entries", "count");
      ("text.parse_ms", "ms");
      ("text.input_kb", "KB");
      ("incr.subtree_hit_ratio", "fraction");
      ("incr.compile_ms", "ms");
      ("serve.server_ms_hit", "ms");
      ("serve.server_ms_miss", "ms");
      ("serve.client_ms_hit", "ms");
      ("serve.codec_ms", "ms");
      ("serve.reply_kb", "KB");
      ("serve.hit_ratio", "fraction");
      ("serve.store_mb", "MB");
      ("serve.store_evictions", "count");
      ("sim.graph_compile_ms", "ms");
      ("sim.run_ns_per_node_frame", "ns");
      ("sim.farm_ns_per_node_frame", "ns");
      ("sim.host_frames_per_s", "1/s");
      ("sim.nodes", "count");
      ("sim.frames", "count");
      ("trace_overhead", "x");
    ]

let min_ops = 100

(* End-to-end figures of an untraced run, plus the reasons (if any) the
   run cannot be trusted.  Smoke runs are too small for the percentile
   band check. *)
let end_to_end_values p o =
  let n = Array.length o.ops in
  let ms = Array.to_list (Array.map fst o.ops) in
  let problems = ref [] in
  if n < min_ops then
    problems := Printf.sprintf "only %d timed ops (the p90 needs %d)" n min_ops :: !problems;
  let pct q =
    (match Pb.percentile_in_band ~what:"op latency" o.ops q with
    | Error e when not p.smoke -> problems := e :: !problems
    | _ -> ());
    Pb.percentile_sorted (Pb.sorted ms) q
  in
  let positive what l =
    match List.filter (fun v -> v > 0.) l with
    | [] ->
        problems := ("no positive " ^ what) :: !problems;
        nan
    | l -> Pb.geomean l
  in
  let values =
    [
      ("setup_s", Pb.median o.setup_s);
      ("ops_per_s", 1000. *. float_of_int n /. Pb.sum ms);
      ("op_ms_p50", pct 50.);
      ("op_ms_p90", pct 90.);
      ("alloc_mb_per_op", o.alloc_words *. 8. /. 1e6 /. float_of_int n);
      ("peak_rss_mb", float_of_int o.peak_rss_kb /. 1024.);
      ("qor_throughput_geomean", positive "design throughput" (List.map fst o.qor));
      ("qor_dsp_eff_geomean", 100. *. positive "DSP efficiency" (List.map snd o.qor));
      ("sim_est_gap", positive "sim/estimate gap" o.gaps);
      ( "ok_frac",
        float_of_int (o.attempted - o.failed) /. float_of_int (max 1 o.attempted) );
    ]
  in
  (values, List.rev !problems)

let per_layer_values ~workload o =
  let untraced = Array.to_list (Array.map fst o.ops) in
  let overhead =
    (* untraced ops/s over traced ops/s, from the same op multiset *)
    if o.traced_ms = [] then 1.
    else
      (Pb.sum o.traced_ms /. float_of_int (List.length o.traced_ms))
      /. (Pb.sum untraced /. float_of_int (List.length untraced))
  in
  let measured = ("trace_overhead", overhead) :: o.layers in
  List.map
    (fun (name, _) ->
      match List.assoc_opt name measured with
      | Some v -> (name, v)
      | None ->
          let why =
            match List.assoc_opt name o.absent with
            | Some why -> why
            | None -> "the layer is not exercised by " ^ workload
          in
          Pb.note "%s: %s absent (%s); reported as 0" workload name why;
          (name, 0.))
    per_layer

let json_number v = Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let units = end_to_end @ per_layer in
  let body =
    String.concat ", "
      (List.map
         (fun (name, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v)
             (List.assoc name units))
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let run_workload ~workload p =
  let f =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None ->
        Pb.fail "unknown workload %s (one of: %s)" workload
          (String.concat ", " (List.map fst workloads))
  in
  Pb.Trace.on := p.traced;
  let o = f p in
  let metrics, problems =
    if p.traced then (per_layer_values ~workload o, [])
    else end_to_end_values p o
  in
  List.iter (fun e -> Pb.note "%s: %s" workload e) problems;
  if o.failed > 0 then Pb.note "%s: %d of %d ops failed their checks" workload o.failed o.attempted;
  let bad = List.filter (fun (_, v) -> not (Float.is_finite v)) metrics in
  List.iter (fun (n, _) -> Pb.note "%s: %s is not a finite number" workload n) bad;
  let units = end_to_end @ per_layer in
  List.iter
    (fun (name, v) -> Printf.printf "%-28s %16.6g %s\n" name v (List.assoc name units))
    metrics;
  if bad <> [] then exit 1;
  print_result
    ~correct:(o.failed = 0 && problems = [])
    ~attempted:o.attempted ~failed:o.failed metrics

let () =
  let t_main = Pb.now_ns () in
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let smoke = ref false in
  let compile_exe = ref "" and serve_exe = ref "" and selftest = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed that orders the ops");
      ("--seconds", Arg.Set_int seconds, "S intended length of the timed part");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke, " minimal inputs (the benchmark's own tests)");
      ("--compile-exe", Arg.Set_string compile_exe, "PATH hida_compile executable");
      ("--serve-exe", Arg.Set_string serve_exe, "PATH hida_serve_cli executable");
      ("--selftest", Arg.Set_string selftest, "BENCHMARK.json smoke-run every workload and check its metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1 --compile-exe P --serve-exe P";
  let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  if !selftest <> "" then exit (Selftest.run ~spec:!selftest ~self:(absolute Sys.executable_name)
                                  ~compile_exe:!compile_exe ~serve_exe:!serve_exe);
  if !compile_exe = "" || !serve_exe = "" then Pb.fail "--compile-exe and --serve-exe are required";
  if !trace <> 0 && !trace <> 1 then Pb.fail "--trace takes 0 or 1";
  Pb.open_scratch ();
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  let p =
    {
      seed = !seed;
      seconds = max 1 !seconds;
      traced = !trace = 1;
      smoke = !smoke;
      compile_exe = absolute !compile_exe;
      serve_exe = absolute !serve_exe;
      t_main;
    }
  in
  run_workload ~workload:!workload p
