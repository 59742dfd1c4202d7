(* hida-compile: command-line front door to the compiler.

   Compiles a named workload (a PyTorch-style model from the zoo or a
   PolyBench C++ kernel) through the full HIDA pipeline, reports the QoR
   estimate and the cycle-level simulation, and optionally dumps the
   optimized IR or the emitted HLS C++. *)

open Cmdliner
open Hida_ir
open Ir
open Hida_dialects
open Hida_estimator
open Hida_core
open Hida_frontend

(* [@file.mlir] workloads: the file is read once up front (see
   [read_file_workload]) and the textual IR parsed once here; the
   builder hands out a deep clone per call ([fit] compiles repeatedly
   and the pipeline mutates the IR in place).  Cloning is a structural
   copy, far cheaper than re-lexing and re-verifying every iteration. *)
let build_ir_text_workload ~filename text =
  let m0 =
    match Hida_text.Parser.parse_string ~filename text with
    | Error d ->
        prerr_endline ("hida-compile: " ^ Hida_text.Parser.diag_to_string d);
        exit 1
    | Ok top -> (
        match Hida_text.Parser.module_and_func top with
        | Some (m, _f) -> m
        | None ->
            prerr_endline
              ("hida-compile: " ^ filename
             ^ ": expected a builtin.module or func.func at top level");
            exit 1)
  in
  let build () =
    let m = clone_op m0 in
    match Func_d.funcs m with
    | f :: _ -> (m, f)
    | [] ->
        prerr_endline ("hida-compile: " ^ filename ^ ": module has no function");
        exit 1
  in
  let _, f0 = build () in
  let has_nn =
    Walk.find f0 ~pred:(fun op ->
        String.length (Op.name op) > 3 && String.sub (Op.name op) 0 3 = "nn.")
    <> None
  in
  ((if has_nn then `Nn else `Memref), build)

(* Read an [@FILE] workload's bytes exactly once.  Both the --connect
   request and any local fallback compile run from this one snapshot,
   so a file edited mid-flight cannot make the fallback compile
   something different from what was sent to the server, and a retry
   never touches the disk again. *)
let read_file_workload name =
  if String.length name > 1 && name.[0] = '@' then begin
    let path = String.sub name 1 (String.length name - 1) in
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> Some (path, text)
    | exception Sys_error msg ->
        prerr_endline ("hida-compile: " ^ msg);
        exit 1
  end
  else None

let build_workload name =
  if List.exists (fun e -> e.Models.e_name = name) Models.all then
    let e = Models.by_name name in
    (`Nn, fun () -> e.Models.e_build ())
  else if List.exists (fun e -> e.Polybench.e_name = name) Polybench.all then
    let e = Polybench.by_name name in
    (`Memref, fun () -> e.Polybench.e_build ())
  else if List.exists (fun e -> e.Polybench_extra.e_name = name) Polybench_extra.all
  then
    let e = Polybench_extra.by_name name in
    (`Memref, fun () -> e.Polybench_extra.e_build ())
  else if name = "listing1" then (`Memref, fun () -> Listing1.build ())
  else
    invalid_arg
      (Printf.sprintf
         "unknown workload %s (models: %s; kernels: %s; plus listing1)" name
         (String.concat ", " (List.map (fun e -> e.Models.e_name) Models.all))
         (String.concat ", "
            (List.map (fun e -> e.Polybench.e_name) Polybench.all
            @ List.map (fun e -> e.Polybench_extra.e_name) Polybench_extra.all)))

let mode_of_string = function
  | "ia+ca" | "iaca" -> Parallelize.ia_ca
  | "ia" -> Parallelize.ia_only
  | "ca" -> Parallelize.ca_only
  | "naive" -> Parallelize.naive
  | s -> invalid_arg ("unknown mode " ^ s ^ " (ia+ca | ia | ca | naive)")

(* Fail early with a clear message when --trace-json or -o points
   somewhere we cannot write, instead of an exception trace after a long
   compile. *)
let check_write_path ~what = function
  | None -> ()
  | Some path -> (
      try
        let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path in
        close_out oc
      with Sys_error msg ->
        prerr_endline ("hida-compile: cannot write " ^ what ^ ": " ^ msg);
        exit 1)

let write_file ~what path content =
  try
    let oc = open_out path in
    output_string oc content;
    close_out oc
  with Sys_error msg ->
    prerr_endline ("hida-compile: cannot write " ^ what ^ ": " ^ msg);
    exit 1

(* The --simulate report, shared by the local and --connect artifact
   paths (which used to duplicate it with a hardcoded frame count).
   Small runs keep the full trace for the Gantt timeline; sustained
   --sim-frames runs stay untraced (O(nodes x depth) memory) and report
   the streaming percentiles only. *)
let simulate_design ~device ~frames design =
  match Walk.collect design ~pred:Hida_d.is_schedule with
  | sched :: _ ->
      let trace = frames <= Hida_hlssim.Sim.trace_default_threshold in
      let r = Hida_hlssim.Sim_ir.simulate_schedule ~frames ~trace device sched in
      Printf.printf
        "simulation      : steady interval %.0f cycles, first frame %d cycles \
         (%d frames)\n"
        r.Hida_hlssim.Sim.r_steady_interval
        r.Hida_hlssim.Sim.r_first_frame_latency frames;
      let h = r.Hida_hlssim.Sim.r_interframe in
      if Hida_obs.Histogram.count h > 0 then
        Printf.printf
          "inter-frame gap : p50 %d / p90 %d / p99 %d cycles (max %d)\n"
          (Hida_obs.Histogram.percentile h 50.)
          (Hida_obs.Histogram.percentile h 90.)
          (Hida_obs.Histogram.percentile h 99.)
          (Hida_obs.Histogram.max_value h);
      if trace then
        Printf.printf "pipeline timeline (first 4 frames):\n%s"
          (Hida_hlssim.Sim.gantt ~frames:4 r)
  | [] -> Printf.printf "simulation      : (no dataflow schedule)\n"

(* Client mode: ship the compile to a running hida-serve instance and
   render the artifact it returns.  The reply carries the canonical IR
   text, so --dump-ir/-o write it directly and --emit-cpp/--simulate
   re-parse it locally (the parser/printer round-trip law makes the
   parsed design identical to the server's). *)
let run_serve ~socket ~device ~src workload pf tile mode_name opts emit_cpp
    dump_ir out_path simulate sim_frames metrics_json =
  let open Hida_serve in
  match Client.compile ~socket src opts with
  | Error e -> Error e
  | Ok r ->
      let meta = r.Protocol.cr_meta in
      Printf.printf "workload        : %s (served)\n" workload;
      Printf.printf "device          : %s\n" device.Device.name;
      Printf.printf "mode            : %s, max parallel factor %d, tile %d\n"
        mode_name pf tile;
      Printf.printf "server          : %s, %s, %.3f ms round trip\n" socket
        (if r.Protocol.cr_cached then "artifact cache hit"
         else if r.Protocol.cr_coalesced then "coalesced with in-flight compile"
         else "cold compile")
        (float_of_int r.Protocol.cr_server_ns /. 1e6);
      Printf.printf "compile time    : %.3f s (of the run that built the \
                     artifact)\n"
        meta.Protocol.am_compile_seconds;
      Printf.printf "latency         : %d cycles\n" meta.Protocol.am_latency;
      Printf.printf "interval        : %d cycles\n" meta.Protocol.am_interval;
      Printf.printf "throughput      : %.2f samples/s @ %.0f MHz\n"
        meta.Protocol.am_throughput device.Device.freq_mhz;
      Printf.printf "DSP efficiency  : %.1f%%\n"
        (100. *. meta.Protocol.am_dsp_efficiency);
      Printf.printf "artifact        : %s\n" meta.Protocol.am_key;
      (match metrics_json with
      | None -> ()
      | Some path ->
          let status =
            match Client.status ~socket with Ok j -> j | Error _ -> Json.Null
          in
          let json =
            Json.Obj
              [
                ("workload", Json.Str workload);
                ("socket", Json.Str socket);
                ("cached", Json.Bool r.Protocol.cr_cached);
                ("coalesced", Json.Bool r.Protocol.cr_coalesced);
                ("server_ns", Json.Int r.Protocol.cr_server_ns);
                ( "artifact",
                  Json.Obj
                    [
                      ("key", Json.Str meta.Protocol.am_key);
                      ("workload", Json.Str meta.Protocol.am_workload);
                      ("latency", Json.Int meta.Protocol.am_latency);
                      ("interval", Json.Int meta.Protocol.am_interval);
                      ("throughput", Json.Float meta.Protocol.am_throughput);
                      ( "dsp_efficiency",
                        Json.Float meta.Protocol.am_dsp_efficiency );
                      ( "compile_seconds",
                        Json.Float meta.Protocol.am_compile_seconds );
                    ] );
                ("server_status", status);
              ]
          in
          write_file ~what:"metrics file" path (Json.to_string json ^ "\n");
          Printf.printf "metrics written : %s\n" path);
      (if dump_ir then
         (* [cr_ir] is already newline-terminated canonical text. *)
         let text = r.Protocol.cr_ir in
         match out_path with
         | Some path ->
             write_file ~what:"output file" path text;
             Printf.printf "ir written      : %s\n" path
         | None ->
             print_endline "---- optimized IR ----";
             print_string text);
      (if emit_cpp || simulate then
         let design =
           match
             Hida_text.Parser.parse_string ~filename:"<artifact>"
               r.Protocol.cr_ir
           with
           | Ok top -> (
               match Hida_text.Parser.module_and_func top with
               | Some (_m, f) -> f
               | None -> top)
           | Error d ->
               prerr_endline
                 ("hida-compile: served artifact does not parse: "
                 ^ Hida_text.Parser.diag_to_string d);
               exit 1
         in
         if simulate then simulate_design ~device ~frames:sim_frames design;
         if emit_cpp then
           let text = Hida_emitter.Emit_cpp.emit_func design in
           match out_path with
           | Some path ->
               write_file ~what:"output file" path text;
               Printf.printf "cpp written     : %s\n" path
           | None ->
               print_endline "---- emitted HLS C++ ----";
               print_string text);
      Ok ()

let rec run workload device_name pf tile mode_name jobs no_fusion no_balance
    no_dataflow fit analyze emit_cpp dump_ir out_path simulate sim_frames
    timing trace_json print_ir_after remarks stats profile metrics_json connect
    incr_cache =
  try run_checked workload device_name pf tile mode_name jobs no_fusion
      no_balance no_dataflow fit analyze emit_cpp dump_ir out_path simulate
      sim_frames timing trace_json print_ir_after remarks stats profile
      metrics_json connect incr_cache
  with Invalid_argument msg ->
    prerr_endline ("hida-compile: " ^ msg);
    exit 1

and run_checked workload device_name pf tile mode_name jobs no_fusion no_balance
    no_dataflow fit analyze emit_cpp dump_ir out_path simulate sim_frames timing
    trace_json print_ir_after remarks stats profile metrics_json connect
    incr_cache =
  let device = Device.by_name device_name in
  let mode = mode_of_string mode_name in
  if sim_frames <= 0 then
    invalid_arg
      (Printf.sprintf "--sim-frames must be a positive frame count (got %d)"
         sim_frames);
  check_write_path ~what:"trace file" trace_json;
  check_write_path ~what:"metrics file" metrics_json;
  check_write_path ~what:"output file" out_path;
  if out_path <> None && emit_cpp && dump_ir then begin
    prerr_endline
      "hida-compile: -o takes exactly one of --dump-ir or --emit-cpp (or \
       neither, which defaults to the IR)";
    exit 1
  end;
  (* -o with no explicit choice writes the optimized IR. *)
  let dump_ir = dump_ir || (out_path <> None && not emit_cpp) in
  (* The wire protocol carries the plain compile surface; flags that need
     the in-process report (fit, analysis gate, timing, traces, profiles)
     force a local compile even under --connect. *)
  let representable_remotely =
    (not (fit || analyze || timing || remarks || stats || profile))
    && trace_json = None && print_ir_after = None
  in
  (* [@FILE] bytes are read exactly once, before anything else touches
     the workload; the server request and the local (fallback) compile
     share this snapshot. *)
  let file_text = read_file_workload workload in
  let fallback_reason = ref None in
  (match connect with
  | Some socket when representable_remotely -> (
      let src =
        match file_text with
        | Some (_, text) -> Hida_serve.Protocol.Ir_text text
        | None -> Hida_serve.Protocol.Zoo workload
      in
      let sopts =
        {
          Hida_serve.Protocol.co_device = device_name;
          co_mode = mode_name;
          co_pf = pf;
          co_tile = tile;
          co_jobs = jobs;
          co_fusion = not no_fusion;
          co_balance = not no_balance;
          co_dataflow = not no_dataflow;
        }
      in
      match
        run_serve ~socket ~device ~src workload pf tile mode_name sopts
          emit_cpp dump_ir out_path simulate sim_frames metrics_json
      with
      | Ok () -> exit 0
      | Error e ->
          Printf.eprintf "hida-compile: %s; falling back to a local compile\n%!"
            e;
          fallback_reason := Some e)
  | Some _ ->
      prerr_endline
        "hida-compile: the requested flags need an in-process compile; \
         ignoring --connect and compiling locally";
      fallback_reason := Some "the requested flags need an in-process compile"
  | None -> ());
  (* --incr-cache: the QoR store, loaded before the compile and handed
     to the driver, so every subtree whose content hash is unchanged
     since the last run replays its fusion decisions, DSE plan and
     estimates instead of recomputing them; saved (atomically) after
     the compile.  Without it the compile memoizes nothing. *)
  let store =
    Option.map
      (fun dir ->
        let store = Blob_store.create () in
        (match Blob_store.load store ~dir with
        | Ok n ->
            if n > 0 then
              Printf.printf "incr cache      : %d entries loaded from %s\n" n
                dir
        | Error e ->
            Printf.eprintf "hida-compile: incr cache: %s (starting cold)\n%!" e);
        store)
      incr_cache
  in
  let opts =
    {
      Driver.default with
      mode;
      max_parallel_factor = pf;
      jobs;
      tile_size = tile;
      enable_fusion = not no_fusion;
      enable_balancing = not no_balance;
      enable_dataflow = not no_dataflow;
      analyze;
      profile;
      print_ir_after;
    }
  in
  let path, build =
    match file_text with
    | Some (filename, text) -> build_ir_text_workload ~filename text
    | None -> build_workload workload
  in
  let report =
    if fit then Driver.fit ~opts ?store ~device ~path build
    else Driver.run ~opts ?store ~device ~path (snd (build ()))
  in
  (match (store, incr_cache) with
  | Some store, Some dir -> (
      match Blob_store.save store ~dir with
      | Ok n -> Printf.printf "incr cache      : %d entries saved to %s\n" n dir
      | Error e ->
          Printf.eprintf "hida-compile: incr cache: cannot save: %s\n%!" e)
  | _ -> ());
  (* A --connect downgrade is an explicit Analysis remark on the local
     report, not a silent substitution. *)
  let report =
    match !fallback_reason with
    | None -> report
    | Some why ->
        {
          report with
          Driver.remarks =
            {
              Hida_obs.Remark.r_pass = "driver";
              r_severity = Hida_obs.Remark.Analysis;
              r_loc = None;
              r_msg = "--connect fell back to a local compile: " ^ why;
            }
            :: report.Driver.remarks;
        }
  in
  let e = report.Driver.estimate in
  Printf.printf "workload        : %s (%s path)\n" workload
    (match path with `Nn -> "PyTorch" | `Memref -> "C++");
  Printf.printf "device          : %s\n" device.Device.name;
  Printf.printf "mode            : %s, max parallel factor %d, tile %d\n"
    (Parallelize.mode_name mode) pf tile;
  Printf.printf "compile time    : %.3f s\n" report.Driver.compile_seconds;
  Printf.printf "latency         : %d cycles\n" e.Qor.d_latency;
  Printf.printf "interval        : %d cycles\n" e.Qor.d_interval;
  Printf.printf "throughput      : %.2f samples/s @ %.0f MHz\n" e.Qor.d_throughput
    device.Device.freq_mhz;
  Printf.printf "MACs per sample : %d\n" e.Qor.d_macs;
  Printf.printf "DSP efficiency  : %.1f%%\n" (100. *. e.Qor.d_dsp_efficiency);
  Printf.printf "resources       : %s (util %.1f%%, %s)\n"
    (Resource.to_string e.Qor.d_resource)
    (100. *. Resource.utilization device e.Qor.d_resource)
    (if Resource.fits device e.Qor.d_resource then "fits" else "DOES NOT FIT");
  if analyze then begin
    match report.Driver.analysis with
    | [] -> Printf.printf "analysis        : clean (no diagnostics)\n"
    | ds ->
        Printf.printf "analysis        : %d diagnostic(s)\n" (List.length ds);
        List.iter
          (fun d -> print_endline ("  " ^ Hida_analysis.Analysis.to_string d))
          ds
  end;
  if timing then begin
    print_endline "---- timing (hierarchical) ----";
    print_string (Hida_obs.Trace.report report.Driver.trace);
    let verify_total =
      List.fold_left
        (fun acc s -> acc +. s.Pass.verify_seconds)
        0. report.Driver.pass_timing
    in
    Printf.printf "  %-46s %10.4f\n" "verification (separate)" verify_total
  end;
  if remarks then begin
    print_endline "---- optimization remarks ----";
    if report.Driver.remarks = [] then print_endline "  (none)"
    else
      List.iter
        (fun r -> print_endline ("  " ^ Hida_obs.Remark.to_string r))
        report.Driver.remarks
  end;
  if stats then begin
    print_endline "---- metrics ----";
    print_string (Hida_obs.Metrics.to_string report.Driver.metrics);
    print_endline "---- per-pass IR deltas ----";
    List.iter
      (fun pd ->
        Printf.printf "  %-42s %s\n" pd.Hida_obs.Ir_stats.pd_pass
          (Hida_obs.Ir_stats.delta_to_string pd))
      report.Driver.pass_deltas
  end;
  (match trace_json with
  | None -> ()
  | Some path -> (
      try
        Hida_obs.Trace.write_chrome_file report.Driver.trace path;
        Printf.printf "trace written   : %s (open in chrome://tracing)\n" path
      with Sys_error msg ->
        prerr_endline ("hida-compile: cannot write trace file: " ^ msg);
        exit 1));
  (if simulate then
     (* Re-install the compile's scope so the simulator's per-frame step
        histogram lands in the same metrics registry. *)
     Hida_obs.Scope.with_scope report.Driver.obs_scope (fun () ->
         simulate_design ~device ~frames:sim_frames report.Driver.design));
  (let m = report.Driver.metrics in
   let c name = Hida_obs.Metrics.counter m name in
   if profile then begin
     let pp = Hida_obs.Histogram.pp_ns in
     print_endline "---- profile ----";
     Printf.printf "  %-22s %d\n" "jobs" jobs;
     Printf.printf "  %-22s %d hits, %d misses\n" "subtree store"
       (c "incr.subtree.hits") (c "incr.subtree.misses");
     let busy = c "parallelize.pool.busy_ns"
     and slot_ns = c "parallelize.pool.slots_ns" in
     if slot_ns > 0 then
       Printf.printf "  %-22s %s busy of %s slot-time (%.1f%% utilization)\n"
         "worker pool" (pp busy) (pp slot_ns)
         (100. *. float_of_int busy /. float_of_int slot_ns);
     (let tasks = c "parallelize.pool.tasks"
      and steals = c "parallelize.pool.steals"
      and inline_levels = c "parallelize.pool.inline_levels" in
      if tasks > 0 || inline_levels > 0 then
        Printf.printf
          "  %-22s %d tasks, %d stolen (%.1f%%), %d level(s) run inline\n"
          "work stealing" tasks steals
          (if tasks = 0 then 0.
           else 100. *. float_of_int steals /. float_of_int tasks)
          inline_levels);
     Printf.printf "  %-22s %s total\n" "barrier wait"
       (pp (c "dse.barrier_wait_total_ns"));
     List.iter
       (fun (label, name) ->
         match Hida_obs.Metrics.histogram m name with
         | Some h ->
             Printf.printf "  %-22s %s\n" label (Hida_obs.Histogram.to_string h)
         | None -> ())
       [
         ("candidate eval", "dse.candidate_eval_ns");
         ("node search", "dse.node_search_ns");
         ("barrier wait dist", "dse.barrier_wait_ns");
         ("sim frame step", "sim.frame_step_ns");
       ]
   end;
   match metrics_json with
   | None -> ()
   | Some path ->
       let json =
         Printf.sprintf "{\"workload\":\"%s\",\"jobs\":%d,\"metrics\":%s}\n"
           (Hida_obs.Trace.json_escape workload)
           jobs
           (Hida_obs.Metrics.to_json m)
       in
       write_file ~what:"metrics file" path json;
       Printf.printf "metrics written : %s\n" path);
  (if dump_ir then
     let text = Printer.op_to_string report.Driver.design ^ "\n" in
     match out_path with
     | Some path ->
         write_file ~what:"output file" path text;
         Printf.printf "ir written      : %s\n" path
     | None ->
         print_endline "---- optimized IR ----";
         print_string text);
  (if emit_cpp then
     let text = Hida_emitter.Emit_cpp.emit_func report.Driver.design in
     match out_path with
     | Some path ->
         write_file ~what:"output file" path text;
         Printf.printf "cpp written     : %s\n" path
     | None ->
         print_endline "---- emitted HLS C++ ----";
         print_string text);
  (* A gated compile fails (after all requested outputs are written) when
     the static checker found problems. *)
  if analyze && report.Driver.analysis <> [] then exit 1

let workload =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD"
         ~doc:"Model (lenet, resnet18, ...), kernel (2mm, atax, ...), or \
               @FILE.mlir to compile a textual-IR file.")

let device =
  Arg.(value & opt string "zu3eg" & info [ "device"; "d" ] ~docv:"DEVICE"
         ~doc:"Target FPGA: pynq-z2, zu3eg or vu9p-slr.")

let pf =
  Arg.(value & opt int 32 & info [ "parallel-factor"; "p" ] ~docv:"N"
         ~doc:"Maximum parallel factor for the dataflow parallelization.")

let tile =
  Arg.(value & opt int 32 & info [ "tile" ] ~docv:"N"
         ~doc:"External-memory tile size (burst length).")

let mode =
  Arg.(value & opt string "ia+ca" & info [ "mode"; "m" ] ~docv:"MODE"
         ~doc:"Parallelization mode: ia+ca, ia, ca or naive.")

let jobs =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Worker domains for the per-node design-space exploration \
               (the produced design is identical whatever the value).")

let no_fusion =
  Arg.(value & flag & info [ "no-fusion" ] ~doc:"Disable task fusion (Alg. 2).")

let no_balance =
  Arg.(value & flag & info [ "no-balance" ] ~doc:"Disable data-path balancing.")

let no_dataflow =
  Arg.(value & flag & info [ "no-dataflow" ] ~doc:"Sequential (non-dataflow) design.")

let fit =
  Arg.(value & flag & info [ "fit" ]
         ~doc:"Search for the largest parallel factor fitting the device.")

let analyze =
  Arg.(value & flag & info [ "analyze"; "a" ]
         ~doc:"Run the static dataflow checker (deadlock, channel capacity, \
               buffer hazards) as a compile gate; exit non-zero on any \
               diagnostic.")

let emit_cpp =
  Arg.(value & flag & info [ "emit-cpp" ] ~doc:"Print the emitted HLS C++.")

let dump_ir =
  Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the optimized IR.")

let out_path =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write the --dump-ir IR (default) or the --emit-cpp C++ to \
               $(docv) instead of stdout.")

let simulate =
  Arg.(value & flag & info [ "simulate"; "s" ]
         ~doc:"Run the cycle-level dataflow simulator on the result.")

let sim_frames =
  Arg.(value & opt int 64 & info [ "sim-frames" ] ~docv:"N"
         ~doc:"Dataflow frames to simulate under --simulate (default 64; \
               must be positive).  Large counts run untraced with \
               O(nodes) memory and report inter-frame p50/p90/p99 \
               percentiles, modeling sustained streaming traffic.")

let timing =
  Arg.(value & flag & info [ "timing" ]
         ~doc:"Print a hierarchical per-pass timing table (mlir's -mlir-timing).")

let trace_json =
  Arg.(value & opt (some string) None & info [ "trace-json" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace-event JSON of the compile to $(docv) \
               (open in chrome://tracing or Perfetto).")

let print_ir_after =
  Arg.(value & opt (some string) None & info [ "print-ir-after" ] ~docv:"PASS"
         ~doc:"Dump the IR after every pass whose name contains $(docv) \
               (use \"all\" for every pass).")

let remarks =
  Arg.(value & flag & info [ "remarks" ]
         ~doc:"Print the optimization remarks emitted by the passes.")

let stats =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"Print pass metrics (counters/gauges) and per-pass IR deltas.")

let profile =
  Arg.(value & flag & info [ "profile" ]
         ~doc:"Detailed multicore profiling: per-candidate DSE spans and \
               barrier-wait spans in the trace, plus a profile report \
               (store hits, worker-pool utilization, latency \
               histograms).  Never changes the produced design.")

let metrics_json =
  Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE"
         ~doc:"Write a machine-readable JSON snapshot of the metrics and \
               latency histograms to $(docv).")

let connect =
  Arg.(value & opt (some string) None & info [ "connect"; "c" ] ~docv:"SOCK"
         ~doc:"Compile through a running hida-serve instance listening on \
               the Unix socket $(docv); identical requests are answered \
               from its content-addressed artifact cache.  Falls back to a \
               local compile when the server is unreachable.")

let incr_cache =
  Arg.(value & opt (some string) None & info [ "incr-cache" ] ~docv:"DIR"
         ~doc:"Persist the QoR store (fusion and DSE decisions, node and \
               design estimates keyed by content hashes) in $(docv) \
               across runs: a recompile after an edit re-optimizes only \
               the subtrees whose hashes changed.  The produced design is \
               byte-identical with or without the cache.")

let cmd =
  let doc = "compile a workload with the HIDA dataflow HLS pipeline" in
  Cmd.v
    (Cmd.info "hida-compile" ~doc)
    Term.(
      const run $ workload $ device $ pf $ tile $ mode $ jobs $ no_fusion
      $ no_balance $ no_dataflow $ fit $ analyze $ emit_cpp $ dump_ir
      $ out_path $ simulate $ sim_frames $ timing $ trace_json
      $ print_ir_after $ remarks $ stats $ profile $ metrics_json $ connect
      $ incr_cache)

let () = exit (Cmd.eval cmd)
