(* End-to-end compilation driver: runs the HIDA-OPT pipeline over a
   function produced by either front-end and returns the optimized design
   plus its QoR report.  Every optimization has a switch so the benches
   can reproduce the paper's baselines and ablations. *)

open Hida_ir
open Ir
open Hida_dialects
open Hida_estimator

type options = {
  mode : Parallelize.mode;
  max_parallel_factor : int;
  jobs : int; (* worker domains for per-node DSE (1 = sequential; the
                 result is identical whatever the value) *)
  tile_size : int; (* external-memory tile / burst parameter (Fig. 10) *)
  enable_fusion : bool;
  enable_balancing : bool;
  enable_multi_producer : bool;
  enable_dataflow : bool; (* false = sequential (non-dataflow) design *)
  enable_streaming : bool; (* convert FIFO-compatible buffers to streams *)
  weights_onchip : bool; (* keep DNN weights on chip (ScaleHLS, Fig. 9) *)
  conv_boundary : [ `Guarded | `Padded ];
  (* convolution boundary handling: padded line buffers or affine.if
     guards (see Lower_nn) *)
  pingpong : bool; (* HIDA buffers carry ping-pong semantics (§5.2);
                      baselines without it use single-stage buffers *)
  stamp_isomorphic : bool;
  (* lower each distinct task digest once and stamp the optimized body
     into every isomorphic block (subtree structure sharing).  Output
     IR is byte-identical either way — observation/perf knob only,
     excluded from the option fingerprint like [jobs]. *)
  analyze : bool; (* run the static dataflow checker (hida.analysis) as a
                     post-lowering and post-balancing gate; failures are
                     diagnostics in the report, never exceptions *)
  profile : bool; (* detailed profiling: per-candidate DSE spans and
                     barrier-wait spans (--profile).  Never changes the
                     produced design. *)
  verify_each : bool;
  print_ir_after : string option; (* dump IR after passes whose name
                                     contains this substring ("all" =
                                     every pass) *)
}

let default =
  {
    mode = Parallelize.ia_ca;
    max_parallel_factor = 32;
    jobs = 1;
    tile_size = 32;
    enable_fusion = true;
    enable_balancing = true;
    enable_multi_producer = true;
    enable_dataflow = true;
    enable_streaming = true;
    weights_onchip = false;
    conv_boundary = `Padded;
    pingpong = true;
    stamp_isomorphic = true;
    analyze = false;
    profile = false;
    verify_each = false;
    print_ir_after = None;
  }

(* Canonical fingerprint of every option that can change the produced
   design or its estimate.  Observation-only knobs (jobs, profile,
   verify_each, print_ir_after, analyze, stamp_isomorphic) are
   deliberately excluded: [--jobs] and stamping are byte-identical by
   construction and the rest never touch the IR, so including them
   would only fragment the artifact cache.
   The serve layer keys whole-pipeline artifacts on this string plus the
   request source and device ([Qor_cache.artifact_signature]), and the
   whole-design estimate in the QoR store is keyed on it too. *)
let options_fingerprint o =
  Printf.sprintf
    "mode=%s;pf=%d;tile=%d;fusion=%b;balance=%b;multi_producer=%b;dataflow=%b;streaming=%b;weights_onchip=%b;conv=%s;pingpong=%b"
    (Parallelize.mode_name o.mode)
    o.max_parallel_factor o.tile_size o.enable_fusion o.enable_balancing
    o.enable_multi_producer o.enable_dataflow o.enable_streaming
    o.weights_onchip
    (match o.conv_boundary with `Guarded -> "guarded" | `Padded -> "padded")
    o.pingpong

(* Strip the automatic ping-pong stages HIDA buffers carry: every
   multi-stage on-chip buffer becomes single-stage (the inter-task buffer
   model of dataflow legalizers without §5.2's buffer semantics). *)
let strip_pingpong func =
  Walk.preorder func ~f:(fun op ->
      if Hida_d.is_buffer op && Hida_d.buffer_placement op = Hida_d.On_chip
      then Hida_d.set_buffer_depth op 1)

(* Tag nodes that touch external memory with the tile-size directive and
   materialize the corresponding on-chip tile buffers (one per external
   access), which the memory model charges as BRAM. *)
let apply_tiling ~tile_size func =
  let is_external v =
    match Value.defining_op v with
    | Some op when Hida_d.is_port op -> true
    | Some op when Hida_d.is_buffer op ->
        Hida_d.buffer_placement op = Hida_d.External
    | Some _ -> false
    | None -> true (* function arguments live in external memory *)
  in
  Walk.preorder func ~f:(fun op ->
      if Hida_d.is_schedule op then begin
        let operands = Op.operands op in
        let blk = Hida_d.node_block op in
        List.iter
          (fun n ->
            if Hida_d.is_node n then begin
              let touches_external =
                List.exists
                  (fun v ->
                    (* Trace node operand -> schedule arg -> outer. *)
                    let outer =
                      let rec find i = function
                        | [] -> v
                        | a :: rest ->
                            if Value.equal a v then List.nth operands i
                            else find (i + 1) rest
                      in
                      find 0 (Block.args blk)
                    in
                    is_external outer)
                  (Op.operands n)
              in
              if touches_external then begin
                Op.set_attr n "tile_size" (A_int tile_size);
                (* On-chip tile cache: one [tile x tile] bank per parallel
                   lane so the unrolled datapath can read concurrently —
                   this is what makes memory grow with both the parallel
                   factor and the tile size (Fig. 10). *)
                let lanes =
                  (* Widest datapath among the node's loop nests. *)
                  List.fold_left
                    (fun acc nest ->
                      max acc (Hida_estimator.Qor.unroll_product nest))
                    1
                    (Affine_d.outermost_loops n)
                  / 2
                  |> max 1
                in
                let elem =
                  match Op.operands n with
                  | v :: _ -> (
                      match Value.typ v with
                      | Memref { elem; _ } -> elem
                      | _ -> F32)
                  | [] -> F32
                in
                let nblk = Hida_d.node_block n in
                let bld = Builder.create () in
                (match Block.ops nblk with
                | first :: _ -> Builder.set_before bld first
                | [] -> Builder.set_at_end bld nblk);
                let tile =
                  Hida_d.buffer ~name:"tile" ~depth:2 bld
                    ~shape:[ lanes; tile_size; tile_size ]
                    ~elem
                in
                match Value.defining_op tile with
                | Some t ->
                    Hida_d.set_partition t
                      ~kinds:[ Hida_d.P_cyclic; Hida_d.P_none; Hida_d.P_none ]
                      ~factors:[ lanes; 1; 1 ]
                | None -> ()
              end
            end)
          (Block.ops blk)
      end)

(* Pipeline directives: every innermost loop is pipelined (both HIDA and
   the baselines do this; Vitis applies it automatically). *)
let pipeline_innermost func =
  List.iter
    (fun l -> Affine_d.set_pipeline l ())
    (Affine_d.innermost_loops func)

type report = {
  design : op; (* the optimized function *)
  estimate : Qor.design_est;
  compile_seconds : float;
  pass_timing : Pass.stats list;
  trace : Hida_obs.Trace.t; (* span tree of the whole compile *)
  metrics : Hida_obs.Metrics.t; (* counters/gauges from all passes *)
  remarks : Hida_obs.Remark.t list; (* optimization remarks, in order *)
  pass_deltas : Hida_obs.Ir_stats.pass_delta list;
      (* per-pass IR statistics (op/buffer/node counts before/after) *)
  analysis : Hida_analysis.Analysis.diag list;
      (* static-checker failures from the final gate (empty unless
         options.analyze; a non-empty list means the design is broken) *)
  obs_scope : Hida_obs.Scope.t;
      (* the scope the compile ran under; callers re-install it (e.g.
         around simulation) to extend the same trace and metrics *)
}

(* In-flight compilation: start time, pass manager, observation scope and
   the IR-stat deltas accumulated by the manager hooks. *)
type state = {
  st_t0 : float;
  st_mgr : Pass.manager;
  st_scope : Hida_obs.Scope.t;
  st_store : (Blob_store.t * string) option;
      (* the QoR store, with the digest of the pre-optimization function
         plus the semantic option fingerprint, captured before the first
         pass mutates it.  [finish] keys the whole-design estimate on
         it: the pipeline is deterministic in (input, options, device,
         batch), the same property the artifact cache and the
         byte-identity guarantee rest on, and digesting the small input
         IR is an order of magnitude cheaper than walking the optimized
         design. *)
  mutable st_deltas_rev : Hida_obs.Ir_stats.pass_delta list;
  mutable st_analysis : Hida_analysis.Analysis.diag list;
}

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let make_manager opts =
  let mgr = Pass.manager ~verify_each:opts.verify_each () in
  (match opts.print_ir_after with
  | Some pat ->
      Pass.set_print_ir_after mgr (fun name -> pat = "all" || contains ~sub:pat name)
  | None -> ());
  mgr

(* Wire the observation scope into the manager: each pass gets a trace
   span (verification included, so nested spans opened by the pass land
   inside it) and a before/after IR statistics snapshot. *)
let make_state opts ?store ~path func =
  let st =
    {
      st_t0 = Unix.gettimeofday ();
      st_mgr = make_manager opts;
      st_scope = Hida_obs.Scope.create ();
      st_store =
        Option.map
          (fun s ->
            (s, path ^ "#" ^ options_fingerprint opts ^ "#" ^ Subtree.digest func))
          store;
      st_deltas_rev = [];
      st_analysis = [];
    }
  in
  Hida_obs.Scope.set_detailed st.st_scope opts.profile;
  (* Parallel DSE runs on the persistent work-stealing pool; spawn its
     workers here (once per process — [ensure] is idempotent and the
     domains are reused across levels and across compiles) so the first
     parallel level does not pay the spawn latency.  The pool clamps the
     request to the domains actually available. *)
  if opts.jobs > 1 then
    Domain_pool.ensure ~workers:(Domain_pool.effective_jobs opts.jobs - 1);
  let tr = Hida_obs.Scope.trace st.st_scope in
  let metrics = Hida_obs.Scope.metrics st.st_scope in
  let open_spans = ref [] in
  let before_stats = ref Hida_obs.Ir_stats.zero in
  Pass.on_before_pass st.st_mgr (fun pass root ->
      before_stats := Hida_obs.Ir_stats.capture root;
      open_spans := Hida_obs.Trace.begin_span ~cat:"pass" tr pass.Pass.name :: !open_spans);
  Pass.on_after_pass st.st_mgr (fun pass root stats ->
      (match !open_spans with
      | sp :: rest ->
          Hida_obs.Trace.end_span tr sp;
          open_spans := rest
      | [] -> ());
      let after = Hida_obs.Ir_stats.capture root in
      st.st_deltas_rev <-
        {
          Hida_obs.Ir_stats.pd_pass = pass.Pass.name;
          pd_before = !before_stats;
          pd_after = after;
        }
        :: st.st_deltas_rev;
      Hida_obs.Metrics.incr metrics "pass.runs";
      Hida_obs.Metrics.add metrics "ir.ops_visited" after.Hida_obs.Ir_stats.ops;
      ignore stats);
  st

(* Run the manager under the state's scope, with a root span wrapping the
   whole pipeline. *)
let run_pipeline st func =
  Hida_obs.Scope.with_scope st.st_scope (fun () ->
      Hida_obs.Scope.span ~cat:"driver" "hida-opt" (fun () ->
          Pass.run st.st_mgr func))

(* Static dataflow gates (hida.analysis).  The post-lowering gate runs
   before balancing: capacity findings there are the expected input of
   §6.4.2 and reported as neutral analysis remarks, while deadlocks and
   hazards are errors.  The final gate runs at the end of the pipeline;
   its failures land in the report (diagnostics, never exceptions). *)
let add_pre_balance_gate opts st =
  if opts.analyze then
    Pass.add st.st_mgr
      (Pass.make ~name:"dataflow-analysis-post-lowering" (fun f ->
           ignore
             (Hida_analysis.Analysis.run ~pre_balance:true
                ~pass:"dataflow-analysis-post-lowering" f)))

let add_final_gate opts st =
  if opts.analyze then
    Pass.add st.st_mgr
      (Pass.make ~name:"dataflow-analysis" (fun f ->
           st.st_analysis <-
             Hida_analysis.Analysis.run ~pass:"dataflow-analysis" f))

(* ---- PyTorch (tensor) path ---- *)

let compile_nn ?(opts = default) ?store func =
  let st = make_state opts ?store ~path:"nn" func in
  let mgr = st.st_mgr in
  Pass.add mgr Canonicalize.pass;
  Pass.add mgr Construct.pass;
  if opts.enable_fusion then Pass.add mgr (Fusion.pass ?store ());
  Pass.add mgr
    (Lowering.nn_pass ~weights_onchip:opts.weights_onchip
       ~boundary:opts.conv_boundary ~stamp:opts.stamp_isomorphic ());
  if opts.enable_multi_producer then Pass.add mgr Multi_producer.pass;
  add_pre_balance_gate opts st;
  if opts.enable_balancing then Pass.add mgr (Balance.pass ());
  Pass.add mgr
    (Parallelize.pass ~mode:opts.mode ~jobs:opts.jobs ?store
       ~max_parallel_factor:opts.max_parallel_factor ());
  Pass.add mgr (Partition.pass ~ca:opts.mode.Parallelize.ca ());
  if opts.enable_streaming then Pass.add mgr (Streamize.pass ());
  Pass.add mgr
    (Pass.make ~name:"tiling-and-pipeline" (fun f ->
         apply_tiling ~tile_size:opts.tile_size f;
         pipeline_innermost f;
         if not opts.pingpong then strip_pingpong f;
         (* Without external-memory tiling the streamed-window memory
            discount does not apply: everything stays fully resident. *)
         if opts.weights_onchip then
           Walk.preorder f ~f:(fun op ->
               if Hida_d.is_buffer op then Op.remove_attr op "resident_rows")));
  add_final_gate opts st;
  run_pipeline st func;
  st

(* ---- C++ (memref) path ---- *)

let compile_memref ?(opts = default) ?store func =
  let st = make_state opts ?store ~path:"memref" func in
  let mgr = st.st_mgr in
  if opts.enable_dataflow then begin
    Pass.add mgr Canonicalize.pass;
    Pass.add mgr Construct.pass;
    if opts.enable_fusion then Pass.add mgr (Fusion.pass ?store ());
    Pass.add mgr (Pass.make ~name:"lowering" Lowering.lower_memref_func);
    if opts.enable_multi_producer then Pass.add mgr Multi_producer.pass;
    add_pre_balance_gate opts st;
    if opts.enable_balancing then Pass.add mgr (Balance.pass ());
    Pass.add mgr
      (Parallelize.pass ~mode:opts.mode ~jobs:opts.jobs ?store
         ~max_parallel_factor:opts.max_parallel_factor ());
    Pass.add mgr (Partition.pass ~ca:opts.mode.Parallelize.ca ());
    if opts.enable_streaming then Pass.add mgr (Streamize.pass ())
  end
  else begin
    (* Non-dataflow: only lower allocs and parallelize loop nests in
       place. *)
    Pass.add mgr (Pass.make ~name:"allocs-to-buffers" Lowering.allocs_to_buffers)
  end;
  Pass.add mgr
    (Pass.make ~name:"tiling-and-pipeline" (fun f ->
         apply_tiling ~tile_size:opts.tile_size f;
         pipeline_innermost f;
         if not opts.pingpong then strip_pingpong f));
  add_final_gate opts st;
  run_pipeline st func;
  st

let finish ~device ?(batch = 1) st func =
  let scope = st.st_scope in
  let estimate =
    Hida_obs.Scope.with_scope scope (fun () ->
        (* Interface planning needs the target device's AXI port count,
           which only becomes known here. *)
        Hida_obs.Scope.span ~cat:"driver" "interface-planning" (fun () ->
            ignore (Interface.run ~device func));
        Hida_obs.Scope.span ~cat:"driver" "qor-estimation" (fun () ->
            match st.st_store with
            | Some (store, isig) ->
                (* Top tier of the signature hierarchy: an unchanged
                   design (same input, options, device and batch — the
                   pipeline is deterministic in those) skips per-node
                   estimation outright; otherwise each unchanged node's
                   estimate comes from the store. *)
                let key =
                  Printf.sprintf "design#%s#%d#%s" device.Device.name batch isig
                in
                Qor_cache.memo_design store key (fun () ->
                    Qor.estimate_func ~memo:(Qor_cache.node_memo store) device
                      ~batch func)
            | None -> Qor.estimate_func device ~batch func))
  in
  let compile_seconds = Unix.gettimeofday () -. st.st_t0 in
  let metrics = Hida_obs.Scope.metrics scope in
  Hida_obs.Metrics.set_gauge metrics "compile.seconds" compile_seconds;
  Hida_obs.Metrics.set_gauge metrics "verify.seconds"
    (Pass.total_verify_seconds st.st_mgr);
  (* Store reuse by this compile.  The keys are published
     unconditionally (zero without a store) so consumers — CI asserts
     [incr.subtree.hits > 0] on an incremental recompile — can rely on
     their presence. *)
  List.iter
    (fun k -> Hida_obs.Metrics.add metrics k 0)
    [ "incr.subtree.hits"; "incr.subtree.misses"; "incr.subtree.stamped" ];
  let count = Hida_obs.Metrics.counter metrics in
  let hits = count "incr.subtree.hits" and corrupt = count "incr.cache.corrupt" in
  Hida_obs.Scope.with_scope scope (fun () ->
      if hits > 0 then
        Hida_obs.Scope.remark ~pass:"driver" Hida_obs.Remark.Analysis
          "incremental reuse: %d subtree result(s) served from the persistent \
           store (%d computed fresh)"
          hits
          (count "incr.subtree.misses");
      if corrupt > 0 then
        Hida_obs.Scope.remark ~pass:"driver" Hida_obs.Remark.Analysis
          "%d corrupt store entr%s could not be decoded; recomputed and \
           overwritten"
          corrupt
          (if corrupt = 1 then "y" else "ies"));
  {
    design = func;
    estimate;
    compile_seconds;
    pass_timing = Pass.timing st.st_mgr;
    trace = Hida_obs.Scope.trace scope;
    metrics;
    remarks = Hida_obs.Scope.remarks scope;
    pass_deltas = List.rev st.st_deltas_rev;
    analysis = st.st_analysis;
    obs_scope = scope;
  }

(* Convenience wrappers. *)
let run_nn ?opts ?store ~device ?batch func =
  let state = compile_nn ?opts ?store func in
  finish ~device ?batch state func

let run_memref ?opts ?store ~device ?batch func =
  let state = compile_memref ?opts ?store func in
  finish ~device ?batch state func

(* Unified entry point: one call per front-end path, so callers that
   dispatch on a runtime path tag (the CLI, the compile server's
   artifact builder) need not duplicate the branch. *)
let run ?opts ?store ~device ?batch ~path func =
  match path with
  | `Nn -> run_nn ?opts ?store ~device ?batch func
  | `Memref -> run_memref ?opts ?store ~device ?batch func
(* Maximum-parallel-factor search under resource constraints (step (3) of
   §6.5.1 at the whole-design level): try decreasing parallel factors on
   freshly built IR until the estimated design fits the device. *)
let pf_candidates = [ 256; 128; 64; 32; 16; 8; 4; 2; 1 ]

let fit ?(opts = default) ?(batch = 1) ?pf_cap ?store ~device ~path build =
  let attempt pf =
    let _m, func = build () in
    run ~opts:{ opts with max_parallel_factor = pf } ?store ~device ~batch ~path
      func
  in
  let rec largest = function
    | [] -> (1, attempt 1)
    | pf :: rest ->
        let r = attempt pf in
        if Resource.fits device r.estimate.Qor.d_resource then (pf, r)
        else largest rest
  in
  let candidates =
    match pf_cap with
    | Some cap -> List.filter (fun pf -> pf <= cap) pf_candidates
    | None -> pf_candidates
  in
  let pf0, best = largest candidates in
  (* Efficiency descent: keep shrinking the parallel factor while the
     throughput stays within 2% of the best found — resources saved on
     bandwidth- or critical-node-bound designs raise the DSP efficiency
     without losing performance (§6.5's "maximum efficiency"). *)
  let rec descend pf best =
    let pf' = pf / 2 in
    if pf' < 1 then best
    else
      let r = attempt pf' in
      if
        Resource.fits device r.estimate.Qor.d_resource
        && r.estimate.Qor.d_throughput
           >= 0.98 *. best.estimate.Qor.d_throughput
      then descend pf' r
      else best
  in
  descend pf0 best
