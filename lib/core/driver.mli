(** End-to-end compilation driver.

    Runs the HIDA-OPT pipeline over a function from either front-end and
    returns the optimized design together with its QoR estimate.  Every
    optimization has a switch so the benchmarks can reproduce the
    paper's baselines and ablations. *)

open Hida_ir
open Hida_estimator

type options = {
  mode : Parallelize.mode;
  max_parallel_factor : int;
  jobs : int;
      (** worker domains for the per-node DSE (default 1 = sequential;
          the produced design is byte-identical whatever the value) *)
  tile_size : int;  (** external-memory tile / burst parameter (Fig. 10) *)
  enable_fusion : bool;
  enable_balancing : bool;
  enable_multi_producer : bool;
  enable_dataflow : bool;  (** false = sequential design *)
  enable_streaming : bool;
      (** convert FIFO-compatible inter-node buffers to [hida.stream]
          channels (Fig. 3) *)
  weights_onchip : bool;  (** ScaleHLS-style all-on-chip layout (Fig. 9) *)
  conv_boundary : [ `Guarded | `Padded ];
      (** convolution boundary handling (see {!Lower_nn}) *)
  pingpong : bool;
      (** HIDA buffers carry automatic ping-pong semantics (§5.2);
          baselines without it get single-stage buffers *)
  stamp_isomorphic : bool;
      (** lower each distinct task digest once and stamp the result into
          every isomorphic block (subtree structure sharing; default
          on).  The produced IR is byte-identical either way, so this is
          a perf/ablation knob excluded from the fingerprint like
          [jobs]. *)
  analyze : bool;
      (** run the static dataflow checker ({!Hida_analysis.Analysis}) as
          a post-lowering and post-balancing gate; failures are
          diagnostics in {!report.analysis}, never exceptions *)
  profile : bool;
      (** detailed profiling ([--profile]): per-candidate DSE spans and
          barrier-wait spans in the trace.  Histograms and counters are always recorded; this flag only
          adds the high-volume spans.  Never changes the design. *)
  verify_each : bool;
  print_ir_after : string option;
      (** dump IR after passes whose name contains this substring
          (["all"] = every pass) *)
}

val default : options

val options_fingerprint : options -> string
(** Canonical serialization of every option that can change the
    produced design or its estimate.  Observation-only knobs ([jobs],
    [profile], [verify_each], [print_ir_after], [analyze],
    [stamp_isomorphic]) are excluded
    so they never fragment content-addressed artifact caches; the serve
    layer keys whole-pipeline artifacts on this string plus the request
    source and device name. *)

val strip_pingpong : Ir.op -> unit
val apply_tiling : tile_size:int -> Ir.op -> unit
(** Tag external-memory nodes with the tile directive and materialize
    the per-lane on-chip tile caches. *)

val pipeline_innermost : Ir.op -> unit

type report = {
  design : Ir.op;  (** the optimized function *)
  estimate : Qor.design_est;
  compile_seconds : float;
  pass_timing : Pass.stats list;
  trace : Hida_obs.Trace.t;  (** span tree of the whole compile *)
  metrics : Hida_obs.Metrics.t;  (** counters/gauges from all passes *)
  remarks : Hida_obs.Remark.t list;  (** optimization remarks, in order *)
  pass_deltas : Hida_obs.Ir_stats.pass_delta list;
      (** per-pass IR statistics (op/buffer/node counts before/after) *)
  analysis : Hida_analysis.Analysis.diag list;
      (** static-checker failures from the final gate (always empty
          unless {!options.analyze} is set; non-empty = broken design) *)
  obs_scope : Hida_obs.Scope.t;
      (** the scope the compile ran under; re-install it with
          {!Hida_obs.Scope.with_scope} to extend the same trace and
          metrics (the CLI does this around [--simulate]) *)
}

type state
(** An in-flight compilation: pass manager plus observation scope.
    Produced by {!compile_nn}/{!compile_memref}, consumed by {!finish}. *)

val make_manager : options -> Pass.manager

val compile_nn : ?opts:options -> ?store:Blob_store.t -> Ir.op -> state
(** PyTorch path; returns the in-flight state for {!finish}.

    With a [store], fusion decisions, DSE results, schedule replays and
    QoR estimates are looked up in it and written to it under
    content-addressed keys ({!Qor_cache}), so a later compile reuses
    every unchanged subtree's result; the design is byte-identical
    either way.  Without one nothing is memoized.  The report's
    [incr.subtree.hits]/[incr.subtree.misses] counters count the store
    lookups, and undecodable entries are counted as
    [incr.cache.corrupt] and reported in one remark. *)

val compile_memref : ?opts:options -> ?store:Blob_store.t -> Ir.op -> state

val finish : device:Device.t -> ?batch:int -> state -> Ir.op -> report

val run_nn :
  ?opts:options ->
  ?store:Blob_store.t ->
  device:Device.t ->
  ?batch:int ->
  Ir.op ->
  report

val run_memref :
  ?opts:options ->
  ?store:Blob_store.t ->
  device:Device.t ->
  ?batch:int ->
  Ir.op ->
  report

val run :
  ?opts:options ->
  ?store:Blob_store.t ->
  device:Device.t ->
  ?batch:int ->
  path:[ `Memref | `Nn ] ->
  Ir.op ->
  report
(** {!run_nn} or {!run_memref}, dispatched on a runtime path tag (the
    CLI and the compile server share this entry point). *)

val pf_candidates : int list

val fit :
  ?opts:options ->
  ?batch:int ->
  ?pf_cap:int ->
  ?store:Blob_store.t ->
  device:Device.t ->
  path:[ `Memref | `Nn ] ->
  (unit -> Ir.op * Ir.op) ->
  report
(** Maximum-parallel-factor search under the device's resources, with an
    efficiency descent: shrink the factor while throughput holds (§6.5's
    "maximum efficiency").  [build] must return a fresh (module,
    function) pair on each call. *)
