(** Quality-of-results estimator — the role ScaleHLS's QoR estimator and
    the Vitis HLS synthesis reports play in the paper.

    For an optimized structural-dataflow design it predicts per-node
    latency/interval (loop trip counts, unroll directives, memory ports
    and bank-conflict analysis of affine accesses against buffer
    partition attributes), resource usage, and the whole-design dataflow
    interval (ping-pong interval = max node latency, inflated by
    fork-join imbalance or by serialization through single-stage
    buffers).  All first-order effects driving the paper's comparisons
    are modeled; absolute cycles are not calibrated against silicon. *)

open Hida_ir

(** {1 Cost tables} *)

val dsp_per_op : elem:Ir.typ -> string -> int
(** DSP blocks for one instance of an op at the given datapath
    precision. *)

val lut_per_op : elem:Ir.typ -> string -> int
val ff_per_op : elem:Ir.typ -> string -> int

val dsp_per_mac : elem:Ir.typ -> int
(** DSPs per MAC unit, for normalized DSP-efficiency reporting. *)

val base_depth : int
(** Pipeline fill depth of a node datapath. *)

(** {1 Access analysis} *)

type access = {
  a_buffer : Ir.value;  (** accessed buffer/port, resolved to the outer value *)
  a_store : bool;
  a_dims : (Ir.op * int) list array;
      (** per buffer dimension: (driving loop, stride coefficient) pairs *)
  a_consts : int array;  (** per-dimension constant offsets *)
}

val index_affine : Ir.value -> (Ir.op * int) list * int
(** Resolve an index operand to its affine form over loop induction
    variables, seeing through [arith.addi]/[subi]/[muli] with constants. *)

val collect_accesses : ?bindings:(Ir.value * Ir.value) list -> Ir.op -> access list
(** All loads/stores inside an op; [bindings] maps inner block arguments
    back to outer values (chased transitively through node and schedule
    boundaries). *)

val dim_unroll : (Ir.op * int) list -> int
(** Parallel copies of an access along one buffer dimension: product of
    the driving loops' unroll factors. *)

val distinct_banks : u:int -> c:int -> p:int -> int
(** Distinct cyclic banks hit by [u] parallel accesses of stride [c]
    under partition factor [p]. *)

val access_conflict :
  kinds:Hida_dialects.Hida_d.partition_kind list ->
  factors:int list ->
  access ->
  int
(** Bank-conflict (serialization) multiplier of one access against a
    buffer's partition attributes; 1 = fully parallel. *)

(** {1 Loop and body statistics} *)

type body_stats = {
  macs : int;
  alus : int;
  mem_ops : int;
  dsps_per_iter : int;
  luts_per_iter : int;
  ffs_per_iter : int;
}

val body_statistics : elem:Ir.typ -> Ir.op -> body_stats
val loops_in : Ir.op -> Ir.op list
val total_trip : Ir.op -> int
(** Statically expanded iteration count over every loop nest inside. *)

val unroll_product : Ir.op -> int

(** {1 Buffer costing} *)

val buffer_brams : Ir.op -> int
(** BRAM18 blocks for a [hida.buffer], accounting for ping-pong stages,
    partition banks, streamed-window residency (["resident_rows"]) and
    the LUTRAM mapping of sub-1Kb banks. *)

val buffer_lutram : Ir.op -> int
val buffer_resource : Ir.op -> Resource.t

(** {1 Node estimation} *)

type node_est = {
  n_latency : int;  (** cycles to process one dataflow frame *)
  n_interval : int;
  n_resource : Resource.t;
  n_macs_per_frame : int;
}

val is_external_value : Ir.value -> bool
(** Ports, externally placed buffers, and top-level function arguments. *)

val estimate_node :
  Device.t -> ?bindings:(Ir.value * Ir.value) list -> Ir.op -> node_est
(** Estimate a structural node (or any loop-nest region): per-nest
    compute time under unroll/II, AXI transfer time with burst
    efficiency from the ["tile_size"] directive, and replicated-datapath
    resources. *)

type node_memo =
  Device.t ->
  bindings:(Ir.value * Ir.value) list ->
  Ir.op ->
  (unit -> node_est) ->
  node_est
(** A node-estimate memo: receives the device, bindings, node and the
    thunk computing the fresh estimate, and may serve the result from a
    store instead ([Qor_cache.node_memo]). *)

val estimate_node_or_nested :
  ?memo:node_memo ->
  Device.t ->
  bindings:(Ir.value * Ir.value) list ->
  Ir.op ->
  node_est
(** Like {!estimate_node}, but a node containing a nested schedule is
    estimated as the nested dataflow design (hierarchical dataflow).
    Every node, nested ones included, goes through [memo] when given;
    without one every estimate is computed fresh. *)

(** {1 Design estimation} *)

type design_est = {
  d_latency : int;  (** end-to-end cycles for one sample *)
  d_interval : int;  (** cycles between samples in steady state *)
  d_resource : Resource.t;
  d_macs : int;
  d_throughput : float;  (** samples/s at the device frequency *)
  d_dsp_efficiency : float;
}

val schedule_edges : Ir.op -> Ir.op list * (Ir.op * Ir.op * Ir.value) list
(** Nodes of a schedule and its producer→consumer edges (via RW/RO
    operands). *)

val stage_levels :
  Ir.op list -> (Ir.op * Ir.op * Ir.value) list -> (int, int) Hashtbl.t
(** Longest-path pipeline stage level per node id. *)

val estimate_schedule :
  ?memo:node_memo -> Device.t -> Ir.op -> int * int * Resource.t * int
(** (latency, interval, resource, macs) of one schedule. *)

val estimate_func :
  ?memo:node_memo -> Device.t -> ?batch:int -> Ir.op -> design_est
(** Estimate a whole function: its top-level schedule as a dataflow
    design, or its loose loop nests sequentially.  DSP overflow beyond
    the device is re-mapped to LUT MACs (the paper's >100% efficiency
    mechanism). *)
