(* Quality-of-results estimator (the role ScaleHLS's QoR estimator and the
   Vitis HLS synthesis reports play in the paper).  It predicts, for an
   optimized design in structural dataflow form:

   - per-node latency and initiation interval, from loop trip counts,
     unroll directives, memory-port constraints and bank-conflict analysis
     of each affine access against the buffer partition attributes;
   - resource usage (DSP / LUT / FF / BRAM18), including the
     address-calculation DSP overhead of small external tiles and the
     control-logic blow-up of misaligned unroll/partition factors;
   - whole-design interval and throughput: ping-pong dataflow interval is
     the maximum node latency, inflated by fork-join imbalance when the
     data-path balancing pass has not provided enough buffer stages;
     non-dataflow designs serialize nodes.

   All first-order effects that drive the paper's comparisons are modeled;
   absolute cycle counts are not calibrated against silicon. *)

open Hida_ir
open Ir
open Hida_dialects

(* ---- Cost tables ---- *)

(* DSP blocks consumed by one instance of a MAC-class operation.  The
   datapath precision is the element type of the buffers the node
   touches: fixed-point multipliers fit one DSP, f32 needs three. *)
let dsp_per_op ~elem name =
  match (name, Arith.classify name) with
  | ("math.sqrt" | "math.exp"), _ -> 6
  | _, Arith.Mac -> (
      match elem with
      | I1 | I8 | I16 -> 1
      | I32 | I64 | Index | F32 -> 3
      | F64 -> 8
      | _ -> 3)
  | _ -> 0

let lut_per_op ~elem name =
  match Arith.classify name with
  | Arith.Mac -> (
      match elem with F32 -> 90 | F64 -> 300 | I8 | I16 -> 12 | _ -> 40)
  | Arith.Alu -> (
      match elem with F32 -> 120 | F64 -> 400 | I8 -> 6 | I16 -> 8 | _ -> 32)
  | Arith.Memory -> 10
  | Arith.Control | Arith.Other -> 0

let ff_per_op ~elem name = lut_per_op ~elem name

(* One MAC unit (for normalized DSP-efficiency reporting). *)
let dsp_per_mac ~elem = max 1 (dsp_per_op ~elem "arith.mulf")

(* Pipeline fill depth of a node's datapath. *)
let base_depth = 10

(* ---- Access analysis ---- *)

type access = {
  a_buffer : value; (* the accessed buffer / port / memref value, outer *)
  a_store : bool;
  (* For each buffer dimension: (enclosing loop, coefficient) pairs for
     every loop induction variable appearing in that index expression. *)
  a_dims : (op * int) list array;
  (* Constant offset of each dimension's index expression (used by the
     loop-carried dependence analysis: A[i] vs A[i-1]). *)
  a_consts : int array;
}

let loop_of_iv (v : value) =
  match v.v_def with
  | Def_block_arg (blk, 0) -> (
      match Block.parent blk with
      | Some g -> (
          match Region.parent g with
          | Some op when Affine_d.is_for op -> Some op
          | _ -> None)
      | None -> None)
  | _ -> None

(* Resolve an index operand to its affine form over loop induction
   variables, seeing through arith.addi / arith.subi / arith.muli with
   constant operands (front-ends compute shifted indices this way).
   Returns (per-loop coefficients, constant). *)
let rec index_affine (v : value) : (op * int) list * int =
  match loop_of_iv v with
  | Some l -> ([ (l, 1) ], 0)
  | None -> (
      match Value.defining_op v with
      | Some def when Arith.is_constant def -> (
          match Arith.constant_int_value def with
          | Some c -> ([], c)
          | None -> ([], 0))
      | Some def
        when Op.name def = "arith.addi" || Op.name def = "arith.subi" ->
          let sign = if Op.name def = "arith.subi" then -1 else 1 in
          let p0, c0 = index_affine (Op.operand def 0) in
          let p1, c1 = index_affine (Op.operand def 1) in
          (p0 @ List.map (fun (l, c) -> (l, sign * c)) p1, c0 + (sign * c1))
      | Some def when Op.name def = "arith.muli" -> (
          let p0, c0 = index_affine (Op.operand def 0) in
          let p1, c1 = index_affine (Op.operand def 1) in
          match (p0, p1) with
          | [], _ -> (List.map (fun (l, c) -> (l, c * c0)) p1, c0 * c1)
          | _, [] -> (List.map (fun (l, c) -> (l, c * c1)) p0, c0 * c1)
          | _ -> ([], 0))
      | _ -> ([], 0))

(* Resolve accesses of all loads/stores inside [root], mapping node block
   arguments back to outer values via [bindings]. *)
let collect_accesses ?(bindings = []) root =
  (* Chase block-arg bindings transitively: a node argument resolves to a
     schedule argument, which in turn resolves to the outer buffer. *)
  let table = List.map (fun (a, b) -> (b.v_id, a)) bindings in
  let rec resolve v =
    match List.assoc_opt v.v_id table with
    | Some outer when not (Value.equal outer v) -> resolve outer
    | _ -> v
  in
  let accesses = ref [] in
  Walk.preorder root ~f:(fun op ->
      match Affine_d.accessed_memref op with
      | None -> ()
      | Some memref ->
          let indices =
            if Affine_d.is_load op then Affine_d.load_indices op
            else Affine_d.store_indices op
          in
          let map = Affine_d.access_map op in
          let num_dims = List.length indices in
          let index_forms = List.map index_affine indices in
          let analyzed =
            List.map
              (fun expr ->
                match Affine.linear_coeffs ~num_dims expr with
                | coeffs, map_const ->
                    let pairs = ref [] and const = ref map_const in
                    List.iteri
                      (fun i (iv_pairs, iv_const) ->
                        if coeffs.(i) <> 0 then begin
                          const := !const + (coeffs.(i) * iv_const);
                          List.iter
                            (fun (l, c) -> pairs := (l, coeffs.(i) * c) :: !pairs)
                            iv_pairs
                        end)
                      index_forms;
                    (List.rev !pairs, !const)
                | exception Invalid_argument _ -> ([], 0))
              map.Affine.exprs
          in
          accesses :=
            {
              a_buffer = resolve memref;
              a_store = Affine_d.is_store op;
              a_dims = Array.of_list (List.map fst analyzed);
              a_consts = Array.of_list (List.map snd analyzed);
            }
            :: !accesses);
  List.rev !accesses

(* Unrolled copies of an access along one buffer dimension: the product of
   unroll factors of the loops driving that dimension. *)
let dim_unroll (dim : (op * int) list) =
  List.fold_left (fun acc (l, _c) -> acc * Affine_d.unroll_factor l) 1 dim

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Number of distinct cyclic banks hit by [u] parallel accesses with
   address stride [c] under a cyclic partition of factor [p]. *)
let distinct_banks ~u ~c ~p =
  if p <= 1 then 1
  else
    let period = p / gcd (abs c) p in
    min u (max 1 period)

(* Bank-conflict multiplier for one access against the partition attrs of
   the buffer it touches.  1 = fully parallel, >1 = serialized accesses
   (the paper's "mismatch between node unroll factors and memory layouts"
   falling back to flawed control logic). *)
let access_conflict ~kinds ~factors access =
  let rank = Array.length access.a_dims in
  let kinds = Array.of_list kinds and factors = Array.of_list factors in
  let mult = ref 1 in
  for d = 0 to rank - 1 do
    let u = dim_unroll access.a_dims.(d) in
    if u > 1 then begin
      let p = if d < Array.length factors then factors.(d) else 1 in
      let kind = if d < Array.length kinds then kinds.(d) else Hida_d.P_none in
      let c =
        match access.a_dims.(d) with (_, c0) :: _ -> c0 | [] -> 1
      in
      let served =
        match kind with
        | Hida_d.P_none -> 1
        | Hida_d.P_cyclic -> distinct_banks ~u ~c ~p
        | Hida_d.P_block ->
            (* Unrolled consecutive accesses mostly land in one block. *)
            min u (max 1 (u * abs c / max 1 p))
      in
      mult := !mult * max 1 ((u + served - 1) / served)
    end
  done;
  !mult

(* ---- Loop / body statistics ---- *)

type body_stats = {
  macs : int;       (* MAC-class ops per innermost iteration *)
  alus : int;
  mem_ops : int;
  dsps_per_iter : int;
  luts_per_iter : int;
  ffs_per_iter : int;
}

let body_statistics ~elem root =
  let macs = ref 0 and alus = ref 0 and mems = ref 0 in
  let dsps = ref 0 and luts = ref 0 and ffs = ref 0 in
  Walk.preorder root ~f:(fun op ->
      let name = Op.name op in
      (match Arith.classify name with
      | Arith.Mac -> incr macs
      | Arith.Alu -> incr alus
      | Arith.Memory -> incr mems
      | Arith.Control | Arith.Other -> ());
      dsps := !dsps + dsp_per_op ~elem name;
      luts := !luts + lut_per_op ~elem name;
      ffs := !ffs + ff_per_op ~elem name);
  {
    macs = !macs;
    alus = !alus;
    mem_ops = !mems;
    dsps_per_iter = !dsps;
    luts_per_iter = !luts;
    ffs_per_iter = !ffs;
  }

(* All loops inside [root] (in nesting order irrelevant). *)
let loops_in root = Walk.collect root ~pred:Affine_d.is_for

let total_trip root =
  (* Product over loops of trip counts along every nest; computed as the
     sum over innermost loops of the product of their enclosing trips. *)
  let inner = Affine_d.innermost_loops root in
  List.fold_left
    (fun acc l ->
      let nest = l :: Affine_d.enclosing_loops l in
      acc + List.fold_left (fun p x -> p * Affine_d.trip_count x) 1 nest)
    0 inner

let unroll_product root =
  List.fold_left (fun acc l -> acc * Affine_d.unroll_factor l) 1 (loops_in root)

(* ---- Buffer costing ---- *)

(* BRAM18 blocks for a buffer: each bank is a separate physical memory, so
   over-partitioning wastes BRAM (minimum one 18Kb block per bank). *)
let buffer_brams op =
  match Value.typ (Op.result op 0) with
  | Memref { shape; elem } ->
      (* A "resident_rows" attribute marks a streamed intermediate whose
         tiled implementation only keeps a line-buffer window on chip:
         that many rows (second dimension) of a small channel tile (first
         dimension). *)
      let shape =
        match (Op.int_attr op "resident_rows", shape) with
        | Some r, d0 :: d1 :: rest -> min d0 8 :: min r d1 :: rest
        | _ -> shape
      in
      let elems = List.fold_left ( * ) 1 shape in
      let banks = Hida_d.bank_count op in
      let depth = Hida_d.buffer_depth op in
      let bits = elems * depth * Typ.bit_width elem in
      let bits_per_bank = (bits + banks - 1) / banks in
      (* Banks of 1Kb or less map to distributed LUTRAM, not BRAM. *)
      if bits_per_bank <= 1024 then 0
      else banks * max 1 ((bits_per_bank + 18_431) / 18_432)
  | _ -> 0

(* LUTs spent on LUTRAM banks (64 bits per SLICEM LUT). *)
let buffer_lutram op =
  match Value.typ (Op.result op 0) with
  | Memref { shape; elem } ->
      let shape =
        match (Op.int_attr op "resident_rows", shape) with
        | Some r, d0 :: d1 :: rest -> min d0 8 :: min r d1 :: rest
        | _ -> shape
      in
      let elems = List.fold_left ( * ) 1 shape in
      let banks = Hida_d.bank_count op in
      let depth = Hida_d.buffer_depth op in
      let bits = elems * depth * Typ.bit_width elem in
      let bits_per_bank = (bits + banks - 1) / banks in
      if bits_per_bank <= 1024 then (bits + 63) / 64 else 0
  | _ -> 0

let buffer_resource op =
  (* Streamized buffers were replaced by FIFO channels; the dead operand
     keeps the structural edge but costs no memory. *)
  if Op.bool_attr op "streamized" then Resource.zero
  else if Hida_d.buffer_placement op = Hida_d.External then Resource.zero
  else
    Resource.make ~bram18:(buffer_brams op)
      ~luts:((8 * Hida_d.bank_count op) + buffer_lutram op)
      ~ffs:(8 * Hida_d.bank_count op)
      ()

(* ---- Node estimation ---- *)

type node_est = {
  n_latency : int;          (* cycles to process one dataflow frame *)
  n_interval : int;         (* cycles between successive frames *)
  n_resource : Resource.t;
  n_macs_per_frame : int;   (* work content, for efficiency accounting *)
}

(* Partition attributes of the buffer feeding an access, if the outer
   value is produced by a hida.buffer. *)
let partition_of_value v =
  match Value.defining_op v with
  | Some op when Hida_d.is_buffer op ->
      (Hida_d.partition_kinds op, Hida_d.partition_factors op)
  | Some op when Hida_d.is_port op ->
      (* External ports are wide words: treat as one bank per port. *)
      ([], [])
  | _ -> ([], [])

let is_external_value v =
  match Value.defining_op v with
  | Some op when Hida_d.is_port op -> true
  | Some op when Hida_d.is_buffer op -> Hida_d.buffer_placement op = External
  | Some _ -> false
  | None -> (
      (* Block arguments of the top-level function are kernel parameters
         living in external (AXI) memory. *)
      match v.v_def with
      | Def_block_arg (blk, _) -> (
          match Block.parent blk with
          | Some g -> (
              match Region.parent g with
              | Some op -> Op.name op = "func.func"
              | None -> false)
          | None -> false)
      | _ -> false)

(* Elements moved over AXI per frame by [access]: the product of trip
   counts of the loops driving it, capped at the buffer size — tiling
   reuse means each element crosses the AXI boundary once per frame. *)
let access_footprint access =
  let raw =
    Array.fold_left
      (fun acc dim ->
        acc * List.fold_left (fun p (l, _) -> p * Affine_d.trip_count l) 1 dim)
      1 access.a_dims
  in
  let cap =
    match Value.typ access.a_buffer with
    | Memref { shape; _ } | Tensor { shape; _ } ->
        List.fold_left ( * ) 1 shape
    | _ -> raw
  in
  min raw cap

let elem_of_value v =
  match Value.typ v with
  | Memref { elem; _ } | Tensor { elem; _ } | Stream { elem; _ } -> elem
  | t -> t

(* Estimate one structural node (or, for baselines, any loop-nest region).
   [bindings] maps inner block args to outer buffer values. *)
let estimate_node (dev : Device.t) ?(bindings = []) root =
  let elem =
    (* Dominant element type: first accessed buffer's element type. *)
    let accesses = collect_accesses ~bindings root in
    match accesses with
    | a :: _ -> elem_of_value a.a_buffer
    | [] -> F32
  in
  (* Nodes may contain several sequential loop nests (fused tasks); each
     nest has its own unroll factors, datapath replication and pipeline,
     so compute time and resources accumulate per nest. *)
  let nests = Affine_d.outermost_loops root in
  let per_nest =
    List.map
      (fun nest ->
        let stats = body_statistics ~elem nest in
        let trips = max 1 (total_trip nest) in
        let unroll = max 1 (unroll_product nest) in
        let nest_accesses = collect_accesses ~bindings nest in
        let directive_ii =
          List.fold_left
            (fun acc l -> if Affine_d.is_pipelined l then max acc (Affine_d.ii l) else acc)
            1
            (Walk.collect nest ~pred:Affine_d.is_for)
        in
        let nest_ii =
          List.fold_left
            (fun ii access ->
              if is_external_value access.a_buffer then ii
              else
                let kinds, factors = partition_of_value access.a_buffer in
                max ii (access_conflict ~kinds ~factors access))
            directive_ii nest_accesses
        in
        (stats, trips, unroll, nest_ii))
      nests
  in
  let accesses = collect_accesses ~bindings root in
  (* Initiation interval: memory ports + bank conflicts.  External
     accesses stream through on-chip tile buffers and are charged as
     transfer time below, not as bank conflicts. *)
  let onchip_accesses =
    List.filter (fun a -> not (is_external_value a.a_buffer)) accesses
  in
  (* External transfer time per frame (overlapped with compute via
     double-buffering: take the max below). *)
  let transfer_cycles =
    let bits_moved =
      List.fold_left
        (fun acc access ->
          if is_external_value access.a_buffer then
            acc
            + access_footprint access * Typ.bit_width (elem_of_value access.a_buffer)
          else acc)
        0 accesses
    in
    if bits_moved = 0 then 0
    else begin
      (* Burst efficiency: short bursts pay the AXI latency repeatedly.
         The burst length is the innermost contiguous run: the node's
         external-tile size when set by the driver, otherwise the
         innermost loop trip count. *)
      let innermost_trip =
        match Op.int_attr root "tile_size" with
        | Some t -> t
        | None -> (
            match Affine_d.innermost_loops root with
            | l :: _ -> Affine_d.trip_count l
            | [] -> 1)
      in
      let words = (bits_moved + dev.axi_width_bits - 1) / dev.axi_width_bits in
      let burst = max 1 innermost_trip in
      let bursts = (words + burst - 1) / burst in
      (words / dev.axi_ports) + (bursts * dev.axi_latency / dev.axi_ports)
    end
  in
  let depth =
    base_depth
    + (if List.exists (fun a -> is_external_value a.a_buffer) accesses then
         dev.axi_latency
       else 0)
  in
  let compute =
    List.fold_left
      (fun acc (_, trips, unroll, ii) -> acc + ((trips + unroll - 1) / unroll * ii))
      depth per_nest
  in
  let latency = max compute transfer_cycles in
  (* Resources: the datapath is replicated [unroll] times. *)
  let conflict_total =
    List.fold_left
      (fun acc a ->
        let kinds, factors = partition_of_value a.a_buffer in
        acc + access_conflict ~kinds ~factors a)
      0 onchip_accesses
  in
  (* Address-calculation overhead: external accesses with tiny tiles spend
     DSPs on addressing (Fig. 10 observation). *)
  let addr_dsps =
    List.fold_left
      (fun acc a ->
        if is_external_value a.a_buffer then
          let burst =
            match Op.int_attr root "tile_size" with
            | Some t -> t
            | None -> (
                match Affine_d.innermost_loops root with
                | l :: _ -> Affine_d.trip_count l
                | [] -> 1)
          in
          (* Fine-grained control of tiny tiles spends DSPs on address
             calculation (Fig. 10's observation at tile size 2). *)
          if burst < 4 then acc + 6 else acc + 1
        else acc)
      0 accesses
  in
  let max_unroll =
    List.fold_left (fun acc (_, _, unroll, _) -> max acc unroll) 1 per_nest
  in
  let mux_luts = 12 * conflict_total * max_unroll in
  let resource =
    Resource.make
      ~dsps:
        (List.fold_left
           (fun acc (stats, _, unroll, _) -> acc + (stats.dsps_per_iter * unroll))
           addr_dsps per_nest)
      ~luts:
        (List.fold_left
           (fun acc (stats, _, unroll, _) -> acc + (stats.luts_per_iter * unroll))
           (mux_luts + 250) per_nest)
      ~ffs:
        (List.fold_left
           (fun acc (stats, _, unroll, _) -> acc + (stats.ffs_per_iter * unroll))
           (mux_luts + 250) per_nest)
      ()
  in
  {
    n_latency = latency;
    n_interval = latency;
    n_resource = resource;
    n_macs_per_frame =
      List.fold_left
        (fun acc (stats, trips, _, _) -> acc + (stats.macs * trips))
        0 per_nest;
  }

(* ---- Design estimation ---- *)

type design_est = {
  d_latency : int;      (* end-to-end cycles for one sample *)
  d_interval : int;     (* cycles between samples in steady state *)
  d_resource : Resource.t;
  d_macs : int;         (* MACs per sample *)
  d_throughput : float; (* samples/s *)
  d_dsp_efficiency : float;
}

(* Node dependence graph of a schedule: node u precedes node v when u
   writes a buffer v reads. *)
let schedule_edges sched =
  let nodes = List.filter Hida_d.is_node (Block.ops (Hida_d.node_block sched)) in
  let writes = Hashtbl.create 16 in
  List.iter
    (fun n ->
      List.iteri
        (fun i v ->
          if Hida_d.operand_effect n i = `Read_write then
            Hashtbl.replace writes v.v_id n)
        (Op.operands n))
    nodes;
  let blk = Hida_d.node_block sched in
  let index n = Option.value (Block.index_of blk n) ~default:0 in
  let edges = ref [] in
  List.iter
    (fun n ->
      List.iteri
        (fun i v ->
          if Hida_d.operand_effect n i = `Read_only then
            match Hashtbl.find_opt writes v.v_id with
            | Some producer
            (* A writer that comes later in program order is a cross-frame
               feedback (in-place updates): the reader consumes the
               previous frame's value, so there is no same-frame edge. *)
              when (not (Op.equal producer n)) && index producer < index n ->
                edges := (producer, n, v) :: !edges
            | _ -> ())
        (Op.operands n))
    nodes;
  (nodes, !edges)

(* Longest-path stage level per node (sources at level 0). *)
let stage_levels nodes edges =
  let level = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace level n.o_id 0) nodes;
  (* Relax |nodes| times (graphs are small DAGs). *)
  for _ = 1 to List.length nodes do
    List.iter
      (fun (u, v, _) ->
        let lu = Hashtbl.find level u.o_id and lv = Hashtbl.find level v.o_id in
        if lv < lu + 1 then Hashtbl.replace level v.o_id (lu + 1))
      edges
  done;
  level

type node_memo =
  Device.t -> bindings:(value * value) list -> op -> (unit -> node_est) -> node_est

let rec estimate_schedule ?memo (dev : Device.t) sched =
  let nodes, edges = schedule_edges sched in
  (* A buffer written by several nodes cannot be pipelined safely: to
     preserve correctness the whole dataflow executes sequentially until
     multi-producer elimination (Alg. 3) has run (§6.4.1). *)
  let has_multi_producer =
    let writers = Hashtbl.create 16 in
    List.iter
      (fun n ->
        List.iteri
          (fun i v ->
            if Hida_d.operand_effect n i = `Read_write then
              Hashtbl.replace writers v.v_id
                (1 + Option.value (Hashtbl.find_opt writers v.v_id) ~default:0))
          (Op.operands n))
      nodes;
    Hashtbl.fold (fun _ c acc -> acc || c > 1) writers false
  in
  let bindings = Hida_d.node_bindings sched in
  let node_ests =
    List.map
      (fun n ->
        let inner_bindings = Hida_d.node_bindings n @ bindings in
        (n, estimate_node_or_nested ?memo dev ~bindings:inner_bindings n))
      nodes
  in
  let max_lat =
    List.fold_left (fun acc (_, e) -> max acc e.n_latency) 1 node_ests
  in
  (* Fork-join imbalance: a buffer crossing [slack] pipeline stages needs
     slack+1 ping-pong stages; fewer stages stall the pipeline (§6.4.2). *)
  let levels = stage_levels nodes edges in
  let resolve_arg =
    let table =
      List.map (fun (outer, inner) -> (inner.v_id, outer)) bindings
    in
    fun v -> match List.assoc_opt v.v_id table with Some o -> o | None -> v
  in
  let edge_depth buf =
    match Value.defining_op (resolve_arg buf) with
    | Some b when Hida_d.is_buffer b -> Hida_d.buffer_depth b
    | Some b when Hida_d.is_port b -> 64 (* soft FIFO in DRAM *)
    | Some b when Hida_d.is_stream b -> (
        match Value.typ (Op.result b 0) with
        | Stream { depth; _ } -> depth
        | _ -> 2)
    | _ -> 2
  in
  let stall =
    List.fold_left
      (fun acc (u, v, buf) ->
        let slack =
          Hashtbl.find levels v.o_id - Hashtbl.find levels u.o_id
        in
        max acc (max 1 (slack + 2 - edge_depth buf)))
      1 edges
  in
  (* Single-stage (non-ping-pong) buffers cannot hold two frames, so the
     producer and consumer of such an edge cannot overlap across frames:
     chains of depth-1 edges execute serially (the behaviour of dataflow
     legalizers without §5.2's automatic ping-pong buffers).  The
     serialized interval is the sum of node latencies over each connected
     group of depth-1 edges. *)
  let serialized_interval =
    let parent = Hashtbl.create 16 in
    List.iter (fun n -> Hashtbl.replace parent n.o_id n.o_id) nodes;
    let rec find x =
      let p = Hashtbl.find parent x in
      if p = x then x
      else begin
        let r = find p in
        Hashtbl.replace parent x r;
        r
      end
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then Hashtbl.replace parent ra rb
    in
    List.iter
      (fun (u, v, buf) -> if edge_depth buf < 2 then union u.o_id v.o_id)
      edges;
    let sums = Hashtbl.create 16 in
    List.iter
      (fun (n, e) ->
        let r = find n.o_id in
        let cur = Option.value (Hashtbl.find_opt sums r) ~default:0 in
        Hashtbl.replace sums r (cur + e.n_latency))
      node_ests;
    Hashtbl.fold (fun _ s acc -> max acc s) sums 0
  in
  let full_serial =
    List.fold_left (fun acc (_, e) -> acc + e.n_latency) 0 node_ests
  in
  let interval =
    if has_multi_producer then max (max_lat * stall) full_serial
    else max (max_lat * stall) serialized_interval
  in
  let latency =
    (* Critical path: sum of latencies along stage levels. *)
    let by_level = Hashtbl.create 16 in
    List.iter
      (fun (n, e) ->
        let l = Hashtbl.find levels n.o_id in
        let cur = Option.value (Hashtbl.find_opt by_level l) ~default:0 in
        Hashtbl.replace by_level l (max cur e.n_latency))
      node_ests;
    Hashtbl.fold (fun _ v acc -> acc + v) by_level 0
  in
  let resource =
    Resource.sum (List.map (fun (_, e) -> e.n_resource) node_ests)
  in
  let macs = List.fold_left (fun acc (_, e) -> acc + e.n_macs_per_frame) 0 node_ests in
  (latency, interval, resource, macs)

(* A node may contain a nested schedule (hierarchical dataflow); otherwise
   estimate its loop nest directly. *)
and estimate_node_or_nested ?memo dev ~bindings n =
  let fresh () =
    match
      Walk.find n ~pred:(fun o -> Hida_d.is_schedule o && not (Op.equal o n))
    with
    | Some nested ->
        let lat, interval, res, macs = estimate_schedule ?memo dev nested in
        (* A schedule nested under loops inside the node (hierarchical
           dataflow) re-runs once per enclosing iteration. *)
        let reps =
          List.fold_left
            (fun acc l ->
              if Op.is_ancestor ~ancestor:n l then
                acc * max 1 (Affine_d.trip_count l)
              else acc)
            1
            (List.filter Affine_d.is_for (Op.ancestors nested))
        in
        {
          n_latency = lat + (interval * (reps - 1));
          n_interval = interval * reps;
          n_resource = res;
          n_macs_per_frame = macs * reps;
        }
    | None -> estimate_node dev ~bindings n
  in
  match memo with None -> fresh () | Some m -> m dev ~bindings n fresh

(* Estimate a whole function.  If it contains a top-level schedule, the
   design is a dataflow design; otherwise nodes are the outermost loop
   nests, executed sequentially. *)
let estimate_func ?memo (dev : Device.t) ?(batch = 1) func =
  let body = Func_d.entry_block func in
  let buffers =
    Walk.collect func ~pred:(fun op -> Hida_d.is_buffer op)
  in
  let streams = Walk.collect func ~pred:Hida_d.is_stream in
  let stream_res =
    Resource.sum
      (List.map
         (fun s ->
           match Value.typ (Op.result s 0) with
           | Stream { elem; depth } ->
               let bits = depth * Typ.bit_width elem in
               if bits <= 1024 then Resource.make ~luts:((bits + 63) / 64 + 16) ()
               else Resource.make ~bram18:((bits + 18_431) / 18_432) ~luts:16 ()
           | _ -> Resource.zero)
         streams)
  in
  let buffer_res =
    Resource.add stream_res (Resource.sum (List.map buffer_resource buffers))
  in
  let lat, interval, node_res, macs =
    match List.find_opt Hida_d.is_schedule (Block.ops body) with
    | Some sched -> estimate_schedule ?memo dev sched
    | None ->
        (* Sequential: each outermost loop nest is one stage (a nest may
           wrap a nested schedule — hierarchical dataflow). *)
        let nests = Affine_d.outermost_loops func in
        let ests =
          List.map (fun l -> estimate_node_or_nested ?memo dev ~bindings:[] l) nests
        in
        let total = List.fold_left (fun acc e -> acc + e.n_latency) 0 ests in
        let res = Resource.sum (List.map (fun e -> e.n_resource) ests) in
        let macs = List.fold_left (fun acc e -> acc + e.n_macs_per_frame) 0 ests in
        (max 1 total, max 1 total, res, macs)
  in
  let resource = Resource.add node_res buffer_res in
  (* Dominant element type of the design (datapath precision). *)
  let elem =
    let found = ref None in
    Walk.preorder func ~f:(fun op ->
        if !found = None && (Hida_d.is_buffer op || Hida_d.is_port op) then
          match Value.typ (Op.result op 0) with
          | Memref { elem; _ } -> found := Some elem
          | _ -> ());
    Option.value !found ~default:F32
  in
  (* When the DSP demand exceeds the device, the back-end instantiates the
     excess MACs with LUTs (the paper's explanation for VGG's >100% DSP
     efficiency).  LUT-mapped multipliers cost fabric instead. *)
  let resource =
    if resource.Resource.dsps > dev.dsps then begin
      let moved = resource.Resource.dsps - dev.dsps in
      let lut_per_mul = match elem with I8 | I16 -> 320 | _ -> 700 in
      let extra_luts = moved / dsp_per_mac ~elem * lut_per_mul in
      {
        resource with
        Resource.dsps = dev.dsps;
        luts = resource.Resource.luts + extra_luts;
        ffs = resource.Resource.ffs + extra_luts;
      }
    end
    else resource
  in
  let freq = Device.freq_hz dev in
  let throughput = freq /. float_of_int (max 1 interval) *. float_of_int batch in
  let mac_capacity =
    float_of_int resource.Resource.dsps /. float_of_int (dsp_per_mac ~elem)
  in
  let dsp_eff =
    if resource.Resource.dsps = 0 then 0.
    else throughput *. float_of_int macs /. (mac_capacity *. freq)
  in
  {
    d_latency = lat;
    d_interval = interval;
    d_resource = resource;
    d_macs = macs;
    d_throughput = throughput;
    d_dsp_efficiency = dsp_eff;
  }
