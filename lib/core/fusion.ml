(* Functional-dataflow task fusion (Algorithm 2 of the paper).

   Two mechanisms, applied per dispatch in pre-order:
   1. pattern-driven worklist fusion of adjacent tasks (e.g. convolution
      followed by its elementwise activation, activation followed by
      pooling) until no pattern matches;
   2. workload balancing: repeatedly fuse the two least critical adjacent
      tasks while the fusion does not create a new critical task;
   followed by hierarchy canonicalization (a task containing only one
   sub-task collapses). *)

open Hida_ir
open Ir
open Hida_dialects
open Hida_estimator
module Obs = Hida_obs.Scope

let pass_name = "functional-dataflow-task-fusion"

(* ---- Task inspection ---- *)

let payload_names task =
  List.concat_map
    (fun op ->
      if Hida_d.is_task op || Hida_d.is_dispatch op then []
      else [ Op.name op ])
    (Hida_d.body_ops task)

let last_payload_name task =
  match List.rev (payload_names task) with [] -> None | n :: _ -> Some n

let first_payload_name task =
  match payload_names task with [] -> None | n :: _ -> Some n

(* Everything the pair scans below read from a task's subtree, computed
   in one walk: buffers stored/loaded (memref dependence edges), the
   read/write id sets (hazard checks), and the free SSA values
   (dominance check).  The quadratic candidate scans re-query the same
   tasks for every pair, so [run] memoizes these records per fixpoint
   iteration (the IR is stable until a fusion restarts the scan). *)
type task_info = {
  ti_stored : value list;
  ti_loaded : value list;
  ti_reads : (int, unit) Hashtbl.t;
  ti_writes : (int, unit) Hashtbl.t;
  ti_frees : value list;
}

let task_info root =
  let reads = Hashtbl.create 8 and writes = Hashtbl.create 8 in
  let stored = ref [] and loaded = ref [] in
  let inside = Hashtbl.create 32 in
  let operands = ref [] in
  Walk.preorder root ~f:(fun o ->
      if Affine_d.is_load o then begin
        let m = Affine_d.load_memref o in
        if not (Hashtbl.mem reads m.v_id) then loaded := m :: !loaded;
        Hashtbl.replace reads m.v_id ()
      end
      else if Affine_d.is_store o then begin
        let m = Affine_d.store_memref o in
        if not (Hashtbl.mem writes m.v_id) then stored := m :: !stored;
        Hashtbl.replace writes m.v_id ()
      end
      else if Hida_d.is_copy o || Op.name o = "memref.copy" then begin
        Hashtbl.replace reads (Op.operand o 0).v_id ();
        Hashtbl.replace writes (Op.operand o 1).v_id ()
      end;
      Array.iter (fun r -> Hashtbl.replace inside r.v_id ()) o.o_results;
      Array.iter
        (fun g ->
          List.iter
            (fun b ->
              Array.iter
                (fun a -> Hashtbl.replace inside a.v_id ())
                b.b_args)
            g.g_blocks)
        o.o_regions;
      operands := o :: !operands);
  let free = ref [] in
  List.iter
    (fun o ->
      Array.iter
        (fun v ->
          if not (Hashtbl.mem inside v.v_id) then
            if not (List.exists (Value.equal v) !free) then free := v :: !free)
        o.o_operands)
    (List.rev !operands);
  {
    ti_stored = !stored;
    ti_loaded = !loaded;
    ti_reads = reads;
    ti_writes = writes;
    ti_frees = !free;
  }

(* Memo valid across fixpoint iterations: [fuse] mints a fresh op id for
   the merged task, so the only stale entries after a fusion are the ops
   whose operands [replace_all_uses] rewired — the users of the fused
   task's results.  [invalidate_users] drops those (and their enclosing
   tasks) after each fusion. *)
let info_memo () =
  let tbl = Hashtbl.create 64 in
  fun (op : op) ->
    match Hashtbl.find_opt tbl op.o_id with
    | Some i -> i
    | None ->
        let i = task_info op in
        Hashtbl.add tbl op.o_id i;
        i

let make_memos () =
  let info_tbl = Hashtbl.create 64 in
  let int_tbl = Hashtbl.create 64 in
  let info (op : op) =
    match Hashtbl.find_opt info_tbl op.o_id with
    | Some i -> i
    | None ->
        let i = task_info op in
        Hashtbl.add info_tbl op.o_id i;
        i
  in
  let intensity (op : op) =
    match Hashtbl.find_opt int_tbl op.o_id with
    | Some i -> i
    | None ->
        let i = Intensity.op_intensity op in
        Hashtbl.add int_tbl op.o_id i;
        i
  in
  (* Per-id generation counters let the pair-rejection memo below
     invalidate lazily: bumping an id retires every cached pair verdict
     that mentions it, without scanning the pair table. *)
  let gen_tbl = Hashtbl.create 64 in
  let gen (op : op) =
    Option.value ~default:0 (Hashtbl.find_opt gen_tbl op.o_id)
  in
  let invalidate_users (fused : op) =
    let rec up (o : op) =
      Hashtbl.remove info_tbl o.o_id;
      Hashtbl.remove int_tbl o.o_id;
      Hashtbl.replace gen_tbl o.o_id
        (1 + Option.value ~default:0 (Hashtbl.find_opt gen_tbl o.o_id));
      match Op.parent o with
      | None -> ()
      | Some b -> (
          match Block.parent b with
          | None -> ()
          | Some g -> ( match Region.parent g with None -> () | Some p -> up p))
    in
    Array.iter
      (fun r -> List.iter (fun (u : use) -> up u.u_op) (Value.uses r))
      fused.o_results
  in
  (info, gen, intensity, invalidate_users)

(* Does [consumer] directly use a result of [producer]? *)
let directly_consumes_i ~info ~producer ~consumer =
  List.exists
    (fun r ->
      List.exists (fun (u : use) ->
          Op.equal u.u_op consumer
          || Op.is_ancestor ~ancestor:consumer u.u_op)
        (Value.uses r))
    (Op.results producer)
  ||
  (* Memref semantics: consumer loads a buffer the producer stores. *)
  let written = (info producer).ti_stored in
  List.exists
    (fun l -> List.exists (Value.equal l) written)
    (info consumer).ti_loaded

let directly_consumes ~producer ~consumer =
  directly_consumes_i ~info:(info_memo ()) ~producer ~consumer

(* Free values of a task: outer values referenced by its body. *)
let free_values task = (task_info task).ti_frees

(* Buffers read and written (by value id) inside an op. *)
let rw_sets op =
  let i = task_info op in
  (i.ti_reads, i.ti_writes)

(* Fusing [producer] and [consumer] places the fused task at [producer]'s
   position; legal when
   - every free SSA value of [consumer] is either produced by [producer]
     or already dominates [producer]; and
   - moving [consumer] above the tasks between the two does not reorder a
     memory dependence (no RAW/WAR/WAW hazard against any op in
     between). *)
let can_fuse_i ~info ~producer ~consumer =
  (match (Op.parent producer, Op.parent consumer) with
  | Some a, Some b -> Block.equal a b
  | _ -> false)
  && List.for_all
       (fun v ->
         List.exists (Value.equal v) (Op.results producer)
         || value_dominates v producer)
       (info consumer).ti_frees
  &&
  let blk = match Op.parent producer with Some b -> b | None -> assert false in
  let between =
    match (Block.index_of blk producer, Block.index_of blk consumer) with
    | Some i, Some j when i < j ->
        List.filteri (fun k _ -> k > i && k < j) (Block.ops blk)
    | _ -> []
  in
  let ci = info consumer in
  let c_reads = ci.ti_reads and c_writes = ci.ti_writes in
  List.for_all
    (fun mid ->
      let mi = info mid in
      let m_reads = mi.ti_reads and m_writes = mi.ti_writes in
      let intersects a b = Hashtbl.fold (fun k () acc -> acc || Hashtbl.mem b k) a false in
      (not (intersects m_writes c_reads))   (* RAW *)
      && (not (intersects m_reads c_writes)) (* WAR *)
      && not (intersects m_writes c_writes) (* WAW *))
    between

let can_fuse ~producer ~consumer =
  can_fuse_i ~info:(info_memo ()) ~producer ~consumer

(* ---- Patterns ---- *)

type pattern = {
  p_name : string;
  p_fires : producer:op -> consumer:op -> bool;
}

let compute_ops =
  [ "nn.conv2d"; "nn.dwconv2d"; "nn.linear"; "nn.add" ]

let elementwise_ops = [ "nn.relu"; "nn.add" ]
let pool_ops = [ "nn.maxpool"; "nn.avgpool" ]

let mem l = function Some n -> List.mem n l | None -> false

(* Fuse an elementwise op into the task computing its input (e.g.
   conv2d + relu). *)
let compute_elementwise =
  {
    p_name = "compute-elementwise";
    p_fires =
      (fun ~producer ~consumer ->
        mem (compute_ops @ elementwise_ops) (last_payload_name producer)
        && mem elementwise_ops (first_payload_name consumer));
  }

(* Fuse pooling into the preceding convolution/activation task (the
   Conv+ReLU+Pool tasks of Table 1). *)
let activation_pool =
  {
    p_name = "activation-pool";
    p_fires =
      (fun ~producer ~consumer ->
        mem (compute_ops @ elementwise_ops) (last_payload_name producer)
        && mem pool_ops (first_payload_name consumer));
  }

let default_patterns = [ compute_elementwise; activation_pool ]

(* ---- Fusion mechanics ---- *)

(* Fuse two tasks into a new task wrapping both, then flatten so the new
   task directly contains the payload (canonicalization of nested
   single-task hierarchies). *)
let fuse producer consumer =
  let fused = Construct.wrap_ops ~kind:`Task [ producer; consumer ] in
  (* Inline the inner tasks. *)
  let body = Hida_d.body fused in
  List.iter
    (fun inner ->
      if Hida_d.is_task inner then begin
        let inner_body = Hida_d.body inner in
        let yielded = ref [] in
        List.iter
          (fun o ->
            if Hida_d.is_yield o then yielded := Op.operands o
            else begin
              Block.remove inner_body o;
              Block.insert_before body ~anchor:inner o
            end)
          (Block.ops inner_body);
        List.iteri
          (fun i r -> replace_all_uses ~old_value:r ~new_value:(List.nth !yielded i))
          (Op.results inner);
        erase_op inner
      end)
    (Block.ops body);
  fused

(* ---- Algorithm 2 ---- *)

let task_intensity = Intensity.op_intensity

(* ---- Decision replay ----

   The sequence of fusions a dispatch undergoes is a deterministic
   function of its content, so once a compile has fused a dispatch, its
   (producer index, consumer index) pairs — recorded against the task
   list as it stood before each single fusion — can be replayed
   verbatim on any dispatch with the same content digest, skipping the
   quadratic legality and intensity scans that dominate this pass.
   Recording only happens when a store is attached. *)

let task_pos tasks op =
  let rec go i = function
    | [] -> raise Not_found
    | t :: _ when Op.equal t op -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 tasks

let record log ~kind ~tasks ~producer ~consumer =
  match log with
  | None -> ()
  | Some l ->
      l := (kind, task_pos tasks producer, task_pos tasks consumer) :: !l

(* Replay is trusted: the key is a content digest of the whole dispatch,
   so a recorded step can only be out of range if the store is corrupt
   ([Qor_cache.find_fusion] already rejects undecodable entries). *)
let replay_steps d steps =
  List.iter
    (fun (kind, i, j) ->
      let tasks = List.filter Hida_d.is_task (Block.ops (Hida_d.body d)) in
      if j < List.length tasks then begin
        Obs.count
          (if kind = "B" then "fusion.balancing_fusions"
           else "fusion.tasks_fused")
          1;
        ignore (fuse (List.nth tasks i) (List.nth tasks j))
      end
      else
        Obs.remark ~op:d ~pass:pass_name Hida_obs.Remark.Error
          "fusion replay step %s,%d,%d out of range; dropping it" kind i j)
    steps

(* Pattern-driven worklist fusion inside one dispatch. *)
let payload_summary task =
  match payload_names task with
  | [] -> "<empty>"
  | names -> String.concat "+" names

let apply_patterns ?log patterns d =
  let changed = ref true in
  let info, gen, _, invalidate_users = make_memos () in
  (* Rejected (producer, consumer) pairs, stamped with both ops'
     invalidation generations.  Only the content-based rejections land
     here — no dataflow edge, or no pattern fires — which hold until a
     fusion rewires one side's operands; [can_fuse]'s legality verdict
     also depends on the tasks between the pair, so it is re-checked
     on every scan.  This turns the fixpoint's full restarts (one per
     fusion) from quadratic pair re-checks into hash lookups. *)
  let rejected : (int * int, int * int) Hashtbl.t = Hashtbl.create 256 in
  while !changed do
    changed := false;
    let tasks = List.filter Hida_d.is_task (Block.ops (Hida_d.body d)) in
    let rec try_pairs = function
      | [] -> ()
      | producer :: rest ->
          let candidate =
            List.find_map
              (fun consumer ->
                let pair = (producer.o_id, consumer.o_id) in
                let stamp = (gen producer, gen consumer) in
                if Hashtbl.find_opt rejected pair = Some stamp then None
                else if
                  directly_consumes_i ~info ~producer ~consumer
                  && List.exists
                       (fun p -> p.p_fires ~producer ~consumer)
                       patterns
                then
                  if can_fuse_i ~info ~producer ~consumer then
                    List.find_opt
                      (fun p -> p.p_fires ~producer ~consumer)
                      patterns
                    |> Option.map (fun p -> (consumer, p))
                  else None
                else begin
                  Hashtbl.replace rejected pair stamp;
                  None
                end)
              rest
          in
          (match candidate with
          | Some (consumer, pat) ->
              Obs.count "fusion.tasks_fused" 1;
              Obs.remark ~op:producer ~pass:pass_name Hida_obs.Remark.Remark
                "fused %s with %s (pattern %s)" (payload_summary producer)
                (payload_summary consumer) pat.p_name;
              record log ~kind:"P" ~tasks ~producer ~consumer;
              invalidate_users (fuse producer consumer);
              changed := true
          | None -> try_pairs rest)
    in
    try_pairs tasks
  done;
  (* Report pattern matches that were blocked by legality (dominance or
     an intervening memory dependence) as missed optimizations. *)
  let tasks = List.filter Hida_d.is_task (Block.ops (Hida_d.body d)) in
  (* The fixpoint's memos are still precise here (fusions invalidated
     their rewired users), so the scan reuses them; pairs in [rejected]
     failed the dataflow-edge or pattern check and cannot be missed
     legality opportunities. *)
  let rec missed = function
    | [] -> ()
    | producer :: rest ->
        List.iter
          (fun consumer ->
            if
              Hashtbl.find_opt rejected (producer.o_id, consumer.o_id)
              <> Some (gen producer, gen consumer)
              && directly_consumes_i ~info ~producer ~consumer
              && List.exists (fun p -> p.p_fires ~producer ~consumer) patterns
              && not (can_fuse_i ~info ~producer ~consumer)
            then begin
              Obs.count "fusion.missed" 1;
              Obs.remark ~op:producer ~pass:pass_name Hida_obs.Remark.Missed
                "cannot fuse %s with %s: dominance or memory dependence \
                 blocks reordering"
                (payload_summary producer) (payload_summary consumer)
            end)
          rest;
        missed rest
  in
  missed tasks

(* Balancing fusion: fuse the least critical connected pair while
   profitable (the fusion does not become the new critical task). *)
let apply_balancing ?log d =
  let continue_ = ref true in
  let info, _, intensity, invalidate_users = make_memos () in
  while !continue_ do
    continue_ := false;
    let tasks = List.filter Hida_d.is_task (Block.ops (Hida_d.body d)) in
    if List.length tasks > 2 then begin
      let max_intensity =
        List.fold_left (fun acc t -> max acc (intensity t)) 0 tasks
      in
      (* Candidate pairs: producer-consumer connected, fusable. *)
      let pairs = ref [] in
      let rec collect = function
        | [] -> ()
        | producer :: rest ->
            List.iter
              (fun consumer ->
                if
                  directly_consumes_i ~info ~producer ~consumer
                  && can_fuse_i ~info ~producer ~consumer
                then
                  pairs :=
                    (intensity producer + intensity consumer, producer, consumer)
                    :: !pairs)
              rest;
            collect rest
      in
      collect tasks;
      match List.sort (fun (a, _, _) (b, _, _) -> compare a b) !pairs with
      | (combined, producer, consumer) :: _ when combined < max_intensity ->
          Obs.count "fusion.balancing_fusions" 1;
          Obs.remark ~op:producer ~pass:pass_name Hida_obs.Remark.Remark
            "balancing: fused %s with %s (combined intensity %d < critical %d)"
            (payload_summary producer) (payload_summary consumer) combined
            max_intensity;
          record log ~kind:"B" ~tasks ~producer ~consumer;
          invalidate_users (fuse producer consumer);
          continue_ := true
      | (combined, producer, consumer) :: _ ->
          Obs.remark ~op:producer ~pass:pass_name Hida_obs.Remark.Missed
            "balancing stops: fusing %s with %s (intensity %d) would create \
             a new critical task (current max %d)"
            (payload_summary producer) (payload_summary consumer) combined
            max_intensity
      | [] -> ()
    end
  done

(* Canonicalize: a dispatch containing a single task collapses into the
   task's content staying in place (handled lazily by later passes); a
   task containing only one sub-task inlines it. *)
let simplify d =
  Walk.preorder d ~f:(fun op ->
      if Hida_d.is_task op then
        match Hida_d.body_ops op with
        | [ inner ] when Hida_d.is_task inner ->
            let inner_body = Hida_d.body inner in
            let body = Hida_d.body op in
            let yielded = ref [] in
            List.iter
              (fun o ->
                if Hida_d.is_yield o then yielded := Op.operands o
                else begin
                  Block.remove inner_body o;
                  Block.insert_before body ~anchor:inner o
                end)
              (Block.ops inner_body);
            List.iteri
              (fun i r ->
                replace_all_uses ~old_value:r ~new_value:(List.nth !yielded i))
              (Op.results inner);
            erase_op inner
        | _ -> ())

let run ?(patterns = default_patterns) ?(balance = true) ?store m =
  let dispatches = Walk.collect m ~pred:Hida_d.is_dispatch in
  List.iter
    (fun d ->
      (* Key only when a store is attached: compiles without one pay no
         digest walk. *)
      let slot =
        Option.map
          (fun st ->
            ( st,
              "fusion:"
              ^ String.concat "+" (List.map (fun p -> p.p_name) patterns)
              ^ (if balance then ":b:" else ":nb:")
              ^ Subtree.digest ~describe_free:Subtree.describe_full d ))
          store
      in
      let replayed =
        match Option.bind slot (fun (st, k) -> Qor_cache.find_fusion st k) with
        | None -> false
        | Some steps ->
            replay_steps d steps;
            if steps <> [] then
              Obs.remark ~op:d ~pass:pass_name Hida_obs.Remark.Analysis
                "replayed %d fusion decision(s) from the subtree store"
                (List.length steps);
            true
      in
      if not replayed then begin
        let log = Option.map (fun _ -> ref []) slot in
        apply_patterns ?log patterns d;
        if balance then apply_balancing ?log d;
        match (slot, log) with
        | Some (st, k), Some l -> Qor_cache.store_fusion st k (List.rev !l)
        | _ -> ()
      end;
      simplify d)
    dispatches

let pass ?patterns ?balance ?store () =
  Pass.make ~name:"functional-dataflow-task-fusion" (fun m ->
      run ?patterns ?balance ?store m)
