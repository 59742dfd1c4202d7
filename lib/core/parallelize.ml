(* Structural dataflow parallelization (§6.5): the intensity-aware (IA)
   and connection-aware (CA) node parallelization.

   Step (1) intensity and connection analysis  -> [Intensity]
   Step (2) node sorting by connection count, intensity as tie-breaker
   Step (3) parallel factor generation proportional to intensity
   Step (4) per-node constrained DSE           -> [Dse]

   The mode record enables the ablation groups of §7.3 (IA+CA, IA-only,
   CA-only, Naive).

   Per-node DSE is organized as prepare / execute / merge so the execute
   phase can run on OCaml 5 worker domains: [prepare_task] snapshots
   everything a search reads (dims, constraints, the bank-cost context
   derived from already-parallelized neighbours) into plain data on the
   orchestrating domain, [execute_task] is a pure computation over that
   snapshot, and the merge applies
   unroll directives and reports metrics/remarks in the sequential
   order.  Nodes are grouped into levels of the connection graph; nodes
   within one level share no connection, so their constraint sets are
   independent and the merged result is identical to the sequential
   IA+CA loop of Algorithm 4 whatever [jobs] is. *)

open Hida_ir
open Ir
open Hida_dialects
module Obs = Hida_obs.Scope
module Clock = Hida_obs.Clock
module Qor_cache = Hida_estimator.Qor_cache

let pass_name = "dataflow-parallelization"

type mode = { ia : bool; ca : bool }

let ia_ca = { ia = true; ca = true }
let ia_only = { ia = true; ca = false }
let ca_only = { ia = false; ca = true }
let naive = { ia = false; ca = false }

let mode_name m =
  match (m.ia, m.ca) with
  | true, true -> "IA+CA"
  | true, false -> "IA"
  | false, true -> "CA"
  | false, false -> "Naive"

type node_result = {
  r_node : op;
  r_intensity : int;
  r_parallel_factor : int;
  r_factors : int array; (* per spine level *)
}

let round_pow2 x =
  if x <= 1 then 1
  else
    let l = Float.round (Float.log (float_of_int x) /. Float.log 2.) in
    int_of_float (2. ** l)

(* Step (3): parallel factor proportional to intensity (IA), or the
   maximum factor for every node (non-IA). *)
let parallel_factor ~mode ~max_pf ~max_intensity intensity =
  if not mode.ia then max_pf
  else
    let raw =
      float_of_int max_pf *. float_of_int intensity
      /. float_of_int (max 1 max_intensity)
    in
    max 1 (round_pow2 (int_of_float (Float.round raw)))

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)
let lcm a b = if a = 0 || b = 0 then max a b else abs (a * b) / gcd a b

(* Required cyclic partition factor for [u] parallel accesses of stride
   [c]. *)
let required_banks ~u ~c = if u <= 1 then 1 else u * max 1 (abs c)

(* ---- Bank-cost snapshots ------------------------------------------- *)

(* One already-parallelized connection, reduced to the plain data the
   cost function reads: the per-buffer-dimension (level, stride) info,
   which side of the connection this node is, and the neighbour's frozen
   unroll factors.  Snapshotting makes the cost function pure — worker
   domains never touch the IR or the [parallelized] table. *)
type cost_term = {
  ct_dim_info : ((int * int) option * (int * int) option) array;
  ct_this_is_source : bool;
  ct_other_factors : int array;
}

let cost_context ~connections ~parallelized ~node =
  List.filter_map
    (fun (c : Intensity.connection) ->
      let this_is_source = Op.equal c.Intensity.c_source node in
      let other =
        if this_is_source then c.Intensity.c_target else c.Intensity.c_source
      in
      match Hashtbl.find_opt parallelized other.o_id with
      | None -> None
      | Some (fs : int array) ->
          Some
            {
              ct_dim_info = c.Intensity.c_dim_info;
              ct_this_is_source = this_is_source;
              ct_other_factors = fs;
            })
    connections

(* Bank cost of a proposal over a snapshot: total banks over the buffers
   connecting this node to already-parallelized neighbours (the QoR
   feedback of line 20 in Algorithm 4, specialized to the memory
   subsystem which dominates the coupled design space). *)
let snapshot_bank_cost ctx proposal =
  let cost = ref 0 in
  List.iter
    (fun term ->
      let buffer_banks = ref 1 in
      Array.iter
        (fun (s_info, t_info) ->
          let this_info = if term.ct_this_is_source then s_info else t_info in
          let other_info = if term.ct_this_is_source then t_info else s_info in
          let req info factors =
            match info with
            | Some (lvl, stride) when lvl < Array.length factors ->
                required_banks ~u:factors.(lvl) ~c:stride
            | _ -> 1
          in
          let p =
            lcm (req this_info proposal) (req other_info term.ct_other_factors)
          in
          buffer_banks := !buffer_banks * max 1 p)
        term.ct_dim_info;
      cost := !cost + !buffer_banks)
    ctx;
  float_of_int !cost

let bank_cost ~connections ~parallelized ~node proposal =
  snapshot_bank_cost (cost_context ~connections ~parallelized ~node) proposal

(* Constraints on [node]'s spine levels from an already-parallelized
   connected node (lines 3-8 of Algorithm 4): the neighbour's factors are
   scaled by the connection's scaling map and permuted into this node's
   loop space. *)
let connection_constraint ~node (c : Intensity.connection) other_factors =
  if Op.equal c.Intensity.c_target node then begin
    (* Neighbour is the source: use source-to-target maps. *)
    let nt = Array.length c.Intensity.c_s_to_t_perm in
    Array.init nt (fun jt ->
        match c.Intensity.c_s_to_t_perm.(jt) with
        | Some js when js < Array.length other_factors ->
            let scale =
              match c.Intensity.c_s_to_t_scale.(js) with
              | Some s -> s
              | None -> 1.
            in
            Some
              (max 1
                 (int_of_float
                    (Float.round (float_of_int other_factors.(js) *. scale))))
        | _ -> None)
  end
  else begin
    let ns = Array.length c.Intensity.c_t_to_s_perm in
    Array.init ns (fun js ->
        match c.Intensity.c_t_to_s_perm.(js) with
        | Some jt when jt < Array.length other_factors ->
            let scale =
              match c.Intensity.c_t_to_s_scale.(jt) with
              | Some s -> s
              | None -> 1.
            in
            Some
              (max 1
                 (int_of_float
                    (Float.round (float_of_int other_factors.(jt) *. scale))))
        | _ -> None)
  end

(* Parallelize one schedule.  Returns per-node results (used by the
   Listing-1 bench to print Table 5). *)
let search_with engine ?(constraints = []) ?(cost = fun _ -> 0.) ?stats ~dims
    ~parallel_factor () =
  match engine with
  | `Exhaustive -> Dse.search ~constraints ~cost ?stats ~dims ~parallel_factor ()
  | `Stochastic seed ->
      Dse.search_stochastic ~constraints ~cost ~seed ?stats ~dims
        ~parallel_factor ()

(* Run one DSE invocation under a trace span, reporting the proposed /
   valid / pruned point counts to the ambient metrics. *)
let observed_search engine ?constraints ?cost ~label ~dims ~parallel_factor () =
  Obs.span ~cat:"dse" label (fun () ->
      let stats = { Dse.proposed = 0; valid = 0 } in
      let factors =
        search_with engine ?constraints ?cost ~stats ~dims ~parallel_factor ()
      in
      Obs.count "dse.points_proposed" stats.Dse.proposed;
      Obs.count "dse.points_evaluated" stats.Dse.valid;
      Obs.count "dse.points_pruned" (stats.Dse.proposed - stats.Dse.valid);
      factors)

let factors_string factors =
  "["
  ^ String.concat "," (List.map string_of_int (Array.to_list factors))
  ^ "]"

(* ---- Memo keys ------------------------------------------------------ *)

(* Serializations of the complete input of one deterministic search, so
   a store hit can skip the whole exploration, and identical searches of
   one schedule are solved once. *)

let ser_dims dims =
  String.concat ";"
    (List.map
       (fun (d : Dse.dim) ->
         Printf.sprintf "%d%s%s" d.Dse.trip
           (if d.Dse.reduction then "r" else "")
           (if d.Dse.serial then "s" else ""))
       (Array.to_list dims))

let ser_opt_int = function None -> "-" | Some k -> string_of_int k

let ser_constraints cs =
  String.concat "|"
    (List.map
       (fun c -> String.concat "," (List.map ser_opt_int (Array.to_list c)))
       cs)

let ser_info = function
  | None -> "-"
  | Some (lvl, stride) -> Printf.sprintf "%d.%d" lvl stride

let ser_context ctx =
  String.concat "|"
    (List.map
       (fun term ->
         Printf.sprintf "%s%s~%s"
           (if term.ct_this_is_source then "S" else "T")
           (String.concat ","
              (List.map
                 (fun (s, t) -> ser_info s ^ "/" ^ ser_info t)
                 (Array.to_list term.ct_dim_info)))
           (factors_string term.ct_other_factors))
       ctx)

let engine_tag = function
  | `Exhaustive -> "ex"
  | `Stochastic seed -> "st" ^ string_of_int seed

(* Candidate cost over a context snapshot.  The instrumentation records
   each cost invocation as one candidate scored: a histogram sample
   always, a per-candidate trace span only in detailed ([--profile])
   mode.  Timing changes no result.  The returned closure is pure data
   over the snapshot, so it is safe to call from pool worker domains
   (the ambient scope is re-installed there before tasks run). *)
let make_cost ctx =
  let cost = match ctx with [] -> fun _ -> 0. | _ -> snapshot_bank_cost ctx in
  if Option.is_none (Obs.current ()) then cost
  else fun proposal ->
    let t0 = Clock.now_ns () in
    let c = cost proposal in
    let t1 = Clock.now_ns () in
    Obs.observe "dse.candidate_eval_ns" (t1 - t0);
    Obs.count "dse.candidate_eval_total_ns" (t1 - t0);
    if Obs.detailed () then
      Obs.complete ~cat:"dse" "candidate"
        ~args:
          [ ("factors", factors_string proposal); ("cost", string_of_float c) ]
        ~start_ns:t0 ~stop_ns:t1;
    c

(* The key of one deterministic search: engine + seed, parallel
   factor, dims with their reduction/serial classes, connection
   constraints and the bank-cost context — every input, so hits are
   always semantically valid. *)
let search_key engine ~constraints ~ctx ~dims ~parallel_factor =
  String.concat "#"
    [
      "dse";
      engine_tag engine;
      string_of_int parallel_factor;
      ser_dims dims;
      ser_constraints constraints;
      ser_context ctx;
    ]

(* A stored search result must have one factor per spine level; any
   other tuple is a corrupt entry. *)
let find_search store ~dims key =
  Qor_cache.find_factors store key ~valid:(fun f ->
      Array.length f = Array.length dims)

(* One per-node DSE through the store (the sequential entry, used for
   bare loop nests; schedule-level DSE goes through the candidate-task
   planner below).  On a miss [stats] reflects the exploration; on a
   hit it stays zero (no points were proposed). *)
let cached_search ?store engine ~constraints ~ctx ~dims ~parallel_factor
    ~stats () =
  let search () =
    search_with engine ~constraints ~cost:(make_cost ctx) ~stats ~dims
      ~parallel_factor ()
  in
  match store with
  | None -> search ()
  | Some st -> (
      let key = search_key engine ~constraints ~ctx ~dims ~parallel_factor in
      match find_search st ~dims key with
      | Some f -> f
      | None ->
          let f = search () in
          Qor_cache.store_factors st key f;
          f)

(* ---- Level scheduling ----------------------------------------------- *)

(* Group the search order into levels: a node's level is one past the
   highest level among its connected neighbours that come earlier in the
   order.  Any connection between two nodes places them on different
   levels, so nodes within one level are pairwise unconnected; their
   connection constraints and bank-cost contexts are derived exclusively
   from the [parallelized] table, which is frozen while a level
   executes, so exploring a level's nodes concurrently and merging in
   order is observationally identical to the sequential loop. *)
let level_schedule ~order ~connections =
  let pos = Hashtbl.create 16 in
  List.iteri (fun i (n : op) -> Hashtbl.replace pos n.o_id i) order;
  let level = Hashtbl.create 16 in
  List.iteri
    (fun i n ->
      let lvl =
        List.fold_left
          (fun acc (c : Intensity.connection) ->
            let other =
              if Op.equal c.Intensity.c_source n then c.Intensity.c_target
              else c.Intensity.c_source
            in
            match Hashtbl.find_opt pos other.o_id with
            | Some j when j < i -> max acc (1 + Hashtbl.find level other.o_id)
            | _ -> acc)
          0
          (Intensity.connections_of connections n)
      in
      Hashtbl.replace level n.o_id lvl)
    order;
  let max_level = Hashtbl.fold (fun _ l acc -> max acc l) level 0 in
  List.init (max_level + 1) (fun l ->
      List.filter (fun (n : op) -> Hashtbl.find level n.o_id = l) order)

(* ---- Per-node tasks: prepare / plan / commit -------------------------- *)

type sub_task = { st_spine : op list; st_dims : Dse.dim array }

type node_task = {
  t_node : op;
  t_intensity : int;
  t_pf : int;
  t_spine : op list;
  t_dims : Dse.dim array;
  t_constraints : int option array list;
  t_ctx : cost_term list;
  t_subs : sub_task list;
}

type node_outcome = {
  o_factors : int array;
  o_stats : Dse.stats;
  o_subs : (sub_task * int array * Dse.stats) list;
}

(* ---- Work-stealing execution over candidate evaluations --------------

   The unit of scheduled work is a {e chunk of candidate evaluations}
   (or one whole stochastic search), not a node: resnet18 has ~40 nodes
   but ~1200 candidate evaluations, so node-grained scheduling left most
   of a level's slot time stuck behind its slowest node (the
   barrier-wait bucket of BENCH_profile.json).  Tasks run on the
   persistent [Domain_pool] — domains are spawned once and reused
   across levels, across compiles and across [hida-serve] requests —
   and idle participants steal queued chunks, so a level's tail is
   shared instead of waited out.

   Determinism: each search of a level is planned into a dedicated slot
   and committed in node order after the batch, and the candidate
   comparison is a strict total order on distinct tuples (the winner is
   unique), so neither completion order nor chunk boundaries can show
   in the output.  Per schedule, only the {e first} occurrence of a
   search key probes the store and is searched; duplicates, in the same
   level or a later one, share their leader's slot.  Candidate costs are
   evaluated exactly once per enumerated candidate on every path, so
   eval counts do not depend on jobs. *)

let eval_chunk_size = 16

(* Below this many candidate evaluations, a level runs inline on the
   calling domain: dispatching to the pool costs more than it can save
   (the mvt-class regression — tiny lattices paid full spawn/steal
   machinery). *)
let inline_eval_threshold = 48

(* One search the current level must still compute (no store entry at
   plan time).  Exhaustive searches carry their enumerated candidates
   pre-chunked plus a result slot per candidate; a stochastic search is
   a single opaque task (its propose/evaluate loop is inherently
   sequential). *)
type pending = {
  pd_key : string;
  pd_dims : Dse.dim array;
  pd_cost : int array -> float;
  pd_chunks : int array array array;
  pd_evals : (int array * float) array array;
  pd_whole : (unit -> int array) option;
  mutable pd_result : int array; (* the winner, set once the batch ran *)
  pd_ns : int Atomic.t; (* summed task time, for node-search attribution *)
}

(* How one search of the level resolves. *)
type search_slot =
  | S_ready of int array (* plan-time store hit *)
  | S_work of pending (* first occurrence: computed by this level's batch *)
  | S_dup of search_slot (* duplicate key: shares its leader's result *)

let plan_search ?store engine ~seen ~pending_rev ~constraints ~ctx ~dims
    ~parallel_factor ~stats =
  let key = search_key engine ~constraints ~ctx ~dims ~parallel_factor in
  match Hashtbl.find_opt seen key with
  | Some leader ->
      (* Structure sharing: an identical search key is solved once per
         schedule and resolved for every duplicate site.  The leader
         may itself be a store hit, in which case the whole group costs
         zero searches. *)
      Hida_obs.Scope.count "dse.search_dedup" 1;
      S_dup leader
  | None ->
      let slot =
        match Option.bind store (fun st -> find_search st ~dims key) with
        | Some f -> S_ready f
        | None ->
            let cost = make_cost ctx in
            let pd =
              match engine with
              | `Exhaustive ->
                  let candidates =
                    Dse.enumerate ~constraints ~stats ~dims ~parallel_factor ()
                  in
                  let n = List.length candidates in
                  let nchunks = (n + eval_chunk_size - 1) / eval_chunk_size in
                  let arr = Array.of_list candidates in
                  let chunks =
                    Array.init nchunks (fun j ->
                        Array.sub arr (j * eval_chunk_size)
                          (min eval_chunk_size (n - (j * eval_chunk_size))))
                  in
                  {
                    pd_key = key;
                    pd_dims = dims;
                    pd_cost = cost;
                    pd_chunks = chunks;
                    pd_evals =
                      Array.map (Array.map (fun _ -> ([||], 0.))) chunks;
                    pd_whole = None;
                    pd_result = [||];
                    pd_ns = Atomic.make 0;
                  }
              | `Stochastic _ ->
                  {
                    pd_key = key;
                    pd_dims = dims;
                    pd_cost = cost;
                    pd_chunks = [||];
                    pd_evals = [||];
                    pd_whole =
                      Some
                        (fun () ->
                          search_with engine ~constraints ~cost ~stats ~dims
                            ~parallel_factor ());
                    pd_result = [||];
                    pd_ns = Atomic.make 0;
                  }
            in
            pending_rev := pd :: !pending_rev;
            S_work pd
      in
      Hashtbl.add seen key slot;
      slot

let pending_tasks pd =
  match pd.pd_whole with
  | Some f ->
      [
        (fun () ->
          let t0 = Clock.now_ns () in
          pd.pd_result <- f ();
          ignore (Atomic.fetch_and_add pd.pd_ns (Clock.now_ns () - t0)));
      ]
  | None ->
      Array.to_list
        (Array.mapi
           (fun j chunk () ->
             let t0 = Clock.now_ns () in
             Array.iteri
               (fun i cand -> pd.pd_evals.(j).(i) <- (cand, pd.pd_cost cand))
               chunk;
             ignore (Atomic.fetch_and_add pd.pd_ns (Clock.now_ns () - t0)))
           pd.pd_chunks)

let pending_evals pd =
  match pd.pd_whole with
  | Some _ -> inline_eval_threshold (* a whole search always justifies a task *)
  | None -> Array.fold_left (fun acc c -> acc + Array.length c) 0 pd.pd_chunks

(* Settle one search after its batch ran: reduce the chunk winners (the
   comparison's total order makes the result independent of chunk
   boundaries) and write the factors to the store under the search
   key.  Runs in plan order, so store writes are deterministic. *)
let settle ?store pd =
  (match pd.pd_whole with
  | Some _ -> ()
  | None ->
      let best = ref None in
      Array.iter
        (Array.iter (fun (cand, c) ->
             match !best with
             | None -> best := Some (cand, c)
             | Some (b, cb) ->
                 let cost x = if x == cand then c else cb in
                 if Dse.compare_candidates ~dims:pd.pd_dims ~cost cand b < 0
                 then best := Some (cand, c)))
        pd.pd_evals;
      pd.pd_result <-
        (match !best with
        | Some (b, _) -> b
        | None -> Array.make (Array.length pd.pd_dims) 1));
  Option.iter (fun st -> Qor_cache.store_factors st pd.pd_key pd.pd_result) store

let rec resolve_slot = function
  | S_ready f -> f
  | S_work pd -> pd.pd_result
  | S_dup leader -> resolve_slot leader

let publish_batch (rep : Domain_pool.batch_report) =
  Obs.count "parallelize.pool.wall_ns" rep.Domain_pool.br_wall_ns;
  Obs.count "parallelize.pool.busy_ns" rep.Domain_pool.br_busy_ns;
  Obs.count "parallelize.pool.slots_ns"
    (rep.Domain_pool.br_wall_ns * rep.Domain_pool.br_slots);
  Obs.count "parallelize.pool.tasks" rep.Domain_pool.br_tasks;
  Obs.count "parallelize.pool.steals" rep.Domain_pool.br_steals;
  Obs.gauge "parallelize.pool.utilization"
    (Float.min 1.
       (float_of_int rep.Domain_pool.br_busy_ns
       /. float_of_int
            (max 1 (rep.Domain_pool.br_wall_ns * rep.Domain_pool.br_slots))));
  let tail = rep.Domain_pool.br_tail_wait_ns in
  if tail > 0 then begin
    (* The residual of the old end-of-level barrier: the submitting
       domain idle between its last takeable task and the batch's last
       in-flight completion. *)
    Obs.observe "dse.barrier_wait_ns" tail;
    Obs.count "dse.barrier_wait_total_ns" tail;
    if Obs.detailed () then
      let now = Clock.now_ns () in
      Obs.complete ~cat:"dse" "barrier-wait:caller" ~start_ns:(now - tail)
        ~stop_ns:now
  end

(* Execute one level: plan every search (primary + fused sub-nests) of
   every node into slots ([seen] holds the slots of the schedule so
   far), run the deduplicated work — inline when tiny, as one
   stolen-from task batch otherwise — and commit in node order.
   Returns outcomes aligned with [tasks]. *)
let execute_level ?store engine ~seen ~jobs ~level_index tasks =
  let pending_rev = ref [] in
  let planned =
    List.map
      (fun t ->
        let pstats = { Dse.proposed = 0; valid = 0 } in
        let primary =
          plan_search ?store engine ~seen ~pending_rev
            ~constraints:t.t_constraints ~ctx:t.t_ctx ~dims:t.t_dims
            ~parallel_factor:t.t_pf ~stats:pstats
        in
        let subs =
          List.map
            (fun st ->
              let sstats = { Dse.proposed = 0; valid = 0 } in
              let slot =
                plan_search ?store engine ~seen ~pending_rev ~constraints:[]
                  ~ctx:[] ~dims:st.st_dims ~parallel_factor:t.t_pf
                  ~stats:sstats
              in
              (st, slot, sstats))
            t.t_subs
        in
        (t, primary, pstats, subs))
      tasks
  in
  let pendings = List.rev !pending_rev in
  let work = Array.of_list (List.concat_map pending_tasks pendings) in
  let total_evals =
    List.fold_left (fun acc pd -> acc + pending_evals pd) 0 pendings
  in
  let slots = Domain_pool.effective_jobs jobs in
  if Array.length work > 0 then begin
    if
      jobs <= 1 || slots <= 1
      || Array.length work <= 1
      || total_evals < inline_eval_threshold
    then begin
      (* Sub-threshold level: run on the calling domain, in plan order
         (also the byte-exact cache-access order of the sequential
         path). *)
      Array.iter (fun f -> f ()) work;
      if jobs > 1 then Obs.count "parallelize.pool.inline_levels" 1
    end
    else
      Obs.span ~cat:"dse"
        (Printf.sprintf "dse:level%d[%d tasks, %d slots]" level_index
           (Array.length work) slots)
        (fun () ->
          let wrapped =
            match Obs.current () with
            | None -> work
            | Some s -> Array.map (fun f () -> Obs.with_scope s f) work
          in
          publish_batch (Domain_pool.run_batch ~jobs wrapped))
  end;
  List.iter (settle ?store) pendings;
  (* Ordered commit. *)
  List.map
    (fun (t, primary, pstats, subs) ->
      let node_ns =
        let of_slot = function S_work pd -> Atomic.get pd.pd_ns | _ -> 0 in
        List.fold_left
          (fun acc (_, slot, _) -> acc + of_slot slot)
          (of_slot primary) subs
      in
      Obs.observe "dse.node_search_ns" node_ns;
      Obs.count "dse.node_search_total_ns" node_ns;
      let factors = resolve_slot primary in
      let o_subs =
        List.map
          (fun (st, slot, sstats) -> (st, resolve_slot slot, sstats))
          subs
      in
      (t, { o_factors = factors; o_stats = pstats; o_subs }))
    planned

let dims_of_spine owner spine =
  Array.of_list
    (List.map
       (fun l ->
         let cls = Intensity.loop_class owner l in
         {
           Dse.trip = max 1 (Affine_d.trip_count l);
           reduction = cls <> `Parallel;
           serial = cls = `Serial;
         })
       spine)

(* The loop nests of a node other than its primary spine's (fused
   nodes): each gets its own unconstrained search. *)
let sub_nests node spine =
  List.filter
    (fun nest -> not (List.exists (Op.equal nest) spine))
    (Affine_d.outermost_loops node)

(* Snapshot everything one node's DSE reads.  Runs on the orchestrating
   domain, against the [parallelized] factors of strictly earlier
   levels. *)
let prepare_task ~mode ~max_pf ~max_intensity ~connections ~parallelized
    ~intensity_of ~weight_of node =
  let intensity = Hashtbl.find intensity_of node.o_id in
  let weight = Hashtbl.find weight_of node.o_id in
  let pf = parallel_factor ~mode ~max_pf ~max_intensity weight in
  let spine = Intensity.spine_of node in
  let dims = dims_of_spine node spine in
  let node_connections = Intensity.connections_of connections node in
  let constraints =
    if not mode.ca then []
    else
      List.filter_map
        (fun c ->
          let other =
            if Op.equal c.Intensity.c_source node then c.Intensity.c_target
            else c.Intensity.c_source
          in
          match Hashtbl.find_opt parallelized other.o_id with
          | Some fs -> Some (connection_constraint ~node c fs)
          | None -> None)
        node_connections
  in
  let ctx =
    if mode.ca then
      cost_context ~connections:node_connections ~parallelized ~node
    else []
  in
  (* Fused nodes contain several sequential loop nests; the primary nest
     gets the connection-constrained DSE, the remaining nests each
     receive an unconstrained intra-node DSE at the same parallel factor
     (their buffers are node-local). *)
  let subs =
    List.map
      (fun nest ->
        let sub_spine = Intensity.spine_of nest in
        { st_spine = sub_spine; st_dims = dims_of_spine nest sub_spine })
      (sub_nests node spine)
  in
  {
    t_node = node;
    t_intensity = intensity;
    t_pf = pf;
    t_spine = spine;
    t_dims = dims;
    t_constraints = constraints;
    t_ctx = ctx;
    t_subs = subs;
  }

(* ---- Schedule-level replay --------------------------------------------

   With a store, the whole per-schedule outcome is additionally stored
   under the schedule's structural signature (plus mode/engine/max
   factor): a
   recompile of an identical schedule replays the stored factors
   positionally, skipping the connection analysis and every search.
   One int-array entry per node in search order — [| position-in-block;
   intensity; pf; #constraints; #spine; factors...; #subs; (len;
   factors...)* |] — plus a meta entry flagging presence. *)

let encode_replay ~pos task (out : node_outcome) =
  Array.of_list
    ((pos :: task.t_intensity :: task.t_pf
      :: List.length task.t_constraints
      :: Array.length out.o_factors
      :: Array.to_list out.o_factors)
    @ (List.length out.o_subs
       :: List.concat_map
            (fun (_, sf, _) -> Array.length sf :: Array.to_list sf)
            out.o_subs))

(* Decode one replay entry against the schedule's nodes.  [None] unless
   the entry names a node of this schedule and carries one positive
   factor per spine level of that node and of each of its sub-nests. *)
let decode_replay node_arr enc =
  let i = ref 0 in
  let next () =
    let v = enc.(!i) in
    incr i;
    v
  in
  let read_factors spine =
    let n = next () in
    if n <> List.length spine then raise Exit;
    let a = Array.init n (fun _ -> next ()) in
    if Array.exists (fun f -> f < 1) a then raise Exit;
    (spine, a)
  in
  try
    let node = node_arr.(next ()) in
    let intensity = next () in
    let pf = next () in
    let ncons = next () in
    let spine, factors = read_factors (Intensity.spine_of node) in
    let nests = sub_nests node spine in
    if next () <> List.length nests then raise Exit;
    let subs = List.map (fun nest -> read_factors (Intensity.spine_of nest)) nests in
    if !i <> Array.length enc then raise Exit;
    Some (node, intensity, pf, ncons, spine, factors, subs)
  with Exit | Invalid_argument _ -> None

let try_replay store ~key nodes =
  let node_arr = Array.of_list nodes in
  let n = Array.length node_arr in
  match
    Qor_cache.find_factors store (key ^ "#meta") ~valid:(fun m -> m = [| n |])
  with
  | None -> None
  | Some _ ->
      let valid enc = Option.is_some (decode_replay node_arr enc) in
      let rec fetch rank acc =
        if rank = n then Some (List.rev acc)
        else
          match
            Qor_cache.find_factors store (Printf.sprintf "%s#%d" key rank) ~valid
          with
          | None -> None
          | Some enc ->
              fetch (rank + 1) (Option.get (decode_replay node_arr enc) :: acc)
      in
      fetch 0 []

(* Apply a replayed outcome: same unroll directives, metrics and remarks
   (in the same order) as the sequential loop, with zero explored points
   (nothing was searched). *)
let apply_replay ~max_parallel_factor decoded =
  List.map
    (fun (node, intensity, pf, ncons, spine, factors, subs) ->
      List.iteri (fun i l -> Affine_d.set_unroll l factors.(i)) spine;
      Obs.count "parallelize.nodes" 1;
      Obs.count "parallelize.constraints" ncons;
      Obs.remark ~op:node ~pass:pass_name Hida_obs.Remark.Remark
        "node parallelized: intensity %d, parallel factor %d (of max %d), \
         unroll factors %s under %d connection constraint(s)"
        intensity pf max_parallel_factor (factors_string factors) ncons;
      if Dse.product factors < pf then
        Obs.remark ~op:node ~pass:pass_name Hida_obs.Remark.Missed
          "allotted parallel factor %d not reachable: divisor lattice and \
           connection constraints cap the factor product at %d"
          pf (Dse.product factors);
      List.iter
        (fun (sub_spine, sf) ->
          List.iteri (fun i l -> Affine_d.set_unroll l sf.(i)) sub_spine)
        subs;
      {
        r_node = node;
        r_intensity = intensity;
        r_parallel_factor = pf;
        r_factors = factors;
      })
    decoded

let rec run_on_schedule ?(mode = ia_ca) ?(engine = `Exhaustive) ?(jobs = 1)
    ?store ~max_parallel_factor sched =
  let nodes = List.filter Hida_d.is_node (Block.ops (Hida_d.node_block sched)) in
  (* With a store, the whole outcome is keyed on the schedule's
     pre-mutation signature; without one no signature is computed. *)
  let replay =
    Option.map
      (fun st ->
        ( st,
          Printf.sprintf "sched#%s#%s#%d#%s" (mode_name mode) (engine_tag engine)
            max_parallel_factor (Qor_cache.signature sched) ))
      store
  in
  match Option.bind replay (fun (st, key) -> try_replay st ~key nodes) with
  | Some decoded -> apply_replay ~max_parallel_factor decoded
  | None ->
      run_on_schedule_fresh ~mode ~engine ~jobs ?store ~replay
        ~max_parallel_factor ~nodes sched

and run_on_schedule_fresh ~mode ~engine ~jobs ?store ~replay
    ~max_parallel_factor ~nodes sched =
  (* Cap the requested parallelism by what the shared domain pool can
     actually provide: [hida-serve] workers each compiling with
     [--jobs M] would otherwise oversubscribe the host with N×M
     domains.  The clamp is surfaced as a remark, not an error — the
     result is identical either way. *)
  let jobs =
    let slots = Domain_pool.effective_jobs jobs in
    if jobs > 1 && slots < jobs then begin
      Obs.remark ~op:sched ~pass:pass_name Hida_obs.Remark.Analysis
        "--jobs %d clamped to %d: the shared worker pool has %d domain(s) \
         available (host parallelism minus domains reserved by other layers)"
        jobs slots (slots - 1);
      slots
    end
    else jobs
  in
  let connections = Intensity.analyze sched in
  let intensity_of = Hashtbl.create 16 in
  (* The workload weight used to apportion parallel factors: the spine
     iteration count (which the unroll factors divide).  It coincides
     with the operation-count intensity whenever the body performs one
     MAC per iteration — every example in the paper — and balances node
     latencies exactly when it does not. *)
  let weight_of = Hashtbl.create 16 in
  List.iter
    (fun n ->
      Hashtbl.replace intensity_of n.o_id (Intensity.op_intensity n);
      Hashtbl.replace weight_of n.o_id
        (max 1 (Hida_estimator.Qor.total_trip n)))
    nodes;
  let max_intensity =
    List.fold_left (fun acc n -> max acc (Hashtbl.find weight_of n.o_id)) 1 nodes
  in
  (* Step (2): sort by connection count desc, intensity desc. *)
  let order =
    List.sort
      (fun a b ->
        let ca_ = Intensity.num_connections connections a
        and cb = Intensity.num_connections connections b in
        if ca_ <> cb then compare cb ca_
        else
          compare
            (Hashtbl.find intensity_of b.o_id)
            (Hashtbl.find intensity_of a.o_id))
      nodes
  in
  let parallelized : (int, int array) Hashtbl.t = Hashtbl.create 16 in
  let outcomes : (int, node_task * node_outcome) Hashtbl.t = Hashtbl.create 16 in
  let levels = level_schedule ~order ~connections in
  (* Search slots by key, across all levels: a search identical to one
     of an earlier level (or of this one) shares that leader's result. *)
  let seen = Hashtbl.create 16 in
  List.iteri
    (fun li level_nodes ->
      let tasks =
        List.map
          (prepare_task ~mode ~max_pf:max_parallel_factor ~max_intensity
             ~connections ~parallelized ~intensity_of ~weight_of)
          level_nodes
      in
      List.iter
        (fun (t, o) ->
          Hashtbl.replace parallelized t.t_node.o_id o.o_factors;
          Hashtbl.replace outcomes t.t_node.o_id (t, o))
        (execute_level ?store engine ~seen ~jobs ~level_index:li tasks))
    levels;
  (* Deterministic merge, in the sequential search order: apply the
     unroll directives and publish metrics and remarks exactly as the
     sequential loop would. *)
  let results =
    List.map
      (fun node ->
        let task, out = Hashtbl.find outcomes node.o_id in
        let factors = out.o_factors in
        let proposed =
          List.fold_left
            (fun acc (_, _, (s : Dse.stats)) -> acc + s.Dse.proposed)
            out.o_stats.Dse.proposed out.o_subs
        and valid =
          List.fold_left
            (fun acc (_, _, (s : Dse.stats)) -> acc + s.Dse.valid)
            out.o_stats.Dse.valid out.o_subs
        in
        Obs.count "dse.points_proposed" proposed;
        Obs.count "dse.points_evaluated" valid;
        Obs.count "dse.points_pruned" (proposed - valid);
        List.iteri (fun i l -> Affine_d.set_unroll l factors.(i)) task.t_spine;
        Obs.count "parallelize.nodes" 1;
        Obs.count "parallelize.constraints" (List.length task.t_constraints);
        Obs.remark ~op:node ~pass:pass_name Hida_obs.Remark.Remark
          "node parallelized: intensity %d, parallel factor %d (of max %d), \
           unroll factors %s under %d connection constraint(s)"
          task.t_intensity task.t_pf max_parallel_factor
          (factors_string factors)
          (List.length task.t_constraints);
        if Dse.product factors < task.t_pf then
          Obs.remark ~op:node ~pass:pass_name Hida_obs.Remark.Missed
            "allotted parallel factor %d not reachable: divisor lattice and \
             connection constraints cap the factor product at %d"
            task.t_pf (Dse.product factors);
        List.iter
          (fun (st, sf, _) ->
            List.iteri (fun i l -> Affine_d.set_unroll l sf.(i)) st.st_spine)
          out.o_subs;
        {
          r_node = node;
          r_intensity = task.t_intensity;
          r_parallel_factor = task.t_pf;
          r_factors = factors;
        })
      order
  in
  (* Persist the schedule-level replay entries under the pre-mutation
     signature, so an identical schedule skips straight to the merge. *)
  Option.iter
    (fun (st, key) ->
      let pos_of = Hashtbl.create 16 in
      List.iteri (fun i (n : op) -> Hashtbl.replace pos_of n.o_id i) nodes;
      List.iteri
        (fun rank node ->
          let task, out = Hashtbl.find outcomes node.o_id in
          Qor_cache.store_factors st
            (Printf.sprintf "%s#%d" key rank)
            (encode_replay ~pos:(Hashtbl.find pos_of node.o_id) task out))
        order;
      Qor_cache.store_factors st (key ^ "#meta") [| List.length nodes |])
    replay;
  results

(* Parallelize a bare loop nest (single-loop-nest kernels present no
   dataflow opportunities but still undergo intra-node DSE). *)
let run_on_nest ?store ~max_parallel_factor nest =
  let spine = Intensity.spine_of nest in
  let dims = dims_of_spine nest spine in
  let stats = { Dse.proposed = 0; valid = 0 } in
  let factors =
    Obs.span ~cat:"dse"
      (Printf.sprintf "dse:nest%d" nest.o_id)
      (fun () ->
        cached_search ?store `Exhaustive ~constraints:[] ~ctx:[] ~dims
          ~parallel_factor:max_parallel_factor ~stats ())
  in
  Obs.count "dse.points_proposed" stats.Dse.proposed;
  Obs.count "dse.points_evaluated" stats.Dse.valid;
  Obs.count "dse.points_pruned" (stats.Dse.proposed - stats.Dse.valid);
  List.iteri (fun i l -> Affine_d.set_unroll l factors.(i)) spine;
  Obs.count "parallelize.nests" 1;
  Obs.remark ~op:nest ~pass:pass_name Hida_obs.Remark.Remark
    "loop nest parallelized: unroll factors %s (parallel factor %d)"
    (factors_string factors) max_parallel_factor;
  factors

let run ?mode ?engine ?jobs ?store ~max_parallel_factor root =
  let schedules = Walk.collect root ~pred:Hida_d.is_schedule in
  match schedules with
  | [] ->
      (* No dataflow structure: apply intra-node DSE to each top-level
         loop nest directly. *)
      let nests =
        List.filter Affine_d.is_for
          (match Walk.find root ~pred:Func_d.is_func with
          | Some f -> Block.ops (Func_d.entry_block f)
          | None ->
              if Func_d.is_func root then Block.ops (Func_d.entry_block root)
              else [])
      in
      List.iter
        (fun n -> ignore (run_on_nest ?store ~max_parallel_factor n))
        nests;
      []
  | _ ->
      List.concat_map
        (fun s ->
          run_on_schedule ?mode ?engine ?jobs ?store ~max_parallel_factor s)
        schedules

let pass ?mode ?engine ?jobs ?store ~max_parallel_factor () =
  Pass.make ~name:"dataflow-parallelization" (fun root ->
      ignore (run ?mode ?engine ?jobs ?store ~max_parallel_factor root))
