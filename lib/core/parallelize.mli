(** Structural dataflow parallelization (§6.5): intensity-aware (IA) and
    connection-aware (CA) node parallelization.

    Step (1) intensity and connection analysis ({!Intensity});
    step (2) node ordering by connection count, intensity tie-break;
    step (3) parallel factors proportional to node workload (IA) or
    uniform (non-IA); step (4) per-node constrained DSE ({!Dse}), with
    neighbour factors scaled by the connection's scaling map and
    permuted into this node's loop space.  The [mode] record realizes
    the four ablation groups of §7.3.

    With a [store], per-node DSE results and whole-schedule outcomes
    are kept in it under content-addressed keys ([Qor_cache]) and reused
    by later compiles; with [jobs > 1], nodes are grouped
    into levels of the connection graph and each level's searches run
    concurrently on OCaml 5 domains, with a deterministic merge that
    yields the same unroll factors (and the same printed IR) as the
    sequential order. *)

open Hida_ir

type mode = { ia : bool; ca : bool }

val ia_ca : mode
val ia_only : mode
val ca_only : mode
val naive : mode
val mode_name : mode -> string

type node_result = {
  r_node : Ir.op;
  r_intensity : int;
  r_parallel_factor : int;
  r_factors : int array;  (** per spine level *)
}

val round_pow2 : int -> int

val parallel_factor : mode:mode -> max_pf:int -> max_intensity:int -> int -> int
(** Step (3): workload-proportional factor (IA) or the maximum (non-IA). *)

val bank_cost :
  connections:Intensity.connection list ->
  parallelized:(int, int array) Hashtbl.t ->
  node:Ir.op ->
  int array ->
  float
(** QoR cost of a proposal: total banks over the buffers shared with
    already-parallelized neighbours. *)

val connection_constraint :
  node:Ir.op -> Intensity.connection -> int array -> int option array
(** Lines 3-8 of Algorithm 4. *)

val search_with :
  [ `Exhaustive | `Stochastic of int ] ->
  ?constraints:int option array list ->
  ?cost:(int array -> float) ->
  ?stats:Dse.stats ->
  dims:Dse.dim array ->
  parallel_factor:int ->
  unit ->
  int array
(** Run the chosen DSE engine ([`Stochastic seed] is the literal
    Algorithm 4 loop; [`Exhaustive] its deterministic strengthening). *)

val observed_search :
  [ `Exhaustive | `Stochastic of int ] ->
  ?constraints:int option array list ->
  ?cost:(int array -> float) ->
  label:string ->
  dims:Dse.dim array ->
  parallel_factor:int ->
  unit ->
  int array
(** {!search_with} wrapped in a trace span, reporting proposed /
    evaluated / pruned point counts to the ambient {!Hida_obs.Scope}. *)

val level_schedule :
  order:Ir.op list ->
  connections:Intensity.connection list ->
  Ir.op list list
(** Group the search order into levels: a node's level is one past the
    highest level among its connected neighbours earlier in the order.
    Nodes within one level are pairwise unconnected, so their constraint
    sets are independent and may be explored concurrently; concatenating
    the levels recovers the input order. *)

val run_on_schedule :
  ?mode:mode ->
  ?engine:[ `Exhaustive | `Stochastic of int ] ->
  ?jobs:int ->
  ?store:Hida_estimator.Blob_store.t ->
  max_parallel_factor:int ->
  Ir.op ->
  node_result list
(** [jobs] (default 1) bounds the number of worker domains used per
    level; the result and the mutated IR are independent of it. *)

val run_on_nest :
  ?store:Hida_estimator.Blob_store.t -> max_parallel_factor:int -> Ir.op -> int array
(** Intra-node DSE on a bare loop nest (single-loop-nest kernels). *)

val run :
  ?mode:mode ->
  ?engine:[ `Exhaustive | `Stochastic of int ] ->
  ?jobs:int ->
  ?store:Hida_estimator.Blob_store.t ->
  max_parallel_factor:int ->
  Ir.op ->
  node_result list

val pass :
  ?mode:mode ->
  ?engine:[ `Exhaustive | `Stochastic of int ] ->
  ?jobs:int ->
  ?store:Hida_estimator.Blob_store.t ->
  max_parallel_factor:int ->
  unit ->
  Pass.t
