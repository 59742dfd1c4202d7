(** Functional-dataflow task fusion (Algorithm 2).

    Per dispatch, in pre-order: (1) a pattern-driven worklist fuses
    adjacent producer/consumer tasks (convolution + elementwise
    activation, activation + pooling) until no pattern matches; (2) the
    balancing phase repeatedly fuses the two least critical connected
    tasks while the fusion stays below the critical task's intensity;
    (3) the hierarchy is canonicalized (a task containing a single
    sub-task collapses).  Fusion legality accounts for SSA dominance and
    for memory hazards against the tasks being moved over. *)

open Hida_ir

type pattern = {
  p_name : string;
  p_fires : producer:Ir.op -> consumer:Ir.op -> bool;
}

val compute_elementwise : pattern
(** Fuse an elementwise op into the task computing its input. *)

val activation_pool : pattern
(** Fuse pooling into the preceding convolution/activation task
    (Table 1's Conv+ReLU+Pool tasks). *)

val default_patterns : pattern list

val payload_names : Ir.op -> string list
val last_payload_name : Ir.op -> string option
val first_payload_name : Ir.op -> string option
val directly_consumes : producer:Ir.op -> consumer:Ir.op -> bool
val can_fuse : producer:Ir.op -> consumer:Ir.op -> bool
val fuse : Ir.op -> Ir.op -> Ir.op
(** Fuse two tasks into one (producer position), inlining their bodies. *)

val task_intensity : Ir.op -> int

val run :
  ?patterns:pattern list ->
  ?balance:bool ->
  ?store:Hida_estimator.Blob_store.t ->
  Ir.op ->
  unit
(** With a [store], each dispatch's fusion decisions are recorded under
    its content digest and replayed on a later compile of the same
    dispatch. *)

val pass :
  ?patterns:pattern list ->
  ?balance:bool ->
  ?store:Hida_estimator.Blob_store.t ->
  unit ->
  Pass.t
