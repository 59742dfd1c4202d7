(** Store-backed QoR memoization: keys and codecs, no state.

    Every reusable QoR result lives in one {!Blob_store.t} that the
    caller owns and passes explicitly ([hida_compile --incr-cache DIR]
    loads one from disk, [hida-serve] creates one for its lifetime,
    tests and benches create their own).  This module only derives the
    content-addressed keys and encodes values for four namespaces:

    - [qor.node]: per-node estimates, keyed by device + {!signature};
    - [qor.factors]: per-node DSE results and schedule-level replays;
    - [qor.replay]: fusion decision replays;
    - [qor.design]: whole-design estimates.

    Keys are content hashes, so a hit is always semantically valid and
    a changed subtree simply misses.  Without a store nothing is
    memoized.

    Every lookup reports into the ambient {!Hida_obs.Scope}:
    [incr.subtree.hits] / [incr.subtree.misses], plus
    [incr.cache.corrupt] for a stored value that fails to decode (or
    fails the caller's shape check).  A corrupt entry reads as a miss,
    so the result is recomputed and the entry overwritten. *)

open Hida_ir

val signature : ?bindings:(Ir.value * Ir.value) list -> Ir.op -> string
(** Structural signature of a subtree, as a fixed-width (32 hex chars)
    content digest of the canonical form: op names, sorted attributes
    (which carry every directive), result and block-argument types with
    positional value numbering, and descriptors of free values resolved
    through [bindings] (outer buffer type + defining-op attributes).
    Prefixed with the op names and attributes of every ancestor, because
    the estimator's trip counts and access footprints cross the region
    boundary (a node nested in a loop re-runs per enclosing
    iteration). *)

val artifact_signature : source:string -> options:string -> string
(** Content-addressed key for a {e whole-pipeline artifact}: a
    fixed-width hex digest of the canonical request source (IR text
    hash, or zoo workload name) and the canonical driver-option
    fingerprint.  The compile server's artifact namespace is keyed on
    it ([hida.serve]). *)

val node_memo : Blob_store.t -> Qor.node_memo
(** Node-estimate memo over the [qor.node] namespace (the device name is
    part of the key); pass it as [Qor.estimate_func ~memo]. *)

val find_factors :
  ?valid:(int array -> bool) -> Blob_store.t -> string -> int array option
(** A DSE result or schedule-replay entry.  A stored tuple that fails
    [valid] (default: accept any) is reported as corrupt and reads as a
    miss. *)

val store_factors : Blob_store.t -> string -> int array -> unit

val find_fusion : Blob_store.t -> string -> (string * int * int) list option
(** A fusion decision replay: the (kind, producer index, consumer index)
    steps recorded for one dispatch, with [0 <= producer < consumer]. *)

val store_fusion : Blob_store.t -> string -> (string * int * int) list -> unit

val memo_design :
  Blob_store.t -> string -> (unit -> Qor.design_est) -> Qor.design_est
(** Whole-design estimate memo over the [qor.design] namespace.  Callers
    key on the input digest plus device and batch, so a recompile of an
    unchanged design skips per-node estimation entirely. *)
