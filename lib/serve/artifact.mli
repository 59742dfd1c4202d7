(** Whole-pipeline artifact cache: content-addressed store + builder.

    An artifact is the complete result of one pipeline run — the
    optimized design as canonical textual IR plus its QoR metadata —
    keyed by {!key}: a content hash of the request source (zoo workload
    name, or the IR text itself) and the semantic driver options
    (device, mode, parallel factor, tile, pass switches).  Keys extend
    the node-level signature machinery of [Hida_estimator.Qor_cache] to
    artifact granularity ({!Qor_cache.artifact_signature}); see
    DESIGN.md for the two-level picture.

    The store is a namespace of the byte-budgeted, LRU-evicting
    [Hida_estimator.Blob_store]: the server's worker domains share one
    mutex-guarded instance, and the server hands that same instance to
    every compile as its QoR store, so artifact bytes and subtree bytes
    compete under a single budget. *)

type t = { a_meta : Protocol.artifact_meta; a_ir : string }

val bytes : t -> int
(** Approximate store footprint charged against the byte budget (the
    JSON encoding plus flat per-entry overhead). *)

(* ---- Keys ---- *)

val canonical_source : Protocol.source -> string
(** ["zoo:<name>"], or ["ir:<md5 of the text>"] for textual-IR
    requests (hashing keeps keys short; two textually identical modules
    coalesce, two different ones cannot collide in practice). *)

val key : Protocol.source -> Protocol.compile_opts -> string
(** Content-addressed artifact key (hex digest). *)

(* ---- Builder ---- *)

val compile :
  ?store:Hida_estimator.Blob_store.t ->
  Protocol.source ->
  Protocol.compile_opts ->
  (t, string) result
(** Run the full pipeline for a request and package the artifact, with
    [store] as the compile's QoR store ([Driver.run ?store]).  Errors (unknown workload/device/mode, IR parse or verify failure)
    come back as strings, never exceptions — a bad request must not
    kill a server worker. *)

(* ---- Store ---- *)

type store = Hida_estimator.Blob_store.t
(** Exposed as an equality so the server can hand the same instance to
    {!compile} as the QoR store. *)

val default_budget_bytes : int
(** 256 MiB ([Blob_store.default_budget_bytes]). *)

val create_store : ?budget_bytes:int -> unit -> store

val find : store -> string -> t option
(** LRU-bumping lookup; counts a hit or a miss.  An entry that fails to
    decode (cannot happen with same-process writes) reads as a miss. *)

val add : store -> key:string -> t -> unit
(** Insert; once the byte budget is exceeded the least-recently-used
    quarter of the *whole* store (all namespaces) is swept.  An
    artifact larger than the whole budget is not stored. *)

type stats = {
  s_entries : int;  (** artifact-namespace entries *)
  s_bytes : int;  (** artifact-namespace bytes *)
  s_budget : int;  (** whole-store budget (shared across namespaces) *)
  s_hits : int;
  s_misses : int;
  s_evictions : int;  (** whole-store evictions *)
}

val stats : store -> stats
