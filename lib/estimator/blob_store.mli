(** Namespaced, byte-budgeted, LRU blob store.

    One mutex-guarded string store for every persistent result: the
    serve layer's whole-pipeline artifacts and the QoR store's
    namespaces ([Qor_cache]: DSE search results, schedule and fusion
    replays, node and design estimates keyed by canonical content
    hashes) live in one budget, so a long-running server trades
    artifact bytes against subtree bytes instead of growing two
    unbounded tables.  Callers create and pass their store explicitly;
    there is no process-wide instance.

    Entries are plain strings under (namespace, key); eviction drops
    the least-recently-used quarter once the byte budget is exceeded
    (amortized: one sweep per quarter-budget of insertions).  The store
    can be persisted to a directory and reloaded, which is what makes
    [hida_compile --incr-cache DIR] reuse every unchanged subtree's
    result across process runs. *)

type t

val default_budget_bytes : int
(** 256 MiB. *)

val create : ?budget_bytes:int -> unit -> t

val find : t -> ns:string -> string -> string option
(** LRU-bumping lookup; counts a per-namespace hit or miss. *)

val add : t -> ns:string -> key:string -> string -> unit
(** Insert (replacing any previous value) and evict down to the budget.
    A value larger than the whole budget is not stored. *)

type ns_stats = {
  ns_name : string;
  ns_entries : int;
  ns_bytes : int;
  ns_hits : int;
  ns_misses : int;
}

type stats = {
  s_entries : int;
  s_bytes : int;
  s_budget : int;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
  s_namespaces : ns_stats list;  (** sorted by namespace name *)
}

val stats : t -> stats

val keys : t -> ns:string -> string list
(** Every key of one namespace, sorted (no LRU bump, no counters). *)

(* ---- Persistence ---- *)

val save : t -> dir:string -> (int, string) result
(** Write every entry to [dir] (created if missing) atomically
    (temp file + rename); returns the entry count.  The format is an
    OCaml [Marshal] image of plain strings behind a versioned magic
    header, so it is safe to [load] back (no closures, no sharing)
    and a mismatched build simply reports an error. *)

val load : t -> dir:string -> (int, string) result
(** Merge previously saved entries into the store (oldest first, so
    relative recency survives the round trip); returns the number
    loaded.  A missing file is [Ok 0]; a corrupt or version-mismatched
    file is an [Error], never an exception. *)
