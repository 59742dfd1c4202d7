(* Whole-pipeline artifact cache.

   The builder half maps a protocol request onto the driver pipeline
   and packages the result (canonical IR text + QoR metadata); the
   store half is a namespace of the server's [Blob_store], which also
   holds the QoR store's [qor.*] namespaces, so whole-pipeline
   artifacts and subtree results live under one byte budget with one
   LRU discipline.

   Keying lifts the estimator's node-level signature machinery to
   artifact granularity: node estimates are memoized on structural
   signatures ([Qor_cache.signature]); artifacts are memoized on
   [Qor_cache.artifact_signature] over (canonical source x canonical
   options x device).  Both key on *content*, so a hit can never be
   stale — a changed input or option simply produces a different key. *)

open Hida_estimator
open Hida_core
open Hida_frontend

type t = { a_meta : Protocol.artifact_meta; a_ir : string }

(* Artifacts cross the blob-store boundary as JSON (meta via the
   protocol codec), so cached entries are plain strings that survive
   [Blob_store.save]/[load] round trips. *)
let encode a =
  Json.to_string
    (Json.Obj
       [ ("meta", Protocol.meta_to_json a.a_meta); ("ir", Json.Str a.a_ir) ])

let decode s =
  match Json.parse s with
  | Error _ -> None
  | Ok j -> (
      match (Json.member "meta" j, Json.member "ir" j) with
      | Some m, Some (Json.Str ir) -> (
          match Protocol.meta_of_json m with
          | Ok meta -> Some { a_meta = meta; a_ir = ir }
          | Error _ -> None)
      | _ -> None)

(* Budget footprint of one stored artifact: the JSON encoding dominates;
   the 32-hex key, namespace string and store slot are charged flat
   (mirrors [Blob_store.entry_bytes]). *)
let entry_overhead = 168
let bytes a = String.length (encode a) + entry_overhead

(* ---- Keys ---- *)

let canonical_source = function
  | Protocol.Zoo name -> "zoo:" ^ name
  | Protocol.Ir_text text -> "ir:" ^ Digest.to_hex (Digest.string text)

let mode_of_string = function
  | "ia+ca" | "iaca" -> Ok Parallelize.ia_ca
  | "ia" -> Ok Parallelize.ia_only
  | "ca" -> Ok Parallelize.ca_only
  | "naive" -> Ok Parallelize.naive
  | s -> Error ("unknown mode " ^ s ^ " (ia+ca | ia | ca | naive)")

let driver_options (o : Protocol.compile_opts) =
  Result.map
    (fun mode ->
      {
        Driver.default with
        mode;
        max_parallel_factor = o.Protocol.co_pf;
        tile_size = o.Protocol.co_tile;
        jobs = o.Protocol.co_jobs;
        enable_fusion = o.Protocol.co_fusion;
        enable_balancing = o.Protocol.co_balance;
        enable_dataflow = o.Protocol.co_dataflow;
      })
    (mode_of_string o.Protocol.co_mode)

(* The device is resolved here (not in the fingerprint helper) so a bad
   name is a protocol error, not an exception in a worker. *)
let device_of (o : Protocol.compile_opts) =
  try Ok (Device.by_name o.Protocol.co_device)
  with Invalid_argument msg -> Error msg

let key src (o : Protocol.compile_opts) =
  (* Device and semantic options fingerprint; [co_jobs] is excluded by
     [Driver.options_fingerprint] (byte-identical by construction). *)
  let opts_fp =
    match driver_options o with
    | Ok dopts -> Driver.options_fingerprint dopts
    | Error e -> "badopts:" ^ e
  in
  Qor_cache.artifact_signature
    ~source:(canonical_source src)
    ~options:(opts_fp ^ ";device=" ^ o.Protocol.co_device)

(* ---- Builder ---- *)

let workload_label = function
  | Protocol.Zoo name -> name
  | Protocol.Ir_text _ -> "@ir"

(* Resolve a request source to a front-end path and a fresh function
   (mirrors the CLI's workload table; the IR path additionally
   autodetects nn ops the same way [@file.mlir] inputs do). *)
let build_source src =
  match src with
  | Protocol.Zoo name ->
      if List.exists (fun e -> e.Models.e_name = name) Models.all then
        Ok (`Nn, snd ((Models.by_name name).Models.e_build ()))
      else if List.exists (fun e -> e.Polybench.e_name = name) Polybench.all
      then Ok (`Memref, snd ((Polybench.by_name name).Polybench.e_build ()))
      else if
        List.exists
          (fun e -> e.Polybench_extra.e_name = name)
          Polybench_extra.all
      then
        Ok
          ( `Memref,
            snd ((Polybench_extra.by_name name).Polybench_extra.e_build ()) )
      else if name = "listing1" then Ok (`Memref, snd (Listing1.build ()))
      else Error ("unknown zoo workload " ^ name)
  | Protocol.Ir_text text -> (
      match Hida_text.Parser.parse_string ~filename:"<request>" text with
      | Error d -> Error (Hida_text.Parser.diag_to_string d)
      | Ok top -> (
          match Hida_text.Parser.module_and_func top with
          | None ->
              Error "expected a builtin.module or func.func at top level"
          | Some (_m, f) ->
              let open Hida_ir.Ir in
              let has_nn =
                Walk.find f ~pred:(fun op ->
                    String.length (Op.name op) > 3
                    && String.sub (Op.name op) 0 3 = "nn.")
                <> None
              in
              Ok ((if has_nn then `Nn else `Memref), f)))

let compile ?store src (o : Protocol.compile_opts) =
  let ( let* ) = Result.bind in
  let* opts = driver_options o in
  let* device = device_of o in
  let* path, func = build_source src in
  match Driver.run ~opts ?store ~device ~path func with
  | exception Invalid_argument msg -> Error msg
  | report ->
      let e = report.Driver.estimate in
      let ir = Hida_ir.Printer.op_to_string report.Driver.design ^ "\n" in
      Ok
        {
          a_meta =
            {
              Protocol.am_key = key src o;
              am_workload = workload_label src;
              am_latency = e.Qor.d_latency;
              am_interval = e.Qor.d_interval;
              am_throughput = e.Qor.d_throughput;
              am_dsp_efficiency = e.Qor.d_dsp_efficiency;
              am_compile_seconds = report.Driver.compile_seconds;
            };
          a_ir = ir;
        }

(* ---- Store ---- *)

(* One namespace of the byte-budgeted LRU [Blob_store].  The server
   hands the same instance to its compiles as their QoR store, so
   artifacts trade bytes against subtree results instead of growing a
   second unbounded table. *)

let ns = "artifact"

type store = Blob_store.t

type stats = {
  s_entries : int;
  s_bytes : int;
  s_budget : int;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
}

let default_budget_bytes = Blob_store.default_budget_bytes

let create_store ?(budget_bytes = default_budget_bytes) () =
  Blob_store.create ~budget_bytes ()

let find st k = Option.bind (Blob_store.find st ~ns k) decode
let add st ~key:k art = Blob_store.add st ~ns ~key:k (encode art)

let stats st =
  let s = Blob_store.stats st in
  let a_entries, a_bytes, a_hits, a_misses =
    match
      List.find_opt
        (fun n -> n.Blob_store.ns_name = ns)
        s.Blob_store.s_namespaces
    with
    | Some n ->
        (n.Blob_store.ns_entries, n.ns_bytes, n.ns_hits, n.ns_misses)
    | None -> (0, 0, 0, 0)
  in
  {
    s_entries = a_entries;
    s_bytes = a_bytes;
    s_hits = a_hits;
    s_misses = a_misses;
    (* Budget and eviction pressure are properties of the whole shared
       store, not of this namespace. *)
    s_budget = s.Blob_store.s_budget;
    s_evictions = s.Blob_store.s_evictions;
  }
