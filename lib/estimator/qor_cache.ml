(* Store-backed QoR memoization: content-addressed keys and the value
   codecs of the [qor.*] namespaces of a caller-owned [Blob_store].

   The module holds no state: the estimator and a DSE candidate
   evaluation are cheap enough that an in-process memo costs about what
   it saves (hashing a key costs as much as the computation), so results
   are memoized only in the store, where reusing unchanged subtrees pays
   across compiles.  The store keeps its own lock and byte-budget LRU.

   Values are plain delimiter-joined strings ("%h" floats, so the round
   trip is exact).  A value that fails to decode is counted as
   [incr.cache.corrupt] and read as a miss: the result is recomputed
   and the entry overwritten, so a damaged store can cost time but never
   change a design. *)

open Hida_ir
open Ir

(* ---- Structural signatures ----

   The canonical walk lives in [Hida_ir.Subtree], shared with the
   isomorphic-block stamping of the lowering stage.  The estimator adds
   binding resolution (inner task values chased back to the outer
   buffers they alias) and the ancestor-context prefix. *)

let compute_signature ~bindings (root : op) =
  (* A table, not an association list: the walk resolves every value use
     and a schedule binds dozens of values.  The first binding of a value
     wins, as with [List.assoc]. *)
  let btable = Hashtbl.create 64 in
  List.iter
    (fun ((outer : value), (inner : value)) ->
      if not (Hashtbl.mem btable inner.v_id) then
        Hashtbl.add btable inner.v_id outer)
    bindings;
  let rec resolve v =
    match Hashtbl.find_opt btable v.v_id with
    | Some outer when not (Value.equal outer v) -> resolve outer
    | _ -> v
  in
  let buf = Buffer.create 512 in
  (* The estimator reads context above the signed subtree: a node nested
     inside loops re-executes once per enclosing iteration
     ([Qor.total_trip] and the access footprints walk [enclosing_loops],
     which crosses the region boundary), so two structurally identical
     nodes under loops with different trip counts estimate differently.
     Prefix the signature with every ancestor's op name and attributes
     (loop bounds, steps and directives are all attributes) so such
     nodes sign differently too. *)
  List.iter
    (fun (a : op) ->
      Buffer.add_string buf (Op.name a);
      Buffer.add_char buf '[';
      Subtree.attrs_into buf a.o_attrs;
      Buffer.add_char buf ']')
    (Op.ancestors root);
  Buffer.add_char buf '|';
  Subtree.signature_into buf ~resolve ~describe_free:Subtree.describe_full root;
  Buffer.contents buf

(* A fixed-width digest, not the raw canonical string: subtree
   signatures reach tens of kilobytes on real models, and derived keys
   ("<sig>#<rank>") would share that entire prefix.  32 hex chars keep
   lookups and the persistent store flat. *)
let signature ?(bindings = []) op =
  Digest.to_hex (Digest.string (compute_signature ~bindings op))

(* MD5 (stdlib [Digest]) is ample for content addressing: collisions
   would need 2^64 artifacts. *)
let artifact_signature ~source ~options =
  Digest.to_hex (Digest.string (source ^ "\x00" ^ options))

(* ---- Store traffic ---- *)

let ns_node = "qor.node"
let ns_factors = "qor.factors"
let ns_replay = "qor.replay"
let ns_design = "qor.design"

let find store ~ns ~dec key =
  match Blob_store.find store ~ns key with
  | None ->
      Hida_obs.Scope.count "incr.subtree.misses" 1;
      None
  | Some s -> (
      match dec s with
      | Some v ->
          Hida_obs.Scope.count "incr.subtree.hits" 1;
          Some v
      | None ->
          Hida_obs.Scope.count "incr.cache.corrupt" 1;
          Hida_obs.Scope.count "incr.subtree.misses" 1;
          None)

let memo store ~ns ~enc ~dec key compute =
  match find store ~ns ~dec key with
  | Some v -> v
  | None ->
      let v = compute () in
      Blob_store.add store ~ns ~key (enc v);
      v

let ints fields = try Some (List.map int_of_string fields) with Failure _ -> None
let ints_of_string sep s = ints (String.split_on_char sep s)

(* ---- Codecs ---- *)

let enc_factors (a : int array) =
  String.concat "," (Array.to_list (Array.map string_of_int a))

let dec_factors s =
  if s = "" then Some [||] else Option.map Array.of_list (ints_of_string ',' s)

let enc_node (e : Qor.node_est) =
  let r = e.Qor.n_resource in
  Printf.sprintf "%d;%d;%d;%d;%d;%d;%d" e.Qor.n_latency e.Qor.n_interval
    e.Qor.n_macs_per_frame r.Resource.luts r.Resource.ffs r.Resource.dsps
    r.Resource.bram18

let dec_node s =
  match ints_of_string ';' s with
  | Some [ lat; interval; macs; luts; ffs; dsps; bram18 ] ->
      Some
        {
          Qor.n_latency = lat;
          n_interval = interval;
          n_macs_per_frame = macs;
          n_resource = { Resource.luts; ffs; dsps; bram18 };
        }
  | _ -> None

let enc_steps steps =
  String.concat ";"
    (List.map (fun (kind, i, j) -> Printf.sprintf "%s,%d,%d" kind i j) steps)

let dec_steps s =
  let step st =
    match String.split_on_char ',' st with
    | [ kind; i; j ] -> (
        match (int_of_string_opt i, int_of_string_opt j) with
        | Some i, Some j when 0 <= i && i < j -> Some (kind, i, j)
        | _ -> None)
    | _ -> None
  in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | st :: rest -> (
        match step st with Some x -> go (x :: acc) rest | None -> None)
  in
  if s = "" then Some [] else go [] (String.split_on_char ';' s)

let enc_design (e : Qor.design_est) =
  let r = e.Qor.d_resource in
  Printf.sprintf "%d;%d;%d;%d;%d;%d;%d;%h;%h" e.Qor.d_latency e.Qor.d_interval
    e.Qor.d_macs r.Resource.luts r.Resource.ffs r.Resource.dsps
    r.Resource.bram18 e.Qor.d_throughput e.Qor.d_dsp_efficiency

let dec_design s =
  match String.split_on_char ';' s with
  | [ lat; interval; macs; luts; ffs; dsps; bram18; thr; eff ] -> (
      match
        ( ints [ lat; interval; macs; luts; ffs; dsps; bram18 ],
          float_of_string_opt thr,
          float_of_string_opt eff )
      with
      | Some [ lat; interval; macs; luts; ffs; dsps; bram18 ], Some thr, Some eff
        ->
          Some
            {
              Qor.d_latency = lat;
              d_interval = interval;
              d_macs = macs;
              d_resource = { Resource.luts; ffs; dsps; bram18 };
              d_throughput = thr;
              d_dsp_efficiency = eff;
            }
      | _ -> None)
  | _ -> None

(* ---- Namespaces ---- *)

let node_memo store (dev : Device.t) ~bindings n compute =
  memo store ~ns:ns_node ~enc:enc_node ~dec:dec_node
    (dev.Device.name ^ "|" ^ signature ~bindings n)
    compute

let find_factors ?(valid = fun _ -> true) store key =
  let dec s = Option.bind (dec_factors s) (fun a -> if valid a then Some a else None) in
  find store ~ns:ns_factors ~dec key

let store_factors store key v =
  Blob_store.add store ~ns:ns_factors ~key (enc_factors v)

let find_fusion store key = find store ~ns:ns_replay ~dec:dec_steps key

let store_fusion store key steps =
  Blob_store.add store ~ns:ns_replay ~key (enc_steps steps)

let memo_design store key compute =
  memo store ~ns:ns_design ~enc:enc_design ~dec:dec_design key compute
