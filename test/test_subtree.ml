(* Subtree structure sharing: canonical digests, isomorphic-block
   stamping (byte-identity with stamping on/off, SSA renaming round
   trips through hida.text), the namespaced blob store, and the QoR
   store ([Qor_cache] over a blob store). *)

open Hida_ir
open Ir
open Hida_dialects
open Hida_core
open Hida_estimator
open Hida_frontend
open Hida_text
open Helpers

(* ---- canonical digests ---- *)

(* add(a,a) and add(a,b) have equal op/attr/type skeletons; only the
   free-value wiring differs.  The first-use [!N] numbering must keep
   them apart even under type-only descriptors. *)
let test_digest_wiring () =
  let t = Nn_builder.create ~name:"wire" ~input_shape:[ 2; 6; 6 ] () in
  let x = Nn_builder.current t in
  let a = Nn_builder.relu t in
  let aa = Nn_builder.add t a a in
  let ab = Nn_builder.add t a x in
  ignore (Nn_builder.finish t);
  let def v = Option.get (Value.defining_op v) in
  let dg v = Subtree.digest ~describe_free:Subtree.describe_type (def v) in
  checkb "add(a,a) <> add(a,x)" (dg aa <> dg ab);
  (* Two structurally identical uses sign equal regardless of ids. *)
  let ab2 = Nn_builder.add t a x in
  Alcotest.(check string) "same wiring, same digest" (dg ab) (dg ab2)

(* Repeated blocks in the zoo really are isomorphic: after construction
   and fusion, resnet18 and mobilenet must both contain duplicate task
   digests (this is what the within-compile stamping tier feeds on). *)
let test_zoo_has_isomorphic_tasks () =
  List.iter
    (fun (name, build) ->
      let _m, f = build () in
      let mgr = Pass.manager () in
      Pass.add mgr Canonicalize.pass;
      Pass.add mgr Construct.pass;
      Pass.add mgr (Fusion.pass ());
      Pass.run mgr f;
      let tasks = Walk.collect f ~pred:Hida_d.is_task in
      let seen = Hashtbl.create 16 in
      let dups = ref 0 in
      List.iter
        (fun t ->
          let dg = Subtree.digest ~describe_free:Subtree.describe_type t in
          if Hashtbl.mem seen dg then incr dups else Hashtbl.replace seen dg ())
        tasks;
      checkb (name ^ " has duplicate task digests") (!dups > 0))
    [
      (* Repeated blocks only survive at full scale: tiny scales shrink
         each stage to distinct channel counts and fusion merges away
         the repeats. *)
      ("resnet18", fun () -> Models.resnet18 ());
      ("mobilenet", fun () -> Models.mobilenet ());
    ]

(* ---- stamping ---- *)

let compile_print ?store ~stamp build =
  let _m, f = build () in
  let opts =
    {
      Driver.default with
      max_parallel_factor = 4;
      stamp_isomorphic = stamp;
      verify_each = true;
    }
  in
  let st = Driver.compile_nn ~opts ?store f in
  let rep = Driver.finish ~device:Device.pynq_z2 st f in
  (Printer.op_to_string f, rep)

(* The correctness bar of the whole layer: stamping must be a pure
   perf optimization — the fully optimized IR is byte-identical with it
   on or off. *)
let test_stamp_byte_identity () =
  List.iter
    (fun (name, build) ->
      let s_on, rep_on = compile_print ~stamp:true build in
      let s_off, rep_off = compile_print ~stamp:false build in
      Alcotest.(check string) (name ^ ": stamped IR is byte-identical") s_off s_on;
      let stamped m = Hida_obs.Metrics.counter m "incr.subtree.stamped" in
      checkb
        (name ^ ": stamping actually happened")
        (stamped rep_on.Driver.metrics > 0);
      checki (name ^ ": off = no stamping") 0 (stamped rep_off.Driver.metrics))
    [
      ("resnet18", fun () -> Models.resnet18 ());
      ("mobilenet", fun () -> Models.mobilenet ());
    ]

(* Stamping must also preserve the network function, not just the
   bytes. *)
let test_stamp_preserves_semantics () =
  checkb "stamped resnet18 preserves semantics"
    (preserves_semantics
       ~build:(fun () -> Models.resnet18 ~scale:0.05 ())
       ~transform:(fun f ->
         ignore
           (Driver.compile_nn
              ~opts:{ Driver.default with max_parallel_factor = 4 }
              f))
       ())

(* qcheck: a model made of two copies of a random shape-preserving block
   (so the second block's lowering is stamped from the first), taken
   through lowering + multi-producer elimination.  The printed module
   must verify, parse back, and hit the print/parse/print fixpoint —
   i.e. the SSA renaming of stamped blocks yields well-formed IR even
   with multi-producer buffers crossing the stamped boundary. *)
type seg_layer = S_conv | S_relu | S_dwconv

let gen_twin_spec : (seg_layer list * bool) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let layer = oneofl [ S_conv; S_relu; S_dwconv ] in
  let* n = int_range 1 3 in
  let* layers = list_size (return n) layer in
  let* with_residual = bool in
  return (layers, with_residual)

let build_twin (layers, with_residual) () =
  let t = Nn_builder.create ~name:"twin" ~input_shape:[ 2; 8; 8 ] () in
  let segment () =
    List.iter
      (fun l ->
        match l with
        | S_conv ->
            ignore
              (Nn_builder.conv t ~out_channels:(Nn_builder.channels t)
                 ~kernel:3 ~stride:1 ~pad:1)
        | S_relu -> ignore (Nn_builder.relu t)
        | S_dwconv -> ignore (Nn_builder.dwconv t ~kernel:3 ~stride:1 ~pad:1))
      layers;
    (* A residual shortcut inside each copy: its buffer gets a second
       producer after lowering, so multi-producer elimination has to
       rewrite ops inside stamped nodes. *)
    if with_residual then begin
      let saved = Nn_builder.current t in
      ignore
        (Nn_builder.conv_relu t ~out_channels:(Nn_builder.channels t)
           ~kernel:3 ~stride:1 ~pad:1);
      ignore (Nn_builder.add t (Nn_builder.current t) saved)
    end
  in
  segment ();
  segment ();
  ignore (Nn_builder.flatten t);
  ignore (Nn_builder.linear t ~out_features:3);
  Nn_builder.finish t

let prop_stamp_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"stamp-then-print round-trips through hida.text"
       ~count:15 gen_twin_spec (fun spec ->
         let _m, f = build_twin spec () in
         let mgr = Pass.manager ~verify_each:true () in
         Pass.add mgr Canonicalize.pass;
         Pass.add mgr Construct.pass;
         Pass.add mgr (Fusion.pass ());
         Pass.add mgr (Lowering.nn_pass ~stamp:true ());
         Pass.add mgr Multi_producer.pass;
         Pass.run mgr f;
         Verifier.verify_exn f;
         let s1 = Printer.op_to_string f in
         match Parser.parse_string ~verify:true ~filename:"twin" s1 with
         | Error d -> Alcotest.failf "reparse failed: %s" (Parser.diag_to_string d)
         | Ok op -> Printer.op_to_string op = s1))

(* ---- blob store ---- *)

let test_blob_store_lru () =
  let st = Blob_store.create ~budget_bytes:2048 () in
  let payload = String.make 200 'x' in
  for i = 1 to 20 do
    Blob_store.add st ~ns:"a" ~key:(Printf.sprintf "k%02d" i) payload
  done;
  let s = Blob_store.stats st in
  checkb "stayed under budget" (s.Blob_store.s_bytes <= 2048);
  checkb "evicted something" (s.Blob_store.s_evictions > 0);
  (* Most-recent entry survives; the very first was evicted. *)
  checkb "recent survives" (Blob_store.find st ~ns:"a" "k20" <> None);
  checkb "oldest evicted" (Blob_store.find st ~ns:"a" "k01" = None);
  (* Namespaces are distinct key spaces. *)
  Blob_store.add st ~ns:"b" ~key:"k20" "other";
  Alcotest.(check (option string))
    "ns isolation" (Some "other")
    (Blob_store.find st ~ns:"b" "k20")

let temp_dir () =
  let d = Filename.temp_file "hida_blob" "" in
  Sys.remove d;
  d

let test_blob_store_persistence () =
  let dir = temp_dir () in
  let st = Blob_store.create () in
  Blob_store.add st ~ns:"qor.factors" ~key:"dse#1" "2,4,8";
  Blob_store.add st ~ns:"artifact" ~key:"abc" "payload";
  (match Blob_store.save st ~dir with
  | Ok n -> checki "saved both" 2 n
  | Error e -> Alcotest.failf "save failed: %s" e);
  let st2 = Blob_store.create () in
  (match Blob_store.load st2 ~dir with
  | Ok n -> checki "loaded both" 2 n
  | Error e -> Alcotest.failf "load failed: %s" e);
  Alcotest.(check (option string))
    "value round-trips" (Some "2,4,8")
    (Blob_store.find st2 ~ns:"qor.factors" "dse#1");
  (* Missing dir loads as empty, corrupt file is an error, not a crash. *)
  (match Blob_store.load (Blob_store.create ()) ~dir:(dir ^ "-nowhere") with
  | Ok n -> checki "missing file = empty" 0 n
  | Error e -> Alcotest.failf "missing file should be Ok 0: %s" e);
  let oc = open_out (Filename.concat dir "blob_store.bin") in
  output_string oc "garbage";
  close_out oc;
  (match Blob_store.load (Blob_store.create ()) ~dir with
  | Ok _ -> Alcotest.fail "corrupt file should be an error"
  | Error _ -> ())

(* ---- the QoR store ---- *)

(* Two compiles sharing one store (the cross-process shape of
   [--incr-cache]): a node estimate computed by the first is served to
   the second without recomputation, and DSE factor tuples round-trip
   through the store codec. *)
let test_qor_cache_backing () =
  let _m, f = Polybench.k_2mm ~scale:0.05 () in
  let nest = List.hd (Hida_dialects.Affine_d.outermost_loops f) in
  let store = Blob_store.create () in
  let dev = Device.zu3eg in
  let fresh = Qor.estimate_node dev nest in
  let computed = ref 0 in
  let v1 =
    Qor_cache.node_memo store dev ~bindings:[] nest (fun () ->
        incr computed;
        fresh)
  in
  checkb "computed once" (!computed = 1 && v1 = fresh);
  let scope = Hida_obs.Scope.create () in
  let v2 =
    Hida_obs.Scope.with_scope scope (fun () ->
        Qor_cache.node_memo store dev ~bindings:[] nest (fun () ->
            Alcotest.fail "recomputed"))
  in
  checkb "served from the store" (v2 = fresh);
  let count = Hida_obs.Metrics.counter (Hida_obs.Scope.metrics scope) in
  checki "store hit counted" 1 (count "incr.subtree.hits");
  checki "no store misses" 0 (count "incr.subtree.misses");
  Qor_cache.store_factors store "dse#test" [| 2; 4; 8 |];
  (match Qor_cache.find_factors store "dse#test" with
  | Some f -> checkb "factors round-trip" (f = [| 2; 4; 8 |])
  | None -> Alcotest.fail "factors not served from the store");
  checkb "shape check rejects a wrong tuple"
    (Qor_cache.find_factors store "dse#test" ~valid:(fun f -> Array.length f = 2)
    = None)

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* An end-to-end incremental recompile in-process: compile twice with
   the same store — the driver must report subtree hits and the output
   must be byte-identical. *)
let test_incremental_recompile_reuses () =
  let store = Blob_store.create () in
  let build () = Models.resnet18 ~scale:0.05 () in
  let s1, _rep1 = compile_print ~store ~stamp:true build in
  let s2, rep2 = compile_print ~store ~stamp:true build in
  Alcotest.(check string) "incremental output byte-identical" s1 s2;
  let hits = Hida_obs.Metrics.counter rep2.Driver.metrics "incr.subtree.hits" in
  checkb "subtree hits reported on recompile" (hits > 0);
  checkb "reuse remark emitted"
    (List.exists
       (fun (r : Hida_obs.Remark.t) ->
         r.Hida_obs.Remark.r_severity = Hida_obs.Remark.Analysis
         && contains_sub ~sub:"incremental reuse" r.Hida_obs.Remark.r_msg)
       rep2.Driver.remarks)

let tests =
  [
    Alcotest.test_case "digest distinguishes wiring" `Quick test_digest_wiring;
    Alcotest.test_case "zoo has isomorphic tasks" `Quick
      test_zoo_has_isomorphic_tasks;
    Alcotest.test_case "stamping is byte-identical" `Slow
      test_stamp_byte_identity;
    Alcotest.test_case "stamping preserves semantics" `Slow
      test_stamp_preserves_semantics;
    prop_stamp_roundtrip;
    Alcotest.test_case "blob store LRU" `Quick test_blob_store_lru;
    Alcotest.test_case "blob store persistence" `Quick
      test_blob_store_persistence;
    Alcotest.test_case "qor-cache backing tier" `Quick test_qor_cache_backing;
    Alcotest.test_case "incremental recompile reuses subtrees" `Slow
      test_incremental_recompile_reuses;
  ]
