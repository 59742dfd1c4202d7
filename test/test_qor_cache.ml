(* Tests for the store-backed QoR memo: a store-served estimate must be
   indistinguishable from a fresh one, lookups are counted per compile,
   the store is an explicit value (no process-wide state), corrupt
   entries are recomputed and reported, and the level-parallel DSE
   (--jobs N) must produce byte-identical designs to the sequential run
   on every bundled workload. *)

open Hida_ir
open Ir
open Hida_dialects
open Hida_estimator
open Hida_core
open Hida_frontend
open Helpers

let dev = Device.zu3eg

(* ---- Memoized vs fresh estimates ---- *)

(* Over random op trees, serving an estimate through a store must return
   exactly the fresh value, both on the populating (miss) call and on
   the subsequent (hit) call, which is a single store hit. *)
let prop_memoized_equals_fresh =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"memoized estimate equals fresh" ~count:100
       Test_text.gen_module (fun op ->
         let fresh = Qor.estimate_node_or_nested dev ~bindings:[] op in
         let store = Blob_store.create () in
         let memo = Qor_cache.node_memo store in
         let miss = Qor.estimate_node_or_nested ~memo dev ~bindings:[] op in
         let s0 = Blob_store.stats store in
         let hit = Qor.estimate_node_or_nested ~memo dev ~bindings:[] op in
         let s1 = Blob_store.stats store in
         fresh = miss && fresh = hit
         && s1.Blob_store.s_hits = s0.Blob_store.s_hits + 1
         && s1.Blob_store.s_misses = s0.Blob_store.s_misses))

(* Store lookups are reported into the ambient scope as
   [incr.subtree.hits]/[incr.subtree.misses]; without a store nothing is
   looked up or counted. *)
let test_counters () =
  let _m, f = Polybench.k_2mm ~scale:0.05 () in
  let nest = List.hd (Affine_d.outermost_loops f) in
  let store = Blob_store.create () in
  let scope = Hida_obs.Scope.create () in
  let count name = Hida_obs.Metrics.counter (Hida_obs.Scope.metrics scope) name in
  let estimate ?memo () =
    Hida_obs.Scope.with_scope scope (fun () ->
        ignore (Qor.estimate_node_or_nested ?memo dev ~bindings:[] nest))
  in
  estimate ~memo:(Qor_cache.node_memo store) ();
  checki "first estimate misses" 0 (count "incr.subtree.hits");
  checki "one miss recorded" 1 (count "incr.subtree.misses");
  estimate ~memo:(Qor_cache.node_memo store) ();
  checki "second estimate hits" 1 (count "incr.subtree.hits");
  checki "no new miss" 1 (count "incr.subtree.misses");
  checki "store holds one entry" 1 (Blob_store.stats store).Blob_store.s_entries;
  estimate ();
  checki "no store, no lookups" 2
    (count "incr.subtree.hits" + count "incr.subtree.misses")

(* Without a memo the signature is recomputed from the IR, so a
   mutation is observed at once. *)
let test_signature_observes_mutation () =
  let _m, f = Polybench.k_2mm ~scale:0.05 () in
  let nest = List.hd (Affine_d.outermost_loops f) in
  let s0 = Qor_cache.signature nest in
  checkb "signature is deterministic" (String.equal s0 (Qor_cache.signature nest));
  Op.set_attr nest "upper" (A_int 123456);
  checkb "mutation changes the signature"
    (not (String.equal s0 (Qor_cache.signature nest)))

(* Two structurally identical nodes under different enclosing trip
   counts must sign differently: the estimator's trip counts cross the
   region boundary (the hierarchy regression behind this test computed
   steps=2 estimates from a steps=8 cache). *)
let test_signature_captures_enclosing_trips () =
  let build steps =
    let open Loop_dsl in
    let ctx, args = kernel ~name:"k" ~arrays:[ ("x", [ 16 ]) ] in
    let x = match args with [ x ] -> x | _ -> assert false in
    for1 ctx.bld ~n:steps (fun bl _t ->
        for1 bl ~n:16 (fun bl2 i ->
            let v = load bl2 x [ i ] in
            store bl2 v x [ i ]));
    let _m, f = finish ctx in
    (* The inner loop is identical in both builds; only the enclosing
       loop's trip count differs. *)
    List.hd (Affine_d.outermost_loops (List.hd (Affine_d.outermost_loops f)))
  in
  let s2 = Qor_cache.signature (build 2) in
  let s8 = Qor_cache.signature (build 8) in
  checkb "enclosing trip count is part of the signature"
    (not (String.equal s2 s8))

(* ---- --jobs determinism ---- *)

(* The level-scheduled parallel DSE must be a pure latency optimization:
   for every bundled workload the printed design with [jobs = 4] is
   byte-identical to the sequential one. *)
let test_jobs_determinism () =
  let print_memref ~jobs build =
    let f = build () in
    let rep =
      Driver.run_memref
        ~opts:{ Driver.default with jobs }
        ~device:Device.zu3eg f
    in
    Printer.op_to_string rep.Driver.design
  in
  let print_nn ~jobs build =
    let f = build () in
    let rep =
      Driver.run_nn ~opts:{ Driver.default with jobs } ~device:Device.vu9p_slr f
    in
    Printer.op_to_string rep.Driver.design
  in
  List.iter
    (fun (e : Polybench.entry) ->
      let build () = snd (e.Polybench.e_build ()) in
      checkb
        (Printf.sprintf "%s: jobs=4 identical to jobs=1" e.Polybench.e_name)
        (String.equal (print_memref ~jobs:1 build) (print_memref ~jobs:4 build)))
    Polybench.all;
  List.iter
    (fun (e : Polybench_extra.entry) ->
      let build () = snd (e.Polybench_extra.e_build ()) in
      checkb
        (Printf.sprintf "%s: jobs=4 identical to jobs=1"
           e.Polybench_extra.e_name)
        (String.equal (print_memref ~jobs:1 build) (print_memref ~jobs:4 build)))
    Polybench_extra.all;
  List.iter
    (fun (e : Models.entry) ->
      let build () = snd (e.Models.e_build ()) in
      checkb
        (Printf.sprintf "%s: jobs=4 identical to jobs=1" e.Models.e_name)
        (String.equal (print_nn ~jobs:1 build) (print_nn ~jobs:4 build)))
    Models.all

(* ---- The store is explicit ---- *)

let compile_resnet18 ?store () =
  let _m, f = Models.resnet18 () in
  let rep = Driver.run_nn ?store ~device:Device.vu9p_slr f in
  (Printer.op_to_string rep.Driver.design, rep)

let subtree_hits rep = Hida_obs.Metrics.counter rep.Driver.metrics "incr.subtree.hits"

(* One process, three compiles: with a store, with a fresh store, with
   none.  Nothing leaks between them through process state — the second
   and third compiles reuse nothing — and all three designs are
   byte-identical. *)
let test_store_is_explicit () =
  let store = Blob_store.create () in
  let ir1, _ = compile_resnet18 ~store () in
  checkb "the first store was filled" ((Blob_store.stats store).Blob_store.s_entries > 0);
  let ir2, rep2 = compile_resnet18 ~store:(Blob_store.create ()) () in
  let ir3, rep3 = compile_resnet18 () in
  checki "fresh store: no hits" 0 (subtree_hits rep2);
  checki "no store: no hits" 0 (subtree_hits rep3);
  checki "no store: no lookups" 0
    (Hida_obs.Metrics.counter rep3.Driver.metrics "incr.subtree.misses");
  Alcotest.(check string) "fresh store: identical IR" ir1 ir2;
  Alcotest.(check string) "no store: identical IR" ir1 ir3

(* ---- Corrupt store entries ---- *)

(* Plant a bad value under every real key of the given namespaces — an
   undecodable one, or a well-formed factor tuple of the wrong shape —
   then recompile: the design must equal a store-less compile, the
   damage must be counted and reported in a remark, and the recompile
   must have overwritten the entries (a third compile sees none). *)
let test_corrupt_entries_reported () =
  let compile ?store () =
    let _m, f = Models.resnet18 ~scale:0.05 () in
    let rep = Driver.run_nn ?store ~device:Device.pynq_z2 f in
    (Printer.op_to_string rep.Driver.design, rep)
  in
  let corrupt rep = Hida_obs.Metrics.counter rep.Driver.metrics "incr.cache.corrupt" in
  let reference, _ = compile () in
  List.iter
    (fun (namespaces, bad) ->
      let label = String.concat "+" namespaces ^ " <- " ^ String.escaped bad in
      let store = Blob_store.create () in
      ignore (compile ~store ());
      List.iter
        (fun ns ->
          let keys = Blob_store.keys store ~ns in
          checkb (ns ^ ": the compile stored entries") (keys <> []);
          List.iter (fun key -> Blob_store.add store ~ns ~key bad) keys)
        namespaces;
      let ir, rep = compile ~store () in
      Alcotest.(check string) (label ^ ": identical to a store-less compile") reference ir;
      checkb (label ^ ": corrupt entries counted") (corrupt rep >= 1);
      checkb (label ^ ": one corrupt-entry remark")
        (List.length
           (List.filter
              (fun (r : Hida_obs.Remark.t) ->
                r.Hida_obs.Remark.r_severity = Hida_obs.Remark.Analysis
                && contains ~sub:"corrupt store entr" r.Hida_obs.Remark.r_msg)
              rep.Driver.remarks)
        = 1);
      let _, rep3 = compile ~store () in
      checki (label ^ ": entries were overwritten") 0 (corrupt rep3))
    [
      ([ "qor.node"; "qor.design" ], "\x00garbage;,");
      ([ "qor.factors" ], "\x00garbage;,");
      ([ "qor.factors" ], "1");
      ([ "qor.replay" ], "\x00garbage;,");
    ]

let tests =
  [
    prop_memoized_equals_fresh;
    Alcotest.test_case "hit/miss counters" `Quick test_counters;
    Alcotest.test_case "signature observes mutation" `Quick
      test_signature_observes_mutation;
    Alcotest.test_case "signature captures enclosing trips" `Quick
      test_signature_captures_enclosing_trips;
    Alcotest.test_case "store is explicit" `Quick test_store_is_explicit;
    Alcotest.test_case "corrupt entries recomputed and reported" `Quick
      test_corrupt_entries_reported;
    Alcotest.test_case "--jobs determinism on all workloads" `Quick
      test_jobs_determinism;
  ]
