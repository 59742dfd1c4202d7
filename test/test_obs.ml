(* Observability tests: span tracer, Chrome JSON export, metrics
   registry, IR statistics, pass-manager instrumentation hooks, and
   remark/metric capture from a real driver compile. *)

open Hida_ir
open Ir
open Hida_dialects
open Hida_core
open Hida_frontend
open Hida_obs
open Helpers

(* ---- JSON checks (the serve layer's parser) ---- *)

module Json = Hida_serve.Json

let parse_json = Json.parse_exn
let obj_field = Json.member
let str_field name j = Option.bind (Json.member name j) Json.to_str
let num_field name j = Option.bind (Json.member name j) Json.to_float

(* ---- tracer ---- *)

let test_span_nesting () =
  let t = Trace.create () in
  let r =
    Trace.with_span t "pipeline" (fun () ->
        Trace.with_span t "pass-a" (fun () -> ());
        Trace.with_span t "pass-b" (fun () ->
            Trace.with_span t "dse" (fun () -> ()));
        17)
  in
  checki "with_span returns callback result" 17 r;
  let roots = Trace.roots t in
  checki "one root span" 1 (List.length roots);
  let root = List.hd roots in
  check Alcotest.string "root name" "pipeline" (Trace.name root);
  let kids = Trace.children root in
  check
    Alcotest.(list string)
    "children in chronological order" [ "pass-a"; "pass-b" ]
    (List.map Trace.name kids);
  let pass_b = List.nth kids 1 in
  check
    Alcotest.(list string)
    "nested child" [ "dse" ]
    (List.map Trace.name (Trace.children pass_b));
  checkb "find locates nested span"
    (match Trace.find t "dse" with
    | Some sp -> Trace.name sp = "dse"
    | None -> false);
  (* timing sanity: parent covers its children *)
  List.iter
    (fun kid -> checkb "child fits in parent"
        (Trace.duration t kid <= Trace.duration t root +. 1e-9))
    kids;
  checkb "total covers root" (Trace.total_seconds t >= Trace.duration t root)

let test_end_span_closes_deeper () =
  let t = Trace.create () in
  let outer = Trace.begin_span t "outer" in
  let _inner = Trace.begin_span t "inner" in
  (* Closing [outer] must defensively close the still-open [inner]. *)
  Trace.end_span t outer;
  let fresh = Trace.begin_span t "fresh" in
  Trace.end_span t fresh;
  check
    Alcotest.(list string)
    "fresh span is a new root, not a child of inner" [ "outer"; "fresh" ]
    (List.map Trace.name (Trace.roots t))

let test_chrome_json () =
  let t = Trace.create () in
  Trace.with_span t "quoted \"name\" with \\ and \n newline" (fun () ->
      Trace.with_span t ~cat:"dse" "inner" (fun () -> ());
      Trace.instant t "milestone");
  let json = parse_json (Trace.to_chrome_json t) in
  let events =
    match obj_field "traceEvents" json with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let ph ev = match str_field "ph" ev with Some p -> p | None -> "?" in
  List.iter
    (fun ev ->
      checkb "known phase" (List.mem (ph ev) [ "X"; "i"; "M" ]);
      checkb "has a name" (str_field "name" ev <> None))
    events;
  let xs = List.filter (fun ev -> ph ev = "X") events in
  checki "one X event per span" 2 (List.length xs);
  checki "one i event per instant" 1
    (List.length (List.filter (fun ev -> ph ev = "i") events));
  checkb "escaped name round-trips"
    (List.exists
       (fun ev ->
         str_field "name" ev = Some "quoted \"name\" with \\ and \n newline")
       xs);
  List.iter
    (fun ev ->
      checkb "X event has numeric ts and dur"
        (match (num_field "ts" ev, num_field "dur" ev) with
        | Some ts, Some dur -> ts >= 0. && dur >= 0.
        | _ -> false))
    xs

let test_write_chrome_file () =
  let t = Trace.create () in
  Trace.with_span t "root" (fun () -> ());
  let path = Filename.temp_file "hida-test-trace-" ".json" in
  Trace.write_chrome_file t path;
  let ic = open_in path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  checkb "file parses as JSON"
    (match parse_json contents with Json.Obj _ -> true | _ -> false);
  checkb "unwritable path raises Sys_error"
    (try
       Trace.write_chrome_file t "/nonexistent-dir/trace.json";
       false
     with Sys_error _ -> true)

(* ---- metrics ---- *)

let test_metrics () =
  let m = Metrics.create () in
  checki "unknown counter reads 0" 0 (Metrics.counter m "nope");
  Metrics.add m "b.ops" 3;
  Metrics.incr m "b.ops";
  Metrics.incr m "a.ops";
  checki "add + incr accumulate" 4 (Metrics.counter m "b.ops");
  check
    Alcotest.(list (pair string int))
    "counters sorted by name"
    [ ("a.ops", 1); ("b.ops", 4) ]
    (Metrics.counters m);
  checkb "unknown gauge is None" (Metrics.gauge m "t" = None);
  Metrics.set_gauge m "t" 1.5;
  Metrics.set_gauge m "t" 2.5;
  checkb "gauge is last-write-wins" (Metrics.gauge m "t" = Some 2.5);
  let s = Metrics.to_string m in
  checkb "to_string mentions counters and gauges"
    (let contains sub =
       let n = String.length sub and m = String.length s in
       let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     contains "a.ops" && contains "b.ops" && contains "t")

(* ---- IR stats across a synthetic pass ---- *)

let test_ir_stats_synthetic_pass () =
  let _m, f = Listing1.build () in
  let before = Ir_stats.capture f in
  checkb "listing1 has ops and loops" (before.Ir_stats.ops > 0 && before.Ir_stats.loops > 0);
  let deltas = ref [] in
  let mgr = Pass.manager ~verify_each:false () in
  Pass.add mgr
    (Pass.make ~name:"synthetic-add-buffer" (fun root ->
         let blk = List.hd (Region.blocks (Op.region root 0)) in
         Block.prepend blk (Hida_d.buffer_op ~shape:[ 4 ] ~elem:F32 ())));
  let snap = ref Ir_stats.zero in
  Pass.on_before_pass mgr (fun _pass root -> snap := Ir_stats.capture root);
  Pass.on_after_pass mgr (fun pass root _stats ->
      deltas :=
        {
          Ir_stats.pd_pass = pass.Pass.name;
          pd_before = !snap;
          pd_after = Ir_stats.capture root;
        }
        :: !deltas);
  Pass.run mgr f;
  match !deltas with
  | [ pd ] ->
      let d = Ir_stats.delta pd in
      checki "one buffer created" 1 d.Ir_stats.buffers;
      checki "one op created" 1 d.Ir_stats.ops;
      checki "no loops created" 0 d.Ir_stats.loops;
      checkb "delta_to_string mentions buffers"
        (let s = Ir_stats.delta_to_string pd in
         String.length s > 0)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 delta, got %d" (List.length l))

(* ---- pass-manager instrumentation ---- *)

let test_manager_stats_per_run () =
  let _m, f = Listing1.build () in
  let mgr = Pass.manager ~verify_each:true () in
  Pass.add mgr (Pass.make ~name:"nop-1" (fun _ -> ()));
  Pass.add mgr (Pass.make ~name:"nop-2" (fun _ -> ()));
  Pass.run mgr f;
  checki "first run: one stat per pass" 2 (List.length (Pass.timing mgr));
  Pass.run mgr f;
  (* Stats are per-run: a second run must not accumulate onto the first. *)
  checki "second run: still one stat per pass" 2 (List.length (Pass.timing mgr));
  check
    Alcotest.(list string)
    "stats in execution order" [ "nop-1"; "nop-2" ]
    (List.map (fun s -> s.Pass.pass_name) (Pass.timing mgr));
  List.iter
    (fun s ->
      checkb "verify time recorded separately"
        (s.Pass.seconds >= 0. && s.Pass.verify_seconds >= 0.))
    (Pass.timing mgr);
  checkb "totals are consistent"
    (Pass.total_seconds mgr >= Pass.total_verify_seconds mgr)

let test_manager_hooks_order () =
  let _m, f = Listing1.build () in
  let mgr = Pass.manager ~verify_each:false () in
  let log = ref [] in
  Pass.add mgr (Pass.make ~name:"a" (fun _ -> log := "run:a" :: !log));
  Pass.add mgr (Pass.make ~name:"b" (fun _ -> log := "run:b" :: !log));
  Pass.on_before_pass mgr (fun p _ -> log := ("before:" ^ p.Pass.name) :: !log);
  Pass.on_after_pass mgr (fun p _ _ -> log := ("after:" ^ p.Pass.name) :: !log);
  Pass.run mgr f;
  check
    Alcotest.(list string)
    "hooks wrap each pass in order"
    [ "before:a"; "run:a"; "after:a"; "before:b"; "run:b"; "after:b" ]
    (List.rev !log)

let test_manager_verify_off_means_zero () =
  let _m, f = Listing1.build () in
  let mgr = Pass.manager ~verify_each:false () in
  Pass.add mgr (Pass.make ~name:"nop" (fun _ -> ()));
  Pass.run mgr f;
  checkb "verify_seconds is 0 when verification is off"
    (List.for_all (fun s -> s.Pass.verify_seconds = 0.) (Pass.timing mgr))

(* ---- ambient scope ---- *)

let test_scope_noop_without_install () =
  (* All reporting helpers must be harmless with no scope installed. *)
  Scope.count "x" 1;
  Scope.gauge "y" 2.0;
  Scope.instant "z";
  Scope.remark ~pass:"test" Remark.Remark "ignored %d" 42;
  checki "span still runs its callback" 7 (Scope.span "s" (fun () -> 7));
  checkb "no ambient scope" (Scope.current () = None)

let test_scope_captures () =
  let sc = Scope.create () in
  Scope.with_scope sc (fun () ->
      Scope.count "fusion.tasks_fused" 2;
      Scope.count "fusion.tasks_fused" 1;
      Scope.gauge "compile.seconds" 0.5;
      Scope.span ~cat:"pass" "some-pass" (fun () -> Scope.instant "tick");
      Scope.remark ~pass:"fusion" Remark.Remark "fused %s" "conv+relu";
      Scope.remark ~pass:"fusion" Remark.Missed "kept %s apart" "pool");
  checkb "scope uninstalled afterwards" (Scope.current () = None);
  checki "counts accumulate" 3
    (Metrics.counter (Scope.metrics sc) "fusion.tasks_fused");
  checkb "gauge captured"
    (Metrics.gauge (Scope.metrics sc) "compile.seconds" = Some 0.5);
  checkb "span captured"
    (Trace.find (Scope.trace sc) "some-pass" <> None);
  match Scope.remarks sc with
  | [ r1; r2 ] ->
      checkb "remarks in emission order"
        (r1.Remark.r_severity = Remark.Remark
        && r2.Remark.r_severity = Remark.Missed);
      check Alcotest.string "formatted message" "fused conv+relu"
        r1.Remark.r_msg
  | l -> Alcotest.fail (Printf.sprintf "expected 2 remarks, got %d" (List.length l))

(* ---- end-to-end: a real driver compile carries obs data ---- *)

let test_driver_report_observability () =
  let _m, f = Polybench.k_2mm ~scale:0.1 () in
  let rep = Driver.run_memref ~device:Hida_estimator.Device.zu3eg f in
  (* trace: one root pipeline span whose children are the passes *)
  let tr = rep.Driver.trace in
  checkb "pipeline root span exists" (Trace.find tr "hida-opt" <> None);
  let pass_spans =
    match Trace.find tr "hida-opt" with
    | Some root -> List.map Trace.name (Trace.children root)
    | None -> []
  in
  checki "one pass span per timed pass"
    (List.length rep.Driver.pass_timing)
    (List.length pass_spans);
  (* metrics: several distinct counters, incl. per-pass bookkeeping *)
  let counters = Metrics.counters rep.Driver.metrics in
  checkb "at least 5 distinct counters" (List.length counters >= 5);
  checki "pass.runs matches the pipeline length"
    (List.length rep.Driver.pass_timing)
    (Metrics.counter rep.Driver.metrics "pass.runs");
  checkb "ops visited counted"
    (Metrics.counter rep.Driver.metrics "ir.ops_visited" > 0);
  (* per-pass IR deltas: construction must create dataflow structure *)
  checki "one delta per pass"
    (List.length rep.Driver.pass_timing)
    (List.length rep.Driver.pass_deltas);
  checkb "construction creates tasks"
    (List.exists
       (fun pd ->
         let d = Ir_stats.delta pd in
         d.Ir_stats.tasks > 0 || d.Ir_stats.nodes > 0)
       rep.Driver.pass_deltas);
  (* remarks from the real pipeline *)
  checkb "pipeline emitted remarks" (rep.Driver.remarks <> []);
  checkb "parallelization reported"
    (List.exists
       (fun r -> r.Remark.r_pass = "dataflow-parallelization")
       rep.Driver.remarks)

(* ---- histograms ---- *)

let test_histogram_buckets () =
  checki "v=0 -> bucket 0" 0 (Histogram.bucket_index 0);
  checki "v=1 -> bucket 0" 0 (Histogram.bucket_index 1);
  checki "v=2 -> bucket 1" 1 (Histogram.bucket_index 2);
  checki "v=3 -> bucket 2" 2 (Histogram.bucket_index 3);
  checki "v=4 -> bucket 2" 2 (Histogram.bucket_index 4);
  checki "v=5 -> bucket 3" 3 (Histogram.bucket_index 5);
  checki "v=1024 -> bucket 10" 10 (Histogram.bucket_index 1024);
  checki "v=1025 -> bucket 11" 11 (Histogram.bucket_index 1025);
  checki "bucket 0 upper" 1 (Histogram.bucket_upper 0);
  checki "bucket 1 upper" 2 (Histogram.bucket_upper 1);
  checki "bucket 10 upper" 1024 (Histogram.bucket_upper 10);
  (* each bucket's bound is in its own bucket (inclusive upper) *)
  for i = 0 to 20 do
    checki "upper bound lands in its bucket" i
      (Histogram.bucket_index (Histogram.bucket_upper i))
  done

let test_histogram_percentiles () =
  let h = Histogram.create () in
  checki "empty percentile" 0 (Histogram.percentile h 50.);
  checki "empty min" 0 (Histogram.min_value h);
  (* Powers of two sit exactly on bucket bounds, so percentiles are
     exact: 11 samples 1,2,4,...,1024. *)
  for i = 0 to 10 do
    Histogram.record h (1 lsl i)
  done;
  checki "count" 11 (Histogram.count h);
  checki "sum" 2047 (Histogram.sum h);
  checki "min exact" 1 (Histogram.min_value h);
  checki "max exact" 1024 (Histogram.max_value h);
  checki "p50 = 6th smallest" 32 (Histogram.percentile h 50.);
  checki "p100 = max" 1024 (Histogram.percentile h 100.);
  checki "p1 = 1st smallest" 1 (Histogram.percentile h 1.);
  checki "p99 = 11th smallest" 1024 (Histogram.percentile h 99.);
  (* negative samples clamp to 0 *)
  let h2 = Histogram.create () in
  Histogram.record h2 (-5);
  checki "negative clamps to 0" 0 (Histogram.max_value h2);
  (* merge adds buckets, count, sum and extrema *)
  Histogram.merge_into ~dst:h2 h;
  checki "merged count" 12 (Histogram.count h2);
  checki "merged sum" 2047 (Histogram.sum h2);
  checki "merged max" 1024 (Histogram.max_value h2);
  checki "merged min" 0 (Histogram.min_value h2)

(* ---- domain-safe tracing ---- *)

let n_domains = 4
let spans_each_lane = 50

let test_trace_multidomain () =
  let t = Trace.create () in
  Trace.with_span t "main-work" (fun () -> ());
  let worker d () =
    for s = 0 to spans_each_lane - 1 do
      Trace.with_span t
        (Printf.sprintf "d%d-s%d" d s)
        (fun () -> if s mod 10 = 0 then Trace.instant t "tick")
    done
  in
  let domains = Array.init n_domains (fun d -> Domain.spawn (worker d)) in
  Array.iter Domain.join domains;
  checki "one lane per domain plus main" (n_domains + 1) (Trace.lane_count t);
  (* main-lane accessors see only the main lane *)
  check
    Alcotest.(list string)
    "main roots untouched" [ "main-work" ]
    (List.map Trace.name (Trace.roots t));
  (* every worker lane holds its own M root spans *)
  let lanes = Trace.lanes t in
  checki "lanes listed" (n_domains + 1) (List.length lanes);
  List.iteri
    (fun i (lname, roots) ->
      if i = 0 then check Alcotest.string "first lane is main" "main" lname
      else checki "worker lane has M roots" spans_each_lane (List.length roots))
    lanes;
  (* find crosses lanes *)
  checkb "find locates a worker span" (Trace.find t "d2-s17" <> None);
  (* merged chrome export is well-formed and complete *)
  let json = parse_json (Trace.to_chrome_json t) in
  let events =
    match obj_field "traceEvents" json with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let ph ev = match str_field "ph" ev with Some p -> p | None -> "?" in
  let xs = List.filter (fun ev -> ph ev = "X") events in
  checki "one X event per span across all lanes"
    (1 + (n_domains * spans_each_lane))
    (List.length xs);
  checki "one i event per instant" (n_domains * 5)
    (List.length (List.filter (fun ev -> ph ev = "i") events));
  let tids =
    List.sort_uniq compare
      (List.filter_map
         (fun ev ->
           match num_field "tid" ev with
           | Some n when ph ev = "X" -> Some (int_of_float n)
           | _ -> None)
         events)
  in
  checki "X events span one tid per lane" (n_domains + 1) (List.length tids);
  checki "one thread_name metadata per lane" (n_domains + 1)
    (List.length
       (List.filter
          (fun ev -> ph ev = "M" && str_field "name" ev = Some "thread_name")
          events))

let test_metrics_multidomain () =
  let m = Metrics.create () in
  let reps = 1000 in
  let worker () =
    for i = 1 to reps do
      Metrics.incr m "shared.counter";
      Metrics.add m "shared.sum" 2;
      Metrics.observe m "shared.hist" (1 lsl (i mod 8))
    done
  in
  let domains = Array.init n_domains (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join domains;
  let writers = n_domains + 1 in
  checki "concurrent incr loses nothing" (writers * reps)
    (Metrics.counter m "shared.counter");
  checki "concurrent add loses nothing" (writers * reps * 2)
    (Metrics.counter m "shared.sum");
  (match Metrics.histogram m "shared.hist" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      checki "concurrent observe loses nothing" (writers * reps)
        (Histogram.count h);
      checki "histogram max" 128 (Histogram.max_value h));
  (* the JSON snapshot parses *)
  let j = parse_json (Metrics.to_json m) in
  checkb "to_json has counters/gauges/histograms"
    (obj_field "counters" j <> None
    && obj_field "gauges" j <> None
    && obj_field "histograms" j <> None);
  match obj_field "histograms" j with
  | Some (Json.Obj [ ("shared.hist", Json.Obj fields) ]) ->
      checkb "histogram json carries count and p99"
        (List.mem_assoc "count" fields && List.mem_assoc "p99" fields)
  | _ -> Alcotest.fail "histogram entry missing from json"

let test_leaked_span_flagged () =
  let t = Trace.create () in
  let outer = Trace.begin_span t "outer" in
  let _inner = Trace.begin_span t "inner" in
  Trace.end_span t outer;
  let instants = Trace.instants t in
  checkb "leak recorded as an instant event"
    (List.exists
       (fun (_, name, cat) -> name = "leaked span: inner" && cat = "obs")
       instants);
  (* the leak instant survives into the chrome export *)
  let json = parse_json (Trace.to_chrome_json t) in
  let events =
    match obj_field "traceEvents" json with
    | Some (Json.List evs) -> evs
    | _ -> []
  in
  checkb "leak instant exported"
    (List.exists (fun ev -> str_field "name" ev = Some "leaked span: inner") events)

let test_complete_span () =
  let t = Trace.create () in
  Trace.with_span t "parent" (fun () ->
      let now = Trace.now t in
      Trace.complete t "retro" ~start:(now -. 0.002) ~stop:(now -. 0.001));
  match Trace.find t "parent" with
  | None -> Alcotest.fail "parent missing"
  | Some p -> (
      match Trace.children p with
      | [ retro ] ->
          check Alcotest.string "retro child name" "retro" (Trace.name retro);
          checkb "retro duration is the measured interval"
            (abs_float (Trace.duration t retro -. 0.001) < 1e-6)
      | l ->
          Alcotest.fail
            (Printf.sprintf "expected 1 child, got %d" (List.length l)))

(* ---- parallel profiled compile stays byte-identical ---- *)

let test_profiled_parallel_compile_identical () =
  let open Hida_estimator in
  let compile ~jobs ~profile =
    let _m, f = Polybench.k_3mm ~scale:0.1 () in
    let opts = { Driver.default with jobs; profile } in
    let rep = Driver.run_memref ~opts ~device:Device.zu3eg f in
    (Printer.op_to_string rep.Driver.design, rep)
  in
  let ir_serial, _ = compile ~jobs:1 ~profile:false in
  let ir_par, rep = compile ~jobs:2 ~profile:true in
  check Alcotest.string "profiled parallel IR is byte-identical" ir_serial ir_par;
  let m = rep.Driver.metrics in
  checkb "candidate-eval histogram recorded"
    (match Metrics.histogram m "dse.candidate_eval_ns" with
    | Some h -> Histogram.count h > 0
    | None -> false);
  checkb "node-search histogram recorded"
    (Metrics.histogram m "dse.node_search_ns" <> None);
  (* 3mm's first level has two independent nodes, so the pool engaged
     and accounted its wall time *)
  checkb "pool wall time recorded"
    (Metrics.counter m "parallelize.pool.wall_ns" > 0);
  checkb "pool utilization gauge recorded"
    (match Metrics.gauge m "parallelize.pool.utilization" with
    | Some u -> u > 0. && u <= 1.
    | None -> false);
  (* detailed mode put per-candidate spans on some lane *)
  checkb "per-candidate spans traced"
    (Trace.find rep.Driver.trace "candidate" <> None)

let tests =
  [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "end_span closes deeper spans" `Quick
      test_end_span_closes_deeper;
    Alcotest.test_case "chrome json well-formed" `Quick test_chrome_json;
    Alcotest.test_case "chrome file write + unwritable path" `Quick
      test_write_chrome_file;
    Alcotest.test_case "metrics counters and gauges" `Quick test_metrics;
    Alcotest.test_case "ir-stats delta across a synthetic pass" `Quick
      test_ir_stats_synthetic_pass;
    Alcotest.test_case "manager stats are per-run" `Quick
      test_manager_stats_per_run;
    Alcotest.test_case "manager hooks wrap passes in order" `Quick
      test_manager_hooks_order;
    Alcotest.test_case "verify off means zero verify time" `Quick
      test_manager_verify_off_means_zero;
    Alcotest.test_case "scope helpers no-op without scope" `Quick
      test_scope_noop_without_install;
    Alcotest.test_case "scope captures spans, counts and remarks" `Quick
      test_scope_captures;
    Alcotest.test_case "driver report carries trace/metrics/remarks" `Quick
      test_driver_report_observability;
    Alcotest.test_case "histogram bucket boundaries" `Quick
      test_histogram_buckets;
    Alcotest.test_case "histogram exact percentiles and merge" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "multi-domain tracing merges one lane per domain"
      `Quick test_trace_multidomain;
    Alcotest.test_case "multi-domain metrics lose no updates" `Quick
      test_metrics_multidomain;
    Alcotest.test_case "leaked span flagged with an instant" `Quick
      test_leaked_span_flagged;
    Alcotest.test_case "complete records a retroactive span" `Quick
      test_complete_span;
    Alcotest.test_case "profiled parallel compile is byte-identical" `Quick
      test_profiled_parallel_compile_identical;
  ]
