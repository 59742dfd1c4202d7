(* compile-cold: one designer compiling zoo workloads from the command
   line.  An op is frontend build + Driver.run + Emit_cpp + print, run in
   a forked child that has never compiled, so every op starts from the
   fresh-process state of a CLI invocation.  Passes, DSE and the
   estimator do nearly all the work; no store, server or simulator is
   involved in the timed part.

   The traced run also simulates every compiled design that has a
   dataflow schedule, after the timed op and in the same child:
   Sim_ir.compile_schedule, an untraced Sim.run_compiled and a
   2-replica Sim_farm.simulate (jobs 1).  Those spans give the cycle
   simulator's per-layer figures. *)

open Hida_ir
open Hida_core
open Hida_hlssim
open Wl

let pfs = [ 8; 16; 32; 64; 128; 256 ]

type input = { e : entry; pf : int }

let label i = Printf.sprintf "%s@pf%d" i.e.name i.pf

let pass_layers =
  [
    ("canonicalize", "canonicalize");
    ("construct", "construction");
    ("fusion", "fusion");
    ("lowering", "lowering");
    ("multi_producer", "multi-producer");
    ("balance", "balancing");
    ("parallelize", "parallelization");
    ("partition", "partition");
    ("streamize", "streamization");
    ("tiling_pipeline", "tiling-and-pipeline");
  ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let layer_of_pass name =
  match List.find_opt (fun (_, sub) -> contains ~sub name) pass_layers with
  | Some (layer, _) -> layer
  | None -> "other"

let driver_opts i = { Driver.default with Driver.max_parallel_factor = i.pf; jobs = 1 }

(* A forked child shares the parent's minor heap copy-on-write, so the
   first write to each of its pages faults and copies it: ~510 faults
   per op, which took ~40% of the median op's time and whose cost varies
   with the host far more than the compile does.  Filling the minor heap
   once before the clock starts takes those faults out of the op; the
   faults that remain come from the heap the compile itself grows. *)
let prefault_minor_heap () =
  for _ = 1 to (Gc.get ()).Gc.minor_heap_size / 8 do
    ignore (Sys.opaque_identity (Array.make 7 0))
  done;
  Gc.minor ()

let sim_frames p = if p.smoke then 1024 else 16384
let farm_replicas = 2

(* The simulator's turn in a traced op: [sim_times] are the clock
   readings around the three calls. *)
let simulate ~frames kv design =
  match first_schedule design with
  | None -> ()
  | Some s ->
      let g0 = Pb.now_ns () in
      let g = Sim_ir.compile_schedule device s in
      let g1 = Pb.now_ns () in
      let r = Sim.run_compiled ~frames ~trace:false g in
      let g2 = Pb.now_ns () in
      let arrival_interval =
        max 1 (int_of_float (r.Sim.r_steady_interval /. float_of_int farm_replicas))
      in
      let fr = Sim_farm.simulate ~jobs:1 ~replicas:farm_replicas ~frames ~arrival_interval g in
      let g3 = Pb.now_ns () in
      kv "sim_times" (String.concat " " (List.map string_of_int [ g0; g1; g2; g3 ]));
      kv "sim_nodes" (string_of_int (Sim.num_nodes g));
      kv "sim_ok" (string_of_bool (r.Sim.r_frames = frames && fr.Sim_farm.fr_frames = frames))

(* The op itself, in the child.  Everything after [t4] is untimed:
   measurements, the simulator's turn (when [sim_frames] is given), then
   (when [check]) the output checks. *)
let child_op ~check ?sim_frames i () =
  (* Start from an empty minor heap, as a fresh process does. *)
  Gc.full_major ();
  prefault_minor_heap ();
  let a0 = allocated_words () in
  let t0 = Pb.now_ns () in
  let _m, f = i.e.build () in
  let t1 = Pb.now_ns () in
  let rep = Driver.run ~opts:(driver_opts i) ~device ~path:i.e.path f in
  let t2 = Pb.now_ns () in
  let cpp = Hida_emitter.Emit_cpp.emit_func rep.Driver.design in
  let t3 = Pb.now_ns () in
  let text = Printer.op_to_string rep.Driver.design in
  let t4 = Pb.now_ns () in
  let alloc = allocated_words () -. a0 in
  let b = Buffer.create 512 in
  let kv k v = Buffer.add_string b (k ^ " " ^ v ^ "\n") in
  let kf k v = kv k (Printf.sprintf "%.17g" v) in
  kf "ms" (Pb.ms_of_ns (t4 - t0));
  (* CLOCK_MONOTONIC is system-wide: the parent can place these. *)
  kv "times" (String.concat " " (List.map string_of_int [ t0; t1; t2; t3; t4 ]));
  kf "alloc" alloc;
  kv "rss_kb" (string_of_int (Pb.vm_hwm_kb "self"));
  kv "digest" (Digest.to_hex (Digest.string text));
  kf "compile_ms" (1000. *. rep.Driver.compile_seconds);
  List.iter
    (fun (s : Pass.stats) ->
      kf ("pass." ^ layer_of_pass s.Pass.pass_name)
        (1000. *. (s.Pass.seconds +. s.Pass.verify_seconds)))
    rep.Driver.pass_timing;
  let counters = Hida_obs.Metrics.counters rep.Driver.metrics in
  (match (List.assoc_opt "qor.cache.hits" counters, List.assoc_opt "qor.cache.misses" counters) with
  | Some h, Some m ->
      kv "cache_hits" (string_of_int h);
      kv "cache_misses" (string_of_int m)
  | _ -> ());
  kv "cpp_bytes" (string_of_int (String.length cpp));
  kv "ir_bytes" (string_of_int (String.length text));
  kv "ir_ops" (string_of_int (Ir.Walk.count rep.Driver.design ~pred:(fun _ -> true)));
  Option.iter (fun frames -> simulate ~frames kv rep.Driver.design) sim_frames;
  if check then begin
    (match roundtrip_check text with
    | Ok () -> kv "check" "ok"
    | Error msg -> kv "check" (String.escaped msg));
    let thr, dsp = qor_of rep.Driver.estimate in
    kf "thr" thr;
    kf "dsp" dsp;
    match sim_gap rep.Driver.design rep.Driver.estimate with
    | Some g -> kf "gap" g
    | None -> ()
  end;
  Buffer.contents b

let inputs p =
  let pfs = if p.smoke then [ 8; 256 ] else pfs in
  List.concat_map (fun e -> List.map (fun pf -> { e; pf }) pfs) (zoo_for p)

(* Repeats of the distinct inputs, so that the timed part takes about
   [seconds] on a 2-vCPU x86 host (one round of the 126 inputs takes
   ~1.2 s there), and at least 100 ops whatever the speed. *)
let repeats p n_inputs =
  if p.smoke then (100 / n_inputs) + 1 else max ((100 / n_inputs) + 1) (4 * p.seconds / 5)

let run p =
  let inputs = inputs p in
  let setup_s, () =
    (* One warm-up op per distinct input, all in one forked child per
       pass: a child per input would make set-up mostly fork and
       page-fault cost, which varies with the host far more than the
       compiles do. *)
    repeat_setup p (fun () ->
        ignore
          (Pb.in_child (fun () ->
               List.iter
                 (fun i ->
                   let _m, f = i.e.build () in
                   let rep = Driver.run ~opts:(driver_opts i) ~device ~path:i.e.path f in
                   ignore (Hida_emitter.Emit_cpp.emit_func rep.Driver.design);
                   ignore (Printer.op_to_string rep.Driver.design))
                 inputs;
               "")))
  in
  let plan = plan p ~repeats:(repeats p (List.length inputs)) inputs in
  let seen = Hashtbl.create 256 in
  let ops = ref [] and traced_ms = ref [] and failed = ref 0 in
  let alloc = ref 0. and rss = Hashtbl.create 128 in
  let qor = ref [] and gaps = ref [] in
  let exec ~op ~traced i =
    let key = label i in
    let first = not (Hashtbl.mem seen key) in
    let frames = if traced then Some (sim_frames p) else None in
    match Pb.fields (Pb.in_child (child_op ~check:first ?sim_frames:frames i)) with
    | exception Failure msg ->
        incr failed;
        Pb.note "compile-cold %s: %s" key msg
    | kv ->
        let f k = Pb.ffield kv k in
        let ok =
          if first then begin
            let check = Scanf.unescaped (Pb.field kv "check") in
            if check <> "ok" then Pb.note "compile-cold %s: %s" key check;
            Hashtbl.replace seen key (Pb.field kv "digest", check = "ok");
            qor := (f "thr", f "dsp") :: !qor;
            Option.iter (fun g -> gaps := float_of_string g :: !gaps) (List.assoc_opt "gap" kv);
            check = "ok"
          end
          else
            let digest, ok = Hashtbl.find seen key in
            ok && digest = Pb.field kv "digest"
        in
        (* A simulation that did not run every frame (a deadlock fails
           the child) fails the op. *)
        let ok = ok && List.assoc_opt "sim_ok" kv <> Some "false" in
        if not ok then incr failed;
        if traced then begin
          traced_ms := f "ms" :: !traced_ms;
          (match List.map int_of_string (String.split_on_char ' ' (Pb.field kv "times")) with
          | [ t0; t1; t2; t3; t4 ] ->
              Pb.Trace.span ~op "frontend.build_ms" ~start:t0 ~stop:t1;
              Pb.Trace.span ~op "driver.run_ms" ~start:t1 ~stop:t2;
              Pb.Trace.span ~op "emitter.cpp_ms" ~start:t2 ~stop:t3;
              Pb.Trace.span ~op "ir.print_ms" ~start:t3 ~stop:t4
          | _ -> Pb.fail "malformed child times");
          let pass_ms = ref 0. in
          List.iter
            (fun (k, v) ->
              if String.starts_with ~prefix:"pass." k then begin
                Pb.Trace.count (k ^ "_ms") (float_of_string v);
                pass_ms := !pass_ms +. float_of_string v
              end)
            kv;
          Pb.Trace.count "estimator.finish_ms" (f "compile_ms" -. !pass_ms);
          Pb.Trace.count "emitter.cpp_kb" (f "cpp_bytes" /. 1024.);
          Pb.Trace.count "ir.design_kb" (f "ir_bytes" /. 1024.);
          Pb.Trace.count "ir.design_ops" (f "ir_ops");
          (match Option.map (String.split_on_char ' ') (List.assoc_opt "sim_times" kv) with
          | None -> ()
          | Some [ g0; g1; g2; g3 ] ->
              let g0, g1, g2, g3 = (int_of_string g0, int_of_string g1, int_of_string g2, int_of_string g3) in
              Pb.Trace.span ~op "sim.graph_compile_ms" ~start:g0 ~stop:g1;
              Pb.Trace.span ~op "sim.run" ~start:g1 ~stop:g2;
              Pb.Trace.span ~op "sim.farm" ~start:g2 ~stop:g3;
              let nodes = f "sim_nodes" and frames = float_of_int (sim_frames p) in
              Pb.Trace.count "sim_ops" 1.;
              Pb.Trace.count "sim.nodes" nodes;
              Pb.Trace.count "sim.frames" (2. *. frames);
              Pb.Trace.count "node_frames" (nodes *. frames)
          | Some _ -> Pb.fail "malformed child sim times");
          match (List.assoc_opt "cache_hits" kv, List.assoc_opt "cache_misses" kv) with
          | Some h, Some m ->
              Pb.Trace.count "cache_hits" (float_of_string h);
              Pb.Trace.count "cache_lookups" (float_of_string h +. float_of_string m)
          | _ -> ()
        end
        else begin
          ops := (f "ms", i.e.cls) :: !ops;
          alloc := !alloc +. f "alloc";
          Hashtbl.replace rss key
            (Pb.ffield kv "rss_kb" :: Option.value ~default:[] (Hashtbl.find_opt rss key))
        end
  in
  run_plan p plan exec;
  let lookups = Pb.Trace.total "cache_lookups" and sim_ops = Pb.Trace.total "sim_ops" in
  let layers =
    if not p.traced then []
    else
      List.map
        (fun l -> let k = "pass." ^ l ^ "_ms" in (k, Pb.Trace.per_op k))
        (List.map fst pass_layers @ [ "other" ])
      @ List.map (fun k -> (k, Pb.Trace.span_ms k)) [ "frontend.build_ms"; "emitter.cpp_ms"; "ir.print_ms" ]
      @ List.map
          (fun k -> (k, Pb.Trace.per_op k))
          [ "estimator.finish_ms"; "emitter.cpp_kb"; "ir.design_kb"; "ir.design_ops" ]
      @ (if lookups > 0. then
           [ ("estimator.cache_lookups", Pb.Trace.per_op "cache_lookups");
             ("estimator.cache_hit_ratio", Pb.Trace.total "cache_hits" /. lookups) ]
         else [])
      @
      if sim_ops > 0. then
        let node_frames = Pb.Trace.total "node_frames" in
        let run_ms = Pb.Trace.span_total_ms "sim.run" and farm_ms = Pb.Trace.span_total_ms "sim.farm" in
        let graph_ms = Pb.Trace.span_total_ms "sim.graph_compile_ms" in
        [
          ("sim.graph_compile_ms", graph_ms /. sim_ops);
          ("sim.run_ns_per_node_frame", 1e6 *. run_ms /. node_frames);
          ("sim.farm_ns_per_node_frame", 1e6 *. farm_ms /. node_frames);
          ("sim.host_frames_per_s", 1000. *. Pb.Trace.total "sim.frames" /. (graph_ms +. run_ms +. farm_ms));
          ("sim.nodes", Pb.Trace.total "sim.nodes" /. sim_ops);
          ("sim.frames", Pb.Trace.total "sim.frames" /. sim_ops);
        ]
      else []
  in
  let absent =
    if not p.traced then []
    else
      (if lookups = 0. then
         List.map
           (fun k -> (k, "the compile reports no qor.cache counters"))
           [ "estimator.cache_lookups"; "estimator.cache_hit_ratio" ]
       else [])
      @
      if sim_ops = 0. then
        List.map
          (fun k -> (k, "no compiled design has a dataflow schedule"))
          [ "sim.graph_compile_ms"; "sim.run_ns_per_node_frame"; "sim.farm_ns_per_node_frame";
            "sim.host_frames_per_s"; "sim.nodes"; "sim.frames" ]
      else []
  in
  {
    setup_s;
    ops = Array.of_list (List.rev !ops);
    traced_ms = !traced_ms;
    attempted = List.length plan * if p.traced then 2 else 1;
    failed = !failed;
    alloc_words = !alloc;
    (* The peak of one op moves by ~1% from repeat to repeat, so take
       each input's median peak, then the largest of those. *)
    peak_rss_kb = Hashtbl.fold (fun _ l acc -> max acc (int_of_float (Pb.median l))) rss 0;
    qor = !qor;
    gaps = !gaps;
    layers;
    absent;
  }
