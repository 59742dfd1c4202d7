(* What every workload shares: its run parameters, the outcome it hands
   back for reporting, the workload zoo, and the untimed quality
   checks on a compiled design. *)

open Hida_ir
open Hida_estimator
open Hida_hlssim

type params = {
  seed : int;
  seconds : int;
  traced : bool;
  smoke : bool;  (** minimal inputs, for the benchmark's own tests *)
  compile_exe : string;
  serve_exe : string;
  t_main : int;  (** when [main] started: the first set-up counts from it *)
}

type outcome = {
  setup_s : float list;  (** one entry per set-up pass *)
  ops : (float * string) array;
      (** untraced timed ops: (latency ms, op class).  Classes name the
          bands the percentile check keeps apart. *)
  traced_ms : float list;
      (** traced runs only: latencies of the traced twins of [ops] *)
  attempted : int;  (** every op run, traced twins included *)
  failed : int;  (** ops that failed or whose output check failed *)
  alloc_words : float;  (** allocated words summed over [ops] *)
  peak_rss_kb : int;  (** of the process running the compiler *)
  qor : (float * float) list;
      (** (throughput samples/s, DSP efficiency 0..1) per distinct design *)
  gaps : float list;  (** sim/estimate interval ratio per distinct design *)
  layers : (string * float) list;  (** per-layer metrics (traced runs) *)
  absent : (string * string) list;
      (** per-layer metrics this workload cannot measure, with why *)
}

let device = Device.zu3eg
let device_name = "zu3eg"

(* Set-up runs three times (once in smoke runs) and [setup_s] is the
   median; the first pass is timed from [main]. *)
let repeat_setup p f =
  let times = ref [] and last = ref None in
  for i = 1 to if p.smoke then 1 else 3 do
    let t0 = if i = 1 then p.t_main else Pb.now_ns () in
    last := Some (f ());
    times := (Pb.ms_since t0 /. 1000.) :: !times
  done;
  (List.rev !times, Option.get !last)

(* The op multiset: [repeats] copies of every input, in seeded order.  A
   traced run takes half as many copies and runs each op twice. *)
let plan p ~repeats inputs =
  let r = if p.traced then max 1 (repeats / 2) else repeats in
  Pb.shuffle ~seed:p.seed (Pb.replicate r inputs)

(* Run the plan.  In a traced run each op runs traced and untraced,
   alternating which goes first; the untraced twin is the baseline of
   [trace_overhead]. *)
let run_plan p plan exec =
  List.iteri
    (fun n x ->
      let traced () =
        incr Pb.Trace.ops;
        exec ~op:n ~traced:true x
      and plain () = exec ~op:n ~traced:false x in
      if not p.traced then plain ()
      else if n mod 2 = 0 then (traced (); plain ())
      else (plain (); traced ()))
    plan

(* ---- The zoo: 7 PyTorch-style models and 14 PolyBench kernels ---- *)

type entry = {
  name : string;
  cls : string;  (** "nn" or "polybench" *)
  path : [ `Nn | `Memref ];
  build : unit -> Ir.op * Ir.op;
}

let zoo =
  let open Hida_frontend in
  List.map
    (fun e -> { name = e.Models.e_name; cls = "nn"; path = `Nn; build = (fun () -> e.Models.e_build ()) })
    Models.all
  @ List.map
      (fun e -> { name = e.Polybench.e_name; cls = "polybench"; path = `Memref; build = (fun () -> e.Polybench.e_build ()) })
      Polybench.all
  @ List.map
      (fun e ->
        { name = e.Polybench_extra.e_name; cls = "polybench"; path = `Memref; build = (fun () -> e.Polybench_extra.e_build ()) })
      Polybench_extra.all

let smoke_names = [ "lenet"; "mlp"; "atax"; "2mm" ]

let zoo_for p =
  if p.smoke then List.filter (fun e -> List.mem e.name smoke_names) zoo else zoo

let models_for p = List.filter (fun e -> e.cls = "nn") (zoo_for p)

(* ---- Untimed checks and quality figures ---- *)

let first_schedule design =
  match Ir.Walk.collect design ~pred:(fun op -> Ir.Op.name op = "hida.schedule") with
  | s :: _ -> Some s
  | [] -> None

(* How far the simulator's steady interval is from the estimator's, as
   a ratio >= 1; [None] for a design without a dataflow schedule. *)
let interval_gap ~sim ~est =
  if sim > 0. && est > 0. then Some (Float.max (sim /. est) (est /. sim)) else None

let sim_gap design (est : Qor.design_est) =
  Option.bind (first_schedule design) (fun s ->
      let g = Sim_ir.compile_schedule device s in
      let r = Sim.run_compiled ~frames:64 ~trace:false g in
      interval_gap ~sim:r.Sim.r_steady_interval ~est:(float_of_int est.Qor.d_interval))

(* The design text must parse back (with verification) and print to
   the same text. *)
let roundtrip_check text =
  match Hida_text.Parser.parse_string ~filename:"<design>" text with
  | Error d -> Error (Hida_text.Parser.diag_to_string d)
  | Ok top -> (
      match Hida_text.Parser.module_and_func top with
      | None -> Error "no function in the printed design"
      | Some (_, f) ->
          if Printer.op_to_string f = text then Ok ()
          else Error "print -> parse -> print is not a fixed point")

let qor_of (e : Qor.design_est) = (e.Qor.d_throughput, e.Qor.d_dsp_efficiency)

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted
