(* The benchmark's own tests ([perfbench.exe --selftest BENCHMARK.json]):

   - a source scan that fails if the benchmark reaches into process-global
     compiler state (the QoR cache module), calls the dense simulator
     core, or sleeps for more than 1 ms;
   - a smoke run of every workload at minimal size, untraced and traced,
     asserting that the summary line is correct and names every metric
     of BENCHMARK.json with its unit. *)

(* Spelled in pieces so the scanner does not match itself. *)
let banned = [ "Qor_" ^ "cache."; "Sim." ^ "run_dense" ]
let sleep_calls = [ "Unix." ^ "sleepf"; "Unix." ^ "sleep "; "time." ^ "sleep(" ]

let source_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         List.exists (fun ext -> Filename.check_suffix f ext) [ ".ml"; ".py"; ".c" ])
  |> List.sort compare
  |> List.map (Filename.concat dir)

let find_all ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i acc =
    if i + n > m then List.rev acc
    else if String.sub s i n = sub then go (i + n) (i + n :: acc)
    else go (i + 1) acc
  in
  go 0 []

(* The argument of a sleep call must be a literal of at most 1 ms. *)
let sleep_ok text after =
  let rest = String.sub text after (min 40 (String.length text - after)) in
  match Scanf.sscanf_opt rest " %f" Fun.id with Some s -> s <= 0.001 | None -> false

let scan dir =
  let files = source_files dir in
  if files = [] then [ "no benchmark sources found in " ^ dir ]
  else
    List.concat_map
      (fun file ->
        let text = Pb.read_file file in
        List.concat_map
          (fun b ->
            if find_all ~sub:b text <> [] then [ Printf.sprintf "%s references %s" file b ] else [])
          banned
        @ List.concat_map
            (fun call ->
              List.filter_map
                (fun pos ->
                  if sleep_ok text pos then None
                  else Some (Printf.sprintf "%s sleeps for more than 1 ms (%s)" file call))
                (find_all ~sub:call text))
            sleep_calls)
      files

let spec_metrics spec key =
  match Pb.member [ key ] spec with
  | Some (Pb.Arr l) ->
      List.map
        (fun m ->
          match (Pb.member [ "name" ] m, Pb.member [ "unit" ] m) with
          | Some (Pb.Str n), Some (Pb.Str u) -> (n, u)
          | _ -> Pb.fail "BENCHMARK.json: malformed %s entry" key)
        l
  | _ -> Pb.fail "BENCHMARK.json: no %s list" key

let smoke ~self ~compile_exe ~serve_exe ~workload ~trace expected =
  let out = Pb.in_scratch (Printf.sprintf "%s.%d.out" workload trace) in
  let err = Pb.in_scratch (Printf.sprintf "%s.%d.err" workload trace) in
  let pid =
    Pb.spawn ~stdout:out ~stderr:err self
      [ "--workload"; workload; "--seed"; "1"; "--seconds"; "1"; "--trace"; string_of_int trace;
        "--smoke"; "--compile-exe"; compile_exe; "--serve-exe"; serve_exe ]
  in
  let code, _ = Pb.reap pid in
  let label = Printf.sprintf "%s --trace %d" workload trace in
  if code <> 0 then [ Printf.sprintf "%s exited %d: %s" label code (Pb.read_file err) ]
  else
    let lines = List.filter (( <> ) "") (String.split_on_char '\n' (Pb.read_file out)) in
    let j = Pb.parse_json (List.nth lines (List.length lines - 1)) in
    let keys = match j with Pb.Obj kvs -> List.map fst kvs | _ -> [] in
    (if List.sort compare keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
       [ label ^ ": summary keys are not correct/attempted/failed/metrics" ]
     else [])
    @ (if Pb.member [ "correct" ] j <> Some (Pb.Bool true) then
         [ Printf.sprintf "%s: not correct: %s" label (Pb.read_file err) ]
       else [])
    @ List.filter_map
        (fun (name, unit) ->
          match (Pb.member [ "metrics"; name; "value" ] j, Pb.member [ "metrics"; name; "unit" ] j) with
          | Some (Pb.Num _), Some (Pb.Str u) when u = unit -> None
          | _ -> Some (Printf.sprintf "%s: metric %s missing or not in %s" label name unit))
        expected

let run ~spec ~self ~compile_exe ~serve_exe =
  Pb.open_scratch ();
  let spec = Pb.parse_json (Pb.read_file spec) in
  let e2e = spec_metrics spec "end_to_end" and layers = spec_metrics spec "per_layer" in
  let workloads =
    match Pb.member [ "workloads" ] spec with
    | Some (Pb.Arr l) -> List.filter_map (fun w -> match Pb.member [ "name" ] w with Some (Pb.Str n) -> Some n | _ -> None) l
    | _ -> []
  in
  let problems =
    scan (Filename.dirname self)
    @ (if workloads = [] then [ "BENCHMARK.json names no workloads" ] else [])
    @ List.concat_map
        (fun workload ->
          smoke ~self ~compile_exe ~serve_exe ~workload ~trace:0 e2e
          @ smoke ~self ~compile_exe ~serve_exe ~workload ~trace:1 layers)
        workloads
  in
  List.iter (fun p -> prerr_endline ("perfbench selftest: " ^ p)) problems;
  if problems = [] then begin
    Printf.printf "perfbench selftest: %d workloads, %d end-to-end and %d per-layer metrics ok\n"
      (List.length workloads) (List.length e2e) (List.length layers);
    0
  end
  else 1
