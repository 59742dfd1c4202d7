(* Shared benchmark-harness utilities: table formatting and geometric
   means, plus paper reference values for side-by-side reporting. *)

(* ---- Per-stage compile-time breakdowns (Hida_obs tracer) ----

   The driver reports carry the same span tracer the CLI uses; the
   benchmark tables reuse it so compile-time columns can be broken down
   by pipeline stage. *)

let stage_summary report =
  Hida_obs.Trace.stage_summary report.Hida_core.Driver.trace

let print_stage_breakdown ?max_depth name report =
  Printf.printf "%-14s %s\n" name
    (match max_depth with
    | Some d ->
        "\n" ^ Hida_obs.Trace.report ~max_depth:d report.Hida_core.Driver.trace
    | None -> stage_summary report)

(* Top [n] pipeline stages by time, compactly. *)
let top_stages ?(n = 3) report =
  let tr = report.Hida_core.Driver.trace in
  let stages =
    List.concat_map Hida_obs.Trace.children (Hida_obs.Trace.roots tr)
    @ List.filter
        (fun sp -> Hida_obs.Trace.children sp = [])
        (Hida_obs.Trace.roots tr)
  in
  let sorted =
    List.sort
      (fun a b ->
        compare (Hida_obs.Trace.duration tr b) (Hida_obs.Trace.duration tr a))
      stages
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  String.concat ", "
    (List.map
       (fun sp ->
         Printf.sprintf "%s %.2fms" (Hida_obs.Trace.name sp)
           (1000. *. Hida_obs.Trace.duration tr sp))
       (take n sorted))

let geomean = function
  | [] -> nan
  | xs ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheader title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

let fmt_opt = function None -> "-" | Some x -> Printf.sprintf "%.2f" x

let ratio a b =
  match (a, b) with
  | Some a, Some b when b > 0. -> Some (a /. b)
  | _ -> None

let fmt_ratio = function None -> "-" | Some r -> Printf.sprintf "(%.2fx)" r

(* A simple ASCII scatter for Figure 1-style plots: points bucketed on a
   [width] x [height] grid. *)
let ascii_scatter ~width ~height ~xlabel ~ylabel points =
  match points with
  | [] -> ()
  | _ ->
      let xs = List.map fst points and ys = List.map snd points in
      let xmin = List.fold_left min infinity xs
      and xmax = List.fold_left max neg_infinity xs in
      let ymin = List.fold_left min infinity ys
      and ymax = List.fold_left max neg_infinity ys in
      let grid = Array.make_matrix height width ' ' in
      List.iter
        (fun (x, y) ->
          let xi =
            int_of_float
              (float_of_int (width - 1) *. (x -. xmin) /. max 1e-9 (xmax -. xmin))
          in
          let yi =
            int_of_float
              (float_of_int (height - 1) *. (y -. ymin) /. max 1e-9 (ymax -. ymin))
          in
          let c = grid.(height - 1 - yi).(xi) in
          grid.(height - 1 - yi).(xi) <-
            (match c with ' ' -> '.' | '.' -> ':' | ':' -> '*' | _ -> '#'))
        points;
      Printf.printf "%s (max %.3g)\n" ylabel ymax;
      Array.iter
        (fun row ->
          print_char '|';
          Array.iter print_char row;
          print_newline ())
        grid;
      Printf.printf "+%s\n %s (%.3g .. %.3g)\n" (String.make width '-') xlabel
        xmin xmax

(* ---- Host provenance ----

   Every BENCH_*.json records the machine shape it was measured on, so
   numbers checked into different environments can be told apart. *)

let host_provenance_json () =
  Printf.sprintf "\"host\": {\"domains\": %d, \"ocaml\": %S}"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version

(* ---- Result files ----

   Full runs write the committed trajectory file [name] at the
   repository root; smoke runs write under _build/bench-smoke/ so a
   shape check never overwrites the trajectory.  Returns the path. *)

let write_bench_json ~smoke name contents =
  let path =
    if smoke then begin
      List.iter
        (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
        [ "_build"; Filename.concat "_build" "bench-smoke" ];
      Filename.concat (Filename.concat "_build" "bench-smoke") name
    end
    else name
  in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path
