(* edit-incr: a designer editing a model and recompiling it.  Set-up
   prints each zoo model as textual IR, makes two edits of it (the first
   and the last nn.relu removed, as a designer would in the text),
   builds each model's --incr-cache store from the unedited text and
   makes a from-scratch reference compile of every edited text.  An op
   is one CLI run

     hida_compile @edited.mlir --fit --incr-cache DIR -o OUT

   against a fresh copy of the model's base store, restored untimed and
   byte-for-byte whatever its format.  The store is read (replays) and
   written back (save) on every op. *)

open Hida_ir
open Hida_core
open Hida_estimator
open Wl

type edit = { model : string; file : string; ref_file : string; store : string }

(* Remove one [%r = nn.relu(%a)] line and rename every use of [%r] to
   [%a]. *)
let drop_relu text ~which =
  let lines = String.split_on_char '\n' text in
  let relus =
    List.filter (fun l -> Option.is_some (Scanf.sscanf_opt (String.trim l) "%%%s@ = nn.relu(%%%s@)" (fun r a -> (r, a)))) lines
  in
  let target = match which with `First -> List.hd relus | `Last -> List.nth relus (List.length relus - 1) in
  let r, a = Scanf.sscanf (String.trim target) "%%%s@ = nn.relu(%%%s@)" (fun r a -> (r, a)) in
  let ident c = c = '_' || ('0' <= c && c <= '9') || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') in
  let rename line =
    let b = Buffer.create (String.length line) in
    let pat = "%" ^ r in
    let n = String.length line and m = String.length pat in
    let i = ref 0 in
    while !i < n do
      if !i + m <= n && String.sub line !i m = pat && (!i + m = n || not (ident line.[!i + m])) then begin
        Buffer.add_string b ("%" ^ a);
        i := !i + m
      end
      else begin
        Buffer.add_char b line.[!i];
        incr i
      end
    done;
    Buffer.contents b
  in
  String.concat "\n" (List.filter_map (fun l -> if l == target then None else Some (rename l)) lines)

let parse_func text =
  match Hida_text.Parser.parse_string ~filename:"<edit>" text with
  | Error d -> Pb.fail "%s" (Hida_text.Parser.diag_to_string d)
  | Ok top -> (
      match Hida_text.Parser.module_and_func top with
      | Some mf -> mf
      | None -> Pb.fail "edited text has no function")

(* The from-scratch compile an op's output must match: what the CLI
   does for [@FILE --fit -o OUT], in a fresh forked child. *)
let reference e () =
  let text = Pb.read_file e.file in
  let rep = Driver.fit ~opts:Driver.default ~device ~path:`Nn (fun () -> parse_func text) in
  Pb.write_file e.ref_file (Printer.op_to_string rep.Driver.design ^ "\n");
  let thr, dsp = qor_of rep.Driver.estimate in
  Printf.sprintf "thr %.17g\ndsp %.17g\n%s" thr dsp
    (match sim_gap rep.Driver.design rep.Driver.estimate with
    | Some g -> Printf.sprintf "gap %.17g\n" g
    | None -> "")

let cli p ?(env = []) ~tag args =
  let out = Pb.in_scratch (tag ^ ".out") and err = Pb.in_scratch (tag ^ ".err") in
  let t0 = Pb.now_ns () in
  let pid = Pb.spawn ~env ~stdout:out ~stderr:err p.compile_exe args in
  let code, maxrss_kb = Pb.reap pid in
  let ms = Pb.ms_since t0 in
  (code, maxrss_kb, ms, err)

let setup p =
  let models = models_for p in
  let dir = Pb.in_scratch "edit" in
  Pb.rm_rf dir;
  Pb.mkdir_p dir;
  let path n = Filename.concat dir n in
  (* Texts are printed in a child so this process stays small: its peak
     resident set bounds what wait4 can report for the CLI runs. *)
  ignore
    (Pb.in_child (fun () ->
         List.iter
           (fun m ->
             let md, _ = m.build () in
             let text = Printer.op_to_string md ^ "\n" in
             Pb.write_file (path (m.name ^ ".mlir")) text;
             Pb.write_file (path (m.name ^ ".first.mlir")) (drop_relu text ~which:`First);
             Pb.write_file (path (m.name ^ ".last.mlir")) (drop_relu text ~which:`Last))
           models;
         ""));
  let edits =
    List.concat_map
      (fun m ->
        List.map
          (fun k ->
            { model = m.name; file = path (m.name ^ "." ^ k ^ ".mlir");
              ref_file = path (m.name ^ "." ^ k ^ ".ref.mlir"); store = path (m.name ^ ".store") })
          [ "first"; "last" ])
      models
  in
  List.iter
    (fun m ->
      let code, _, _, _ =
        cli p ~tag:"base"
          [ "@" ^ path (m.name ^ ".mlir"); "--fit"; "--incr-cache"; path (m.name ^ ".store") ]
      in
      if code <> 0 then Pb.fail "base store build for %s exited %d" m.name code)
    models;
  let quality = List.map (fun e -> Pb.fields (Pb.in_child (reference e))) edits in
  (edits, quality)

(* [allocated_words] from the OCAMLRUNPARAM=v=0x400 exit report. *)
let allocated_from err =
  List.find_map
    (fun l -> Scanf.sscanf_opt l "allocated_words: %f" Fun.id)
    (String.split_on_char '\n' (Pb.read_file err))

(* Repeats of the 14 edits: one round takes ~1.1 s on a 2-vCPU x86 host,
   and every run has at least 100 ops. *)
let repeats p n = if p.smoke then (100 / n) + 1 else max ((100 / n) + 1) (17 * p.seconds / 20)

let run p =
  let setup_s, (edits, quality) = repeat_setup p (fun () -> setup p) in
  let plan = plan p ~repeats:(repeats p (List.length edits)) edits in
  let work = Pb.in_scratch "op.store" and out = Pb.in_scratch "op.mlir" in
  let metrics_file = Pb.in_scratch "op.metrics.json" in
  let ops = ref [] and traced_ms = ref [] and failed = ref 0 in
  let alloc = ref 0. and rss = ref 0 in
  let store_error = ref None in
  let exec ~op ~traced (e : edit) =
    Pb.rm_rf work;
    Pb.copy_tree e.store work;
    (try Sys.remove out with Sys_error _ -> ());
    let args =
      [ "@" ^ e.file; "--fit"; "--incr-cache"; work; "-o"; out ]
      @ if traced then [ "--metrics-json"; metrics_file ] else []
    in
    let code, maxrss_kb, ms, err = cli p ~env:[ ("OCAMLRUNPARAM", "v=0x400") ] ~tag:"op" args in
    let ok = code = 0 && Sys.file_exists out && Pb.read_file out = Pb.read_file e.ref_file in
    if not ok then begin
      incr failed;
      Pb.note "edit-incr %s: exit %d, output %s" e.file code
        (if Sys.file_exists out then "differs from the from-scratch compile" else "missing")
    end;
    if traced then begin
      traced_ms := ms :: !traced_ms;
      (if code = 0 then
         let j = Pb.parse_json (Pb.read_file metrics_file) in
         match
           ( Pb.num_member [ "metrics"; "counters"; "incr.subtree.hits" ] j,
             Pb.num_member [ "metrics"; "counters"; "incr.subtree.misses" ] j )
         with
         | Some h, Some m ->
             Pb.Trace.count "subtree_hits" h;
             Pb.Trace.count "subtree_lookups" (h +. m)
         | _ -> ());
      (* The layers under the op, measured in this process on the same
         inputs: store load and save, and the text parse. *)
      let st = Blob_store.create () in
      let copy = Pb.in_scratch "layer.store" and saved = Pb.in_scratch "layer.saved" in
      Pb.rm_rf copy;
      Pb.rm_rf saved;
      Pb.copy_tree e.store copy;
      let text = Pb.read_file e.file in
      let t0 = Pb.now_ns () in
      let loaded = Blob_store.load st ~dir:copy in
      let t1 = Pb.now_ns () in
      let saved_ok = Blob_store.save st ~dir:saved in
      let t2 = Pb.now_ns () in
      (match (loaded, saved_ok) with
      | Ok _, Ok _ -> ()
      | Error msg, _ -> store_error := Some ("Blob_store.load failed: " ^ msg)
      | _, Error msg -> store_error := Some ("Blob_store.save failed: " ^ msg));
      ignore (Hida_text.Parser.parse_string ~filename:"<edit>" text);
      let t3 = Pb.now_ns () in
      Pb.Trace.span ~op "incr.store_load_ms" ~start:t0 ~stop:t1;
      Pb.Trace.span ~op "incr.store_save_ms" ~start:t1 ~stop:t2;
      Pb.Trace.span ~op "text.parse_ms" ~start:t2 ~stop:t3;
      let s = Blob_store.stats st in
      Pb.Trace.count "op_ms" ms;
      Pb.Trace.count "text.input_kb" (float_of_int (String.length text) /. 1024.);
      Pb.Trace.count "incr.store_mb" (float_of_int s.Blob_store.s_bytes /. 1e6);
      Pb.Trace.count "incr.store_entries" (float_of_int s.Blob_store.s_entries)
    end
    else begin
      ops := (ms, e.model) :: !ops;
      rss := max !rss maxrss_kb;
      Option.iter (fun w -> alloc := !alloc +. w) (allocated_from err)
    end
  in
  run_plan p plan exec;
  let lookups = Pb.Trace.total "subtree_lookups" in
  (* The store figures, and the compile time derived from them, are only
     reported when every load and save of the store succeeded. *)
  let store_metrics =
    [ "incr.store_load_ms"; "incr.store_save_ms"; "incr.store_mb"; "incr.store_entries"; "incr.compile_ms" ]
  in
  let layers =
    if not p.traced then []
    else
      let span = Pb.Trace.span_ms in
      List.map (fun k -> (k, span k)) [ "incr.store_load_ms"; "incr.store_save_ms"; "text.parse_ms" ]
      @ List.map
          (fun k -> (k, Pb.Trace.per_op k))
          [ "incr.store_mb"; "incr.store_entries"; "text.input_kb" ]
      @ [ ( "incr.compile_ms",
            Pb.Trace.per_op "op_ms" -. span "incr.store_load_ms" -. span "incr.store_save_ms"
            -. span "text.parse_ms" ) ]
      @ (if lookups > 0. then [ ("incr.subtree_hit_ratio", Pb.Trace.total "subtree_hits" /. lookups) ] else [])
      |> List.filter (fun (k, _) -> !store_error = None || not (List.mem k store_metrics))
  in
  let absent =
    (if p.traced && lookups = 0. then
       [ ("incr.subtree_hit_ratio", "--metrics-json reported no incr.subtree counters") ]
     else [])
    @ match !store_error with Some why -> List.map (fun k -> (k, why)) store_metrics | None -> []
  in
  {
    setup_s;
    ops = Array.of_list (List.rev !ops);
    traced_ms = !traced_ms;
    attempted = List.length plan * if p.traced then 2 else 1;
    failed = !failed;
    alloc_words = !alloc;
    peak_rss_kb = !rss;
    qor = List.map (fun kv -> (Pb.ffield kv "thr", Pb.ffield kv "dsp")) quality;
    gaps = List.filter_map (fun kv -> Option.map float_of_string (List.assoc_opt "gap" kv)) quality;
    layers;
    absent;
  }
