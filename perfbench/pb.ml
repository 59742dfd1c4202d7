(* Shared pieces of the benchmark harness: clock, statistics, the span
   store of traced runs, child processes, scratch files and a small JSON
   reader.  Nothing here touches the compiler. *)

external now_ns : unit -> int = "pb_now_ns"

external wait4 : int -> int * int = "pb_wait4"
(** Block until the child ends: (exit code or 128 + signal, peak RSS
    in KiB). *)

let ms_of_ns ns = float_of_int ns /. 1e6
let ms_since t0 = ms_of_ns (now_ns () - t0)
let fail fmt = Printf.ksprintf failwith fmt
let note fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ---- Statistics ---- *)

let sum l = List.fold_left ( +. ) 0. l
let mean l = match l with [] -> nan | _ -> sum l /. float_of_int (List.length l)
(* Summed in sorted order, so the result does not depend on the order
   the values arrived in. *)
let geomean l = exp (mean (List.sort compare (List.map log l)))

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (numpy's default). *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median l = percentile_sorted (sorted l) 50.

(* A percentile is reported only when it does not sit in a gap between
   op classes.  Around its rank, look at a window of samples on either
   side: where the window holds two classes in two clean blocks (all of
   one below all of the other) and the values jump by more than 1.25x
   at the switch, the rank sits on the edge between the classes and the
   figure flips with whichever side it lands on.  One class, or classes
   interleaved, is fine. *)
let percentile_in_band ~what (samples : (float * string) array) p =
  let a = Array.copy samples in
  Array.sort (fun (x, _) (y, _) -> compare x y) a;
  let n = Array.length a in
  let r = int_of_float (p /. 100. *. float_of_int (n - 1)) in
  let w = max 3 (n / 50) in
  let lo = max 0 (r - w) and hi = min (n - 1) (r + 1 + w) in
  let switches = ref [] in
  for i = lo + 1 to hi do
    if snd a.(i) <> snd a.(i - 1) then switches := i :: !switches
  done;
  match !switches with
  | [ i ] when fst a.(i) > 1.25 *. fst a.(i - 1) ->
      Error
        (Printf.sprintf
           "%s: p%g falls in the gap between op classes (%s up to %.3f ms, %s from %.3f ms)"
           what p (snd a.(i - 1)) (fst a.(i - 1)) (snd a.(i)) (fst a.(i)))
  | _ -> Ok ()

(* Seeded Fisher-Yates shuffle: the seed orders ops, never chooses how
   many of each there are. *)
let shuffle ~seed l =
  let st = Random.State.make [| seed; 0x5eed |] in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let replicate k l = List.concat (List.init k (fun _ -> l))

(* ---- The traced run's record ----

   Spans around each call into a layer (name, op index, start, end on
   the monotonic clock) and per-layer counts, kept in memory until the
   run ends and then summed per name.  Only [--trace 1] records. *)

module Trace = struct
  type span = { s_name : string; s_op : int; s_start : int; s_stop : int }

  let on = ref false
  let ops = ref 0 (* traced ops so far *)
  let spans : span list ref = ref []
  let counts : (string, float) Hashtbl.t = Hashtbl.create 64

  let span ~op name ~start ~stop =
    if !on then spans := { s_name = name; s_op = op; s_start = start; s_stop = stop } :: !spans

  let count name v =
    if !on then
      Hashtbl.replace counts name (v +. Option.value ~default:0. (Hashtbl.find_opt counts name))

  let total name = Option.value ~default:0. (Hashtbl.find_opt counts name)

  (* A span's time (ms) summed over the run. *)
  let span_total_ms name =
    List.fold_left (fun acc s -> if s.s_name = name then acc + (s.s_stop - s.s_start) else acc) 0 !spans
    |> ms_of_ns

  (* Mean per traced op of a span's time (ms) or of a count. *)
  let span_ms name = span_total_ms name /. float_of_int (max 1 !ops)

  let per_op name = total name /. float_of_int (max 1 !ops)
end

(* ---- Scratch space ----

   Everything the benchmark writes lives under [scratch_root] in the
   working directory (the repository checkout) and is removed on exit. *)

let scratch_root = ".perfbench-tmp"
let scratch = Filename.concat scratch_root (string_of_int (Unix.getpid ()))
let in_scratch name = Filename.concat scratch name

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Byte-for-byte copy of a directory tree, whatever its files are
   called or hold. *)
let rec copy_tree src dst =
  mkdir_p dst;
  Array.iter
    (fun n ->
      let s = Filename.concat src n and d = Filename.concat dst n in
      if Sys.is_directory s then copy_tree s d else write_file d (read_file s))
    (Sys.readdir src)

(* Peak resident set ("VmHWM") of a live process, in KiB. *)
let vm_hwm_kb proc =
  let text = read_file (Printf.sprintf "/proc/%s/status" proc) in
  match
    List.find_map
      (fun line ->
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id
        else None)
      (String.split_on_char '\n' text)
  with
  | Some kb -> kb
  | None -> fail "no VmHWM line for process %s" proc

(* ---- Child processes ----

   Every child is tracked until reaped; [stop_children] (run on every
   exit path) kills and reaps whatever is left. *)

let live : int list ref = ref []
let forget pid = live := List.filter (( <> ) pid) !live

let reap pid =
  let r = wait4 pid in
  forget pid;
  r

let stop_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (wait4 pid) with Failure _ -> ())
    !live;
  live := []

(* Create the scratch space; on any exit, stop the children still
   running and remove it. *)
let open_scratch () =
  mkdir_p scratch;
  at_exit (fun () ->
      stop_children ();
      (try rm_rf scratch with Unix.Unix_error _ | Sys_error _ -> ());
      try Unix.rmdir scratch_root with Unix.Unix_error _ -> ())

let with_env extra =
  let keys = List.map fst extra in
  let keep kv =
    match String.index_opt kv '=' with
    | Some i -> not (List.mem (String.sub kv 0 i) keys)
    | None -> true
  in
  Array.append
    (Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))))
    (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) extra))

let spawn ?(env = []) ~stdout ~stderr prog args =
  let flags = [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] in
  let fo = Unix.openfile stdout flags 0o644 in
  let fe = Unix.openfile stderr flags 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close fo;
        Unix.close fe)
      (fun () ->
        Unix.create_process_env prog
          (Array.of_list (prog :: args))
          (with_env env) Unix.stdin fo fe)
  in
  live := pid :: !live;
  pid

(* Run [f] in a forked child and return the string it produces.  The
   child leaves through [_exit], so it never runs the parent's exit
   handlers (which remove the scratch space and stop servers). *)
let in_child f =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let s =
        try f () with e -> "error " ^ String.escaped (Printexc.to_string e)
      in
      let b = Bytes.unsafe_of_string s in
      let rec put off =
        if off < Bytes.length b then
          put (off + Unix.write w b off (Bytes.length b - off))
      in
      (try put 0 with _ -> ());
      Unix._exit 0
  | pid ->
      live := pid :: !live;
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
      let code, _ = reap pid in
      if code <> 0 then fail "forked child exited with code %d" code;
      if String.starts_with ~prefix:"error " s then
        fail "forked child: %s" (String.sub s 6 (String.length s - 6));
      s

(* Child replies are "key value" lines. *)
let fields s =
  List.filter_map
    (fun line ->
      match String.index_opt line ' ' with
      | Some i ->
          Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
      | None -> None)
    (String.split_on_char '\n' s)

let field kv k =
  match List.assoc_opt k kv with Some v -> v | None -> fail "child reply lacks %s" k

let ffield kv k = float_of_string (field kv k)

(* ---- A small JSON reader (for the CLIs' --json / --metrics-json
   output and BENCHMARK.json) ---- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then (incr pos; ws ())
  in
  let expect c =
    ws ();
    if peek () <> c then fail "json: expected '%c' at %d" c !pos;
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "json: bad literal at %d" !pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "json: unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              if code < 128 then Buffer.add_char b (Char.chr code)
              else Buffer.add_char b '?'
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec members acc =
            let k = str () in
            expect ':';
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; members ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> fail "json: expected , or } at %d" !pos
          in
          members []
    | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> fail "json: expected , or ] at %d" !pos
          in
          items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
          incr pos
        done;
        if !pos = start then fail "json: unexpected character at %d" start;
        Num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "json: trailing bytes at %d" !pos;
  v

let rec member path j =
  match (path, j) with
  | [], j -> Some j
  | k :: rest, Obj kvs -> Option.bind (List.assoc_opt k kvs) (member rest)
  | _ -> None

let num_member path j =
  match member path j with Some (Num f) -> Some f | _ -> None
