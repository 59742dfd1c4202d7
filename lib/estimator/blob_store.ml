(* Namespaced byte-budgeted LRU blob store (see the .mli).

   Entries are namespaced plain strings so the QoR store's subtree
   results and whole-pipeline artifacts share one budget.  Eviction is
   an amortized quarter-sweep: the QoR namespaces hold one entry per DSE
   search and node estimate of every design compiled, so an O(n)
   min-scan per eviction would be quadratic. *)

type entry = {
  e_ns : string;
  e_val : string;
  e_bytes : int;
  mutable e_stamp : int;
}

type ns_counts = { mutable nc_hits : int; mutable nc_misses : int }

type t = {
  lock : Mutex.t;
  tbl : (string * string, entry) Hashtbl.t;
  ns_tbl : (string, ns_counts) Hashtbl.t;
  budget : int;
  mutable live_bytes : int;
  mutable tick : int;
  mutable evictions : int;
}

type ns_stats = {
  ns_name : string;
  ns_entries : int;
  ns_bytes : int;
  ns_hits : int;
  ns_misses : int;
}

type stats = {
  s_entries : int;
  s_bytes : int;
  s_budget : int;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
  s_namespaces : ns_stats list;
}

let default_budget_bytes = 256 * 1024 * 1024

(* Key strings, the entry record and the hashtable slot, charged flat. *)
let entry_overhead = 128

let entry_bytes ~ns ~key v =
  String.length v + String.length key + String.length ns + entry_overhead

let create ?(budget_bytes = default_budget_bytes) () =
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create 1024;
    ns_tbl = Hashtbl.create 8;
    budget = max 1 budget_bytes;
    live_bytes = 0;
    tick = 0;
    evictions = 0;
  }

let locked st f =
  Mutex.lock st.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.lock) f

let counts_of st ns =
  match Hashtbl.find_opt st.ns_tbl ns with
  | Some c -> c
  | None ->
      let c = { nc_hits = 0; nc_misses = 0 } in
      Hashtbl.replace st.ns_tbl ns c;
      c

let find st ~ns key =
  locked st (fun () ->
      let c = counts_of st ns in
      match Hashtbl.find_opt st.tbl (ns, key) with
      | Some e ->
          c.nc_hits <- c.nc_hits + 1;
          st.tick <- st.tick + 1;
          e.e_stamp <- st.tick;
          Some e.e_val
      | None ->
          c.nc_misses <- c.nc_misses + 1;
          None)

(* Drop the least-recently-used entries down to 3/4 of the budget.
   Stamps are unique (the clock ticks under the lock), so the cutoff is
   exact; one O(n log n) sweep per quarter-budget of insertions. *)
let evict_over_locked st =
  if st.live_bytes > st.budget && Hashtbl.length st.tbl > 0 then begin
    let n = Hashtbl.length st.tbl in
    let stamped = Array.make n (0, ("", ""), 0) in
    let i = ref 0 in
    Hashtbl.iter
      (fun k e ->
        stamped.(!i) <- (e.e_stamp, k, e.e_bytes);
        incr i)
      st.tbl;
    Array.sort (fun (a, _, _) (b, _, _) -> compare a b) stamped;
    let target = st.budget * 3 / 4 in
    let j = ref 0 in
    while st.live_bytes > target && !j < n do
      let _, k, bytes = stamped.(!j) in
      Hashtbl.remove st.tbl k;
      st.live_bytes <- st.live_bytes - bytes;
      st.evictions <- st.evictions + 1;
      incr j
    done
  end

let add st ~ns ~key v =
  let bytes = entry_bytes ~ns ~key v in
  locked st (fun () ->
      if bytes <= st.budget then begin
        (match Hashtbl.find_opt st.tbl (ns, key) with
        | Some old -> st.live_bytes <- st.live_bytes - old.e_bytes
        | None -> ());
        st.tick <- st.tick + 1;
        Hashtbl.replace st.tbl (ns, key)
          { e_ns = ns; e_val = v; e_bytes = bytes; e_stamp = st.tick };
        st.live_bytes <- st.live_bytes + bytes;
        evict_over_locked st
      end)

let stats st =
  locked st (fun () ->
      let per_ns = Hashtbl.create 8 in
      Hashtbl.iter
        (fun _ e ->
          let entries, bytes =
            match Hashtbl.find_opt per_ns e.e_ns with
            | Some (n, b) -> (n, b)
            | None -> (0, 0)
          in
          Hashtbl.replace per_ns e.e_ns (entries + 1, bytes + e.e_bytes))
        st.tbl;
      let names = Hashtbl.create 8 in
      Hashtbl.iter (fun ns _ -> Hashtbl.replace names ns ()) per_ns;
      Hashtbl.iter (fun ns _ -> Hashtbl.replace names ns ()) st.ns_tbl;
      let namespaces =
        Hashtbl.fold
          (fun ns () acc ->
            let entries, bytes =
              Option.value (Hashtbl.find_opt per_ns ns) ~default:(0, 0)
            in
            let hits, misses =
              match Hashtbl.find_opt st.ns_tbl ns with
              | Some c -> (c.nc_hits, c.nc_misses)
              | None -> (0, 0)
            in
            {
              ns_name = ns;
              ns_entries = entries;
              ns_bytes = bytes;
              ns_hits = hits;
              ns_misses = misses;
            }
            :: acc)
          names []
        |> List.sort (fun a b -> compare a.ns_name b.ns_name)
      in
      let hits, misses =
        List.fold_left
          (fun (h, m) ns -> (h + ns.ns_hits, m + ns.ns_misses))
          (0, 0) namespaces
      in
      {
        s_entries = Hashtbl.length st.tbl;
        s_bytes = st.live_bytes;
        s_budget = st.budget;
        s_hits = hits;
        s_misses = misses;
        s_evictions = st.evictions;
        s_namespaces = namespaces;
      })

let keys st ~ns =
  locked st (fun () ->
      Hashtbl.fold (fun (n, k) _ acc -> if n = ns then k :: acc else acc) st.tbl [])
  |> List.sort compare

(* ---- Persistence ----

   A Marshal image of ((ns, key, value) array) behind a versioned magic
   header.  Only plain strings cross the boundary, so reading a file
   written by the same build is safe; a corrupt or version-mismatched
   file fails the header or the Marshal read and is reported as an
   error, never an exception. *)

let magic = "hida-blob-store-v1:" ^ Sys.ocaml_version ^ "\n"
let file_name = "blob_store.bin"

let save st ~dir =
  let snapshot =
    locked st (fun () ->
        let entries =
          Hashtbl.fold
            (fun (ns, key) e acc -> (e.e_stamp, ns, key, e.e_val) :: acc)
            st.tbl []
        in
        (* Oldest first, so loading re-inserts in recency order. *)
        List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) entries
        |> List.map (fun (_, ns, key, v) -> (ns, key, v))
        |> Array.of_list)
  in
  try
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let path = Filename.concat dir file_name in
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc magic;
        Marshal.to_channel oc snapshot []);
    Sys.rename tmp path;
    Ok (Array.length snapshot)
  with
  | Sys_error e | Unix.Unix_error (_, _, e) -> Error e
  | e -> Error (Printexc.to_string e)

let load st ~dir =
  let path = Filename.concat dir file_name in
  if not (Sys.file_exists path) then Ok 0
  else
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let hdr = really_input_string ic (String.length magic) in
          if hdr <> magic then Error "blob store: version mismatch"
          else begin
            let entries : (string * string * string) array =
              Marshal.from_channel ic
            in
            Array.iter (fun (ns, key, v) -> add st ~ns ~key v) entries;
            Ok (Array.length entries)
          end)
    with
    | Sys_error e -> Error e
    | End_of_file -> Error "blob store: truncated file"
    | Failure e -> Error ("blob store: " ^ e)
    | e -> Error (Printexc.to_string e)
