(* Serve benchmark: client-observed latency against a live hida-serve
   instance, cold vs warm-hit vs coalesced.

   The server runs in a domain of this process (same code path as the
   [hida-serve] binary: socket, worker pool, artifact store); clients
   are separate domains each opening its own connection, so every
   number below includes the full connect/frame/parse round trip.

   Per workload:

     cold       first compile of the key — a full pipeline run
     warm       the same request again — answered from the
                content-addressed artifact store
     coalesced  [clients] identical concurrent requests for a key the
                store has not seen; the leader runs the pipeline once
                and the followers attach to it

   Each served cold artifact is also compared byte-for-byte against an
   in-process [Artifact.compile] of the same request.  Results land in
   BENCH_serve.json. *)

open Hida_serve

type spec = { w_name : string; w_path : string }

let nn n = { w_name = n; w_path = "nn" }
let kernel n = { w_name = n; w_path = "memref" }

let opts_cold =
  { Protocol.default_opts with Protocol.co_pf = 32; co_tile = 32 }

(* A second options point with a distinct artifact key, so the coalesce
   round always starts from a store miss. *)
let opts_fresh =
  { Protocol.default_opts with Protocol.co_pf = 16; co_tile = 16 }

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (1000. *. (Unix.gettimeofday () -. t0), r)

let compile_exn ~socket src opts =
  match Client.compile ~socket src opts with
  | Ok r -> r
  | Error e -> failwith ("serve bench: " ^ e)

type row = {
  b_name : string;
  b_path : string;
  b_cold_ms : float;
  b_warm_ms : float;
  b_coalesced_ms : float;  (** mean over the coalesced replies; nan if none *)
  b_coalesced : int;  (** replies that attached to the in-flight compile *)
  b_clients : int;
  b_identical : bool;
}

let bench_workload ~socket ~clients spec =
  let src = Protocol.Zoo spec.w_name in
  let cold_ms, cold = time_ms (fun () -> compile_exn ~socket src opts_cold) in
  assert (not cold.Protocol.cr_cached);
  (* Warm: best of 3 — the numbers are microseconds, so one scheduler
     hiccup would otherwise dominate. *)
  let warm_ms =
    List.fold_left min infinity
      (List.init 3 (fun _ ->
           let ms, warm = time_ms (fun () -> compile_exn ~socket src opts_cold) in
           assert warm.Protocol.cr_cached;
           ms))
  in
  (* Coalesced: concurrent identical requests for an unseen key. *)
  let results =
    List.init clients (fun _ ->
        Domain.spawn (fun () ->
            time_ms (fun () -> compile_exn ~socket src opts_fresh)))
    |> List.map Domain.join
  in
  let coalesced = List.filter (fun (_, r) -> r.Protocol.cr_coalesced) results in
  let coalesced_ms =
    match coalesced with
    | [] -> nan
    | l ->
        List.fold_left (fun acc (ms, _) -> acc +. ms) 0. l
        /. float_of_int (List.length l)
  in
  (* Served artifact vs a local pipeline run of the same request. *)
  let identical =
    match Artifact.compile src opts_cold with
    | Ok a -> a.Artifact.a_ir = cold.Protocol.cr_ir
    | Error _ -> false
  in
  {
    b_name = spec.w_name;
    b_path = spec.w_path;
    b_cold_ms = cold_ms;
    b_warm_ms = warm_ms;
    b_coalesced_ms = coalesced_ms;
    b_coalesced = List.length coalesced;
    b_clients = clients;
    b_identical = identical;
  }

let json_of_rows ~workers ~clients rows =
  let buf = Buffer.create 4096 in
  let num v = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf ("  " ^ Util.host_provenance_json () ^ ",\n");
  Buffer.add_string buf (Printf.sprintf "  \"workers\": %d,\n" workers);
  Buffer.add_string buf (Printf.sprintf "  \"clients\": %d,\n" clients);
  Buffer.add_string buf "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"path\": %S, \"cold_ms\": %.3f, \"warm_ms\": \
            %.3f, \"warm_speedup\": %.2f, \"coalesced_ms\": %s, \
            \"coalesced_replies\": %d, \"clients\": %d, \"byte_identical\": \
            %b}%s\n"
           r.b_name r.b_path r.b_cold_ms r.b_warm_ms
           (r.b_cold_ms /. r.b_warm_ms)
           (num r.b_coalesced_ms) r.b_coalesced r.b_clients r.b_identical
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  let speedups = List.map (fun r -> r.b_cold_ms /. r.b_warm_ms) rows in
  Buffer.add_string buf
    (Printf.sprintf "  \"geomean_warm_speedup\": %.2f,\n" (Util.geomean speedups));
  Buffer.add_string buf
    (Printf.sprintf "  \"min_warm_speedup\": %.2f,\n"
       (List.fold_left min infinity speedups));
  Buffer.add_string buf
    (Printf.sprintf "  \"all_byte_identical\": %b\n"
       (List.for_all (fun r -> r.b_identical) rows));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let run ?(smoke = false) ?(quick = false) () =
  Util.header
    (if smoke then "Serve benchmark (smoke: one workload)"
     else "Serve benchmark: cold / warm-hit / coalesced client latency");
  let socket = Printf.sprintf "/tmp/hida-serve-bench-%d.sock" (Unix.getpid ()) in
  let workers = max 2 (min 4 (Domain.recommended_domain_count () - 1)) in
  let clients = if smoke then 2 else 4 in
  let specs =
    if smoke then [ kernel "atax" ]
    else if quick then
      [ kernel "2mm"; kernel "atax"; nn "lenet"; nn "mobilenet"; nn "resnet18" ]
    else
      [
        kernel "2mm"; kernel "3mm"; kernel "atax"; kernel "bicg"; kernel "gemm";
        nn "lenet"; nn "mobilenet"; nn "resnet18"; nn "vgg16";
      ]
  in
  let config =
    {
      Server.default_config with
      Server.cf_socket = socket;
      cf_workers = workers;
      cf_verbose = false;
    }
  in
  let server = Domain.spawn (fun () -> Server.run config) in
  (* Wait for the socket to answer. *)
  let rec await n =
    if n = 0 then failwith "serve bench: server did not come up"
    else
      match Client.ping ~socket with
      | Ok () -> ()
      | Error _ ->
          Unix.sleepf 0.05;
          await (n - 1)
  in
  await 100;
  let finish () =
    (match Client.stop ~socket with Ok () -> () | Error _ -> ());
    Domain.join server
  in
  Fun.protect ~finally:finish (fun () ->
      Printf.printf "%-12s %-7s %10s %10s %8s %12s %10s %6s\n" "workload"
        "path" "cold ms" "warm ms" "warm x" "coalesce ms" "coalesced" "ident";
      let rows =
        List.map
          (fun spec ->
            let r = bench_workload ~socket ~clients spec in
            Printf.printf "%-12s %-7s %10.2f %10.3f %8.1f %12s %6d/%-3d %6b\n"
              r.b_name r.b_path r.b_cold_ms r.b_warm_ms
              (r.b_cold_ms /. r.b_warm_ms)
              (if Float.is_nan r.b_coalesced_ms then "-"
               else Printf.sprintf "%.2f" r.b_coalesced_ms)
              r.b_coalesced r.b_clients r.b_identical;
            r)
          specs
      in
      let json = json_of_rows ~workers ~clients rows in
      let path = Util.write_bench_json ~smoke "BENCH_serve.json" json in
      let speedups = List.map (fun r -> r.b_cold_ms /. r.b_warm_ms) rows in
      Printf.printf
        "\nwarm-hit speedup: geomean %.0fx, min %.0fx; artifacts byte-identical \
         to local compiles: %b — written to %s\n"
        (Util.geomean speedups)
        (List.fold_left min infinity speedups)
        (List.for_all (fun r -> r.b_identical) rows)
        path)
