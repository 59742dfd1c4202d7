(* The compile server.

   Topology: the calling domain runs the accept loop; accepted
   connections go through a bounded queue to a pool of worker domains,
   each of which speaks the framed protocol for the life of its
   connection (pipelining works: a connection may carry many requests).

   A compile request is served in three tiers:
     1. artifact-store hit   — content-addressed, byte-identical replay;
     2. in-flight coalesce   — an identical compile is running right
                               now; attach and share its artifact;
     3. pipeline run         — leader compiles, stores, fans out.

   Every tier records into the server's [hida.obs] metrics registry
   (counters + a latency histogram per tier), which the [status] RPC
   serializes.  Compiles themselves still make their own per-request
   driver scope, so pass-level metrics stay per-request and bounded. *)

open Hida_estimator

type config = {
  cf_socket : string;
  cf_workers : int;
  cf_queue_limit : int;
  cf_cache_bytes : int;
  cf_verbose : bool;
}

let default_config =
  {
    cf_socket = "/tmp/hida-serve.sock";
    cf_workers = max 1 (min 4 (Domain.recommended_domain_count () - 1));
    cf_queue_limit = 64;
    cf_cache_bytes = Artifact.default_budget_bytes;
    cf_verbose = false;
  }

type state = {
  cfg : config;
  store : Artifact.store;
  flights : (Artifact.t, string) result Scheduler.Single_flight.t;
  metrics : Hida_obs.Metrics.t;
  started_at : float;
  stop : bool Atomic.t;
  mutable pool : Unix.file_descr Scheduler.pool option;
}

let log st fmt =
  Printf.ksprintf
    (fun msg -> if st.cfg.cf_verbose then prerr_endline ("hida-serve: " ^ msg))
    fmt

(* ---- Status snapshot ---- *)

let histogram_json st name =
  match Hida_obs.Metrics.histogram st.metrics name with
  | None ->
      Json.Obj
        [ ("count", Json.Int 0); ("p50_ns", Json.Int 0); ("p90_ns", Json.Int 0);
          ("p99_ns", Json.Int 0) ]
  | Some h ->
      Json.Obj
        [
          ("count", Json.Int (Hida_obs.Histogram.count h));
          ("mean_ns", Json.Float (Hida_obs.Histogram.mean h));
          ("p50_ns", Json.Int (Hida_obs.Histogram.percentile h 50.));
          ("p90_ns", Json.Int (Hida_obs.Histogram.percentile h 90.));
          ("p99_ns", Json.Int (Hida_obs.Histogram.percentile h 99.));
          ("max_ns", Json.Int (Hida_obs.Histogram.max_value h));
        ]

let status_json st =
  let s = Artifact.stats st.store in
  let c name = Hida_obs.Metrics.counter st.metrics name in
  let lookups = s.Artifact.s_hits + s.Artifact.s_misses in
  let queue =
    match st.pool with
    | None -> []
    | Some p ->
        [
          ("depth", Json.Int (Scheduler.queue_depth p));
          ("max_depth", Json.Int (Scheduler.max_queue_depth p));
          ("limit", Json.Int st.cfg.cf_queue_limit);
          ("rejected", Json.Int (Scheduler.rejected p));
        ]
  in
  Json.Obj
    [
      ("uptime_seconds", Json.Float (Unix.gettimeofday () -. st.started_at));
      ("workers", Json.Int st.cfg.cf_workers);
      ("requests", Json.Int (c "serve.requests"));
      ("compile_requests", Json.Int (c "serve.compile_requests"));
      ("pipeline_runs", Json.Int (Scheduler.Single_flight.leaders_total st.flights));
      ("coalesced", Json.Int (Scheduler.Single_flight.coalesced_total st.flights));
      ("errors", Json.Int (c "serve.errors"));
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int s.Artifact.s_hits);
            ("misses", Json.Int s.Artifact.s_misses);
            ( "hit_rate",
              if lookups = 0 then Json.Null
              else
                Json.Float (float_of_int s.Artifact.s_hits /. float_of_int lookups)
            );
            ("evictions", Json.Int s.Artifact.s_evictions);
            ("entries", Json.Int s.Artifact.s_entries);
            ("bytes", Json.Int s.Artifact.s_bytes);
            ("budget_bytes", Json.Int s.Artifact.s_budget);
          ] );
      ( "store",
        (* The server's one blob store, holding the artifact namespace
           and the [qor.*] namespaces of the QoR store: whole-store
           totals plus one object per namespace. *)
        let bs = Blob_store.stats st.store in
        Json.Obj
          [
            ("entries", Json.Int bs.Blob_store.s_entries);
            ("bytes", Json.Int bs.Blob_store.s_bytes);
            ("budget_bytes", Json.Int bs.Blob_store.s_budget);
            ("evictions", Json.Int bs.Blob_store.s_evictions);
            ( "namespaces",
              Json.Obj
                (List.map
                   (fun (n : Blob_store.ns_stats) ->
                     ( n.Blob_store.ns_name,
                       Json.Obj
                         [
                           ("entries", Json.Int n.ns_entries);
                           ("bytes", Json.Int n.ns_bytes);
                           ("hits", Json.Int n.ns_hits);
                           ("misses", Json.Int n.ns_misses);
                         ] ))
                   bs.Blob_store.s_namespaces) );
          ] );
      ("queue", Json.Obj queue);
      ( "latency",
        Json.Obj
          [
            ("cold", histogram_json st "serve.latency.cold_ns");
            ("hit", histogram_json st "serve.latency.hit_ns");
            ("coalesced", histogram_json st "serve.latency.coalesced_ns");
          ] );
      ("metrics", Json.parse_exn (Hida_obs.Metrics.to_json st.metrics));
    ]

(* ---- Request handling ---- *)

let handle_compile st src opts =
  let t0 = Hida_obs.Clock.now_ns () in
  let key = Artifact.key src opts in
  let finish tier (art : Artifact.t) =
    let dt = Hida_obs.Clock.now_ns () - t0 in
    let hist, cached, coalesced =
      match tier with
      | `Hit -> ("serve.latency.hit_ns", true, false)
      | `Coalesced -> ("serve.latency.coalesced_ns", false, true)
      | `Cold -> ("serve.latency.cold_ns", false, false)
    in
    Hida_obs.Metrics.observe st.metrics hist dt;
    Protocol.Ok_compile
      {
        Protocol.cr_meta = art.Artifact.a_meta;
        cr_ir = art.Artifact.a_ir;
        cr_cached = cached;
        cr_coalesced = coalesced;
        cr_server_ns = dt;
      }
  in
  match Artifact.find st.store key with
  | Some art ->
      log st "hit %s (%s)" art.Artifact.a_meta.Protocol.am_workload key;
      finish `Hit art
  | None -> (
      (* Leader compiles; identical concurrent requests attach here. *)
      let outcome =
        Scheduler.Single_flight.run st.flights key (fun () ->
            Artifact.compile ~store:st.store src opts)
      in
      match outcome.Scheduler.Single_flight.value with
      | Error msg ->
          Hida_obs.Metrics.incr st.metrics "serve.errors";
          Protocol.Err msg
      | Ok art ->
          if not outcome.Scheduler.Single_flight.coalesced then begin
            Artifact.add st.store ~key art;
            log st "compiled %s in %.3fs (%s)"
              art.Artifact.a_meta.Protocol.am_workload
              art.Artifact.a_meta.Protocol.am_compile_seconds key
          end;
          finish
            (if outcome.Scheduler.Single_flight.coalesced then `Coalesced
             else `Cold)
            art)

let handle_request st = function
  | Protocol.Compile (src, opts) ->
      Hida_obs.Metrics.incr st.metrics "serve.compile_requests";
      handle_compile st src opts
  | Protocol.Status -> Protocol.Ok_status (status_json st)
  | Protocol.Ping -> Protocol.Ok_pong
  | Protocol.Shutdown ->
      log st "shutdown requested";
      Atomic.set st.stop true;
      Protocol.Ok_shutdown

let handle_connection st fd =
  let rec serve_requests () =
    match Protocol.read_request fd with
    | Error Protocol.Closed -> ()
    | Error e ->
        (* Tell the peer what broke, then drop the connection: after a
           framing error the stream position is unknowable. *)
        (try
           Protocol.write_frame fd
             (Json.to_string
                (Protocol.response_to_json
                   (Protocol.Err (Protocol.frame_error_to_string e))))
         with Unix.Unix_error _ | Sys_error _ -> ())
    | Ok req ->
        Hida_obs.Metrics.incr st.metrics "serve.requests";
        let resp =
          try handle_request st req
          with e ->
            Hida_obs.Metrics.incr st.metrics "serve.errors";
            Protocol.Err ("internal error: " ^ Printexc.to_string e)
        in
        (match st.pool with
        | Some p ->
            Hida_obs.Metrics.set_gauge st.metrics "serve.queue_depth"
              (float_of_int (Scheduler.queue_depth p))
        | None -> ());
        (try
           Protocol.write_frame fd
             (Json.to_string (Protocol.response_to_json resp))
         with Unix.Unix_error _ | Sys_error _ -> ());
        (* A connection may pipeline many requests; stop after answering
           a shutdown. *)
        if not (Atomic.get st.stop) then serve_requests ()
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    serve_requests

(* ---- Socket lifecycle ---- *)

(* A stale socket file (left by a killed server) must not block
   restarts, but an actively served one must: probe by connecting. *)
let claim_socket path =
  (match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | _ -> (
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () ->
          Unix.close probe;
          failwith (path ^ ": a server is already listening here")
      | exception Unix.Unix_error _ ->
          Unix.close probe;
          (try Unix.unlink path with Unix.Unix_error _ -> ())));
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  Unix.listen fd 64;
  fd

let busy_reply fd =
  (try
     Protocol.write_frame fd
       (Json.to_string
          (Protocol.response_to_json
             (Protocol.Err "server busy: request queue is full")))
   with Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let run cfg =
  (* One store for the server's lifetime, shared by all workers: the
     artifact namespace, plus the QoR store every compile is handed, so
     subtree results (DSE plans, fusion replays, node estimates) persist
     across requests and a request that edits one layer of a previously
     compiled model re-optimizes only that layer.  Both trade bytes
     under the one budget. *)
  let store = Artifact.create_store ~budget_bytes:cfg.cf_cache_bytes () in
  let st =
    {
      cfg;
      store;
      flights = Scheduler.Single_flight.create ();
      metrics = Hida_obs.Metrics.create ();
      started_at = Unix.gettimeofday ();
      stop = Atomic.make false;
      pool = None;
    }
  in
  let listen_fd = claim_socket cfg.cf_socket in
  let pool =
    Scheduler.create_pool ~workers:cfg.cf_workers
      ~queue_limit:cfg.cf_queue_limit (handle_connection st)
  in
  st.pool <- Some pool;
  (* SIGINT/SIGTERM mean the same thing as a shutdown RPC; SIGPIPE must
     not kill us when a client disconnects mid-write. *)
  let request_stop _ = Atomic.set st.stop true in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle request_stop) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle request_stop) in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  log st "listening on %s (%d workers, queue %d, cache %d MiB)" cfg.cf_socket
    cfg.cf_workers cfg.cf_queue_limit
    (cfg.cf_cache_bytes / (1024 * 1024));
  (* Accept loop: poll with a short timeout so a stop flag set by an RPC
     worker or a signal is honoured promptly. *)
  let rec accept_loop () =
    if not (Atomic.get st.stop) then begin
      (match Unix.select [ listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept listen_fd with
          | fd, _ -> if not (Scheduler.submit pool fd) then busy_reply fd
          | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _)
            ->
              ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Scheduler.shutdown pool;
      (try Unix.unlink cfg.cf_socket with Unix.Unix_error _ -> ());
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigpipe old_pipe;
      log st "stopped")
    accept_loop
