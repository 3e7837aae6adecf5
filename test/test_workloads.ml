(* Tests for the workload layer: the benchmark servers and clients, the
   measurement driver, the lockstep baseline, the revision variants, the
   record-replay clients and the SPEC kernels. *)

module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Nvx = Varan_nvx.Session
module Config = Varan_nvx.Config
module Variant = Varan_nvx.Variant
module Lockstep = Varan_nvx.Lockstep
module RR = Varan_nvx.Record_replay
module Workload = Varan_workloads.Workload
module Catalog = Varan_workloads.Catalog
module Clients = Varan_workloads.Clients
module Driver = Varan_workloads.Driver
module Revisions = Varan_workloads.Revisions
module Spec = Varan_workloads.Spec
module Kv_server = Varan_workloads.Kv_server
module Proto = Varan_workloads.Proto
module Cache_server = Varan_workloads.Cache_server

(* Small copies of the catalog loads so tests stay fast. *)
let shrink ?(conns = 4) ?(reqs = 12) w =
  {
    w with
    Workload.load =
      {
        w.Workload.load with
        Clients.connections = conns;
        requests_per_conn = reqs;
        warmup_requests = 0;
      };
  }

(* The servers count the catalog's connection totals; shrink those too. *)
let tiny_redis =
  let port = 7500 in
  {
    Workload.w_name = "tiny-redis";
    units = 1;
    unit_kind = Variant.Thread;
    make_body =
      (fun () ->
        Kv_server.make_body
          {
            Kv_server.port;
            units = 1;
            aof_path = None;
            work_cycles = 5_000;
            expected_conns = 4;
            crash_on_hmget = false;
          }
          ());
    profile = Variant.default_profile;
    mem_intensity_c1000 = 50;
    port_base = port;
    load =
      {
        Clients.connections = 4;
        requests_per_conn = 12;
        request_of =
          (fun ~conn ~seq ->
            if seq mod 2 = 0 then
              Kv_server.cmd (Printf.sprintf "SET k%d-%d v" conn seq)
            else Kv_server.cmd (Printf.sprintf "GET k%d-%d" conn (seq - 1)));
        think_cycles = 200;
        warmup_requests = 0;
      };
    setup_fs = (fun k -> Varan_kernel.Vfs.add_file k "/var/.keep" "");
    rules = None;
  }

(* --- servers end-to-end ------------------------------------------------ *)

let test_driver_native_serves_all () =
  let m = Driver.run tiny_redis Driver.Native in
  Alcotest.(check int) "all requests served" 48 m.Driver.requests;
  Alcotest.(check int) "no errors" 0 m.Driver.errors;
  Alcotest.(check bool) "throughput positive" true (m.Driver.throughput_rps > 0.)

let test_driver_nvx_serves_all () =
  let m =
    Driver.run tiny_redis
      (Driver.Nvx { followers = 2; config = Config.default })
  in
  Alcotest.(check int) "all requests served" 48 m.Driver.requests;
  Alcotest.(check int) "no errors" 0 m.Driver.errors

let test_driver_overhead_ordering () =
  (* NVX with more followers can't be faster; lockstep is slower than
     both on an I/O-heavy server. *)
  let native = Driver.run tiny_redis Driver.Native in
  let nvx1 =
    Driver.run tiny_redis (Driver.Nvx { followers = 1; config = Config.default })
  in
  let ls = Driver.run tiny_redis (Driver.Lockstep { versions = 2 }) in
  let ov_nvx = Driver.overhead ~baseline:native nvx1 in
  let ov_ls = Driver.overhead ~baseline:native ls in
  Alcotest.(check bool)
    (Printf.sprintf "nvx >= 1 (%.3f)" ov_nvx)
    true (ov_nvx >= 0.99);
  Alcotest.(check bool)
    (Printf.sprintf "lockstep (%.3f) > nvx (%.3f)" ov_ls ov_nvx)
    true
    (ov_ls > ov_nvx)

let test_all_catalog_servers_run_natively () =
  List.iter
    (fun w ->
      let w = shrink w in
      let m = Driver.run w Driver.Native in
      Alcotest.(check bool)
        (w.Workload.w_name ^ " served requests")
        true
        (m.Driver.requests > 0 && m.Driver.errors = 0))
    (Catalog.c10k_servers @ Catalog.prior_work_servers)

let test_all_catalog_servers_run_under_nvx () =
  List.iter
    (fun w ->
      let w = shrink w in
      let m =
        Driver.run w (Driver.Nvx { followers = 1; config = Config.default })
      in
      Alcotest.(check bool)
        (w.Workload.w_name ^ " served under NVX")
        true
        (m.Driver.requests > 0 && m.Driver.errors = 0))
    (Catalog.c10k_servers @ Catalog.prior_work_servers)

(* The traced native run starts units as {!Driver.run} [Native] does:
   threads share the workload's one process, process units fork their
   own. *)
let test_strace_unit_processes () =
  let procs w =
    let k, trace = Driver.strace w in
    Alcotest.(check bool)
      (w.Workload.w_name ^ " traced") true
      (Varan_kernel.Strace.calls trace > 0);
    let rec root p =
      match p.Varan_kernel.Types.parent with Some q -> root q | None -> p
    in
    Hashtbl.fold
      (fun _ p n ->
        if (root p).Varan_kernel.Types.pname = w.Workload.w_name then n + 1
        else n)
      k.Varan_kernel.Types.procs 0
  in
  Alcotest.(check int) "memcached's 4 threads: 1 process" 1
    (procs Catalog.memcached);
  Alcotest.(check int) "redis's 2 threads: 1 process" 1 (procs Catalog.redis);
  Alcotest.(check int) "nginx's 4 workers: 4 processes" 4
    (procs Catalog.nginx)

(* --- lockstep ----------------------------------------------------------- *)

let test_lockstep_correctness () =
  (* Two variants in lockstep produce exactly one kernel execution per
     rendezvous: the file written by the workload holds one copy. *)
  let eng = E.create () in
  let k = K.create eng in
  Varan_kernel.Vfs.add_file k "/var/.keep" "";
  let body _i api =
    let ok = Result.get_ok in
    let fd =
      ok (Api.openf api "/var/out" Varan_kernel.Flags.(o_wronly lor o_creat))
    in
    ignore (ok (Api.write_str api fd "once"));
    ignore (ok (Api.close api fd))
  in
  let mk name i = Variant.make name (Variant.single (body i)) in
  let t = Lockstep.launch k [ mk "a" 0; mk "b" 1 ] in
  E.run_until_quiescent eng;
  Alcotest.(check (option string))
    "single execution" (Some "once")
    (Varan_kernel.Vfs.read_file k "/var/out");
  let st = Lockstep.stats t in
  Alcotest.(check int) "no divergences" 0 st.Lockstep.divergences;
  Alcotest.(check bool) "rendezvous happened" true (st.Lockstep.rendezvous > 0);
  Alcotest.(check int) "same syscall counts" st.Lockstep.per_variant_syscalls.(0)
    st.Lockstep.per_variant_syscalls.(1)

let test_lockstep_divergence_fatal () =
  let eng = E.create () in
  let k = K.create eng in
  let body_a api = ignore (Api.getuid api) in
  let body_b api = ignore (Api.getgid api) in
  let t =
    Lockstep.launch k
      [
        Variant.make "a" (Variant.single body_a);
        Variant.make "b" (Variant.single body_b);
      ]
  in
  E.run_until_quiescent eng;
  let st = Lockstep.stats t in
  Alcotest.(check bool) "divergence detected" true (st.Lockstep.divergences > 0)

(* --- revisions ----------------------------------------------------------- *)

let run_revision_pair leader follower =
  let eng = E.create () in
  let k = K.create eng in
  Revisions.setup_fs k;
  let port = 7600 in
  let variants =
    [
      Revisions.lighttpd_variant ~rev:leader ~port ~expected_conns:1;
      Revisions.lighttpd_variant ~rev:follower ~port ~expected_conns:1;
    ]
  in
  let session = Nvx.launch k variants in
  let served = ref 0 in
  let cproc = K.new_proc k "c" in
  let tid =
    E.spawn eng (fun () ->
        let api = Api.direct k cproc in
        let ok = Result.get_ok in
        let fd = ok (Api.socket api) in
        let rec conn () =
          match Api.connect api fd port with
          | Ok () -> ()
          | Error _ ->
            E.sleep 5_000;
            conn ()
        in
        conn ();
        for _ = 1 to 3 do
          ok (Proto.send_msg api fd (Bytes.of_string "GET /www/index.html"));
          match Proto.recv_msg api fd with
          | Ok (Some _) -> incr served
          | _ -> ()
        done;
        ignore (Api.close api fd))
  in
  K.register_task k cproc tid;
  E.run_until_quiescent eng;
  (!served, Nvx.crashes session, Nvx.is_alive session 1)

let test_revision_pairs_coexist () =
  List.iter
    (fun (l, f, name) ->
      let served, crashes, follower_alive = run_revision_pair l f in
      Alcotest.(check int) (name ^ ": all served") 3 served;
      Alcotest.(check int) (name ^ ": no crash") 0 (List.length crashes);
      Alcotest.(check bool) (name ^ ": follower alive") true follower_alive)
    [
      (Revisions.R2435, Revisions.R2436, "2435/2436");
      (Revisions.R2523, Revisions.R2524, "2523/2524");
      (Revisions.R2577, Revisions.R2578, "2577/2578");
      (Revisions.R2578, Revisions.R2577, "reversed 2578/2577");
    ]

let test_revision_divergence_without_rules_fatal () =
  let strip_rules (v : Variant.t) = { v with Variant.rules = None } in
  let eng = E.create () in
  let k = K.create eng in
  Revisions.setup_fs k;
  let port = 7610 in
  let variants =
    [
      Revisions.lighttpd_variant ~rev:Revisions.R2435 ~port ~expected_conns:1;
      strip_rules
        (Revisions.lighttpd_variant ~rev:Revisions.R2436 ~port
           ~expected_conns:1);
    ]
  in
  let session = Nvx.launch k variants in
  (* No client needed: the startup prologue already diverges. *)
  E.run_until_quiescent eng;
  Alcotest.(check bool) "follower killed" false (Nvx.is_alive session 1)

(* --- record-replay -------------------------------------------------------- *)

let test_record_then_replay_roundtrip () =
  let eng = E.create () in
  let k = K.create eng in
  Varan_kernel.Vfs.add_file k "/var/.keep" "";
  let observed = Array.make 3 "" in
  let program slot api =
    let ok = Result.get_ok in
    let fd = ok (Api.openf api "/dev/urandom" Varan_kernel.Flags.o_rdonly) in
    let b = ok (Api.read api fd 12) in
    ignore (ok (Api.close api fd));
    observed.(slot) <- Bytes.to_string b
  in
  let session =
    Nvx.launch k [ Variant.make "orig" (Variant.single (program 0)) ]
  in
  let recorder = RR.record session k ~tuple:0 ~path:"/var/log.bin" in
  E.run_until_quiescent eng;
  ignore (E.spawn eng (fun () -> RR.stop recorder));
  E.run_until_quiescent eng;
  Alcotest.(check bool) "events recorded" true (RR.recorded_events recorder > 0);
  (* Replay on a different machine with different entropy. *)
  let eng2 = E.create () in
  let k2 = K.create ~seed:777 eng2 in
  (match Varan_kernel.Vfs.read_file k "/var/log.bin" with
  | Some log -> Varan_kernel.Vfs.add_file k2 "/var/log.bin" log
  | None -> Alcotest.fail "log missing");
  let rp =
    RR.replay k2 ~path:"/var/log.bin"
      [
        Variant.make "ra" (Variant.single (program 1));
        Variant.make "rb" (Variant.single (program 2));
      ]
  in
  E.run_until_quiescent eng2;
  Alcotest.(check int) "no replay crashes" 0 (List.length (RR.replay_crashes rp));
  Alcotest.(check string) "replay a faithful" observed.(0) observed.(1);
  Alcotest.(check string) "replay b faithful" observed.(0) observed.(2)

let test_replay_divergent_version_detected () =
  let eng = E.create () in
  let k = K.create eng in
  Varan_kernel.Vfs.add_file k "/var/.keep" "";
  let recorded api =
    let ok = Result.get_ok in
    let fd = ok (Api.openf api "/dev/null" 0) in
    ignore (ok (Api.close api fd))
  in
  let divergent api = ignore (Api.getuid api) in
  let session =
    Nvx.launch k [ Variant.make "orig" (Variant.single recorded) ]
  in
  let recorder = RR.record session k ~tuple:0 ~path:"/var/log2.bin" in
  E.run_until_quiescent eng;
  ignore (E.spawn eng (fun () -> RR.stop recorder));
  E.run_until_quiescent eng;
  let rp =
    RR.replay k ~path:"/var/log2.bin"
      [ Variant.make "bad" (Variant.single divergent) ]
  in
  E.run_until_quiescent eng;
  Alcotest.(check int) "divergence reported" 1
    (List.length (RR.replay_crashes rp))

(* The replay leader streams the log through the frame decoder that
   [read_log] uses, so a log torn, cut or corrupted anywhere replays
   exactly the events [read_log] decodes from the same bytes and stops
   with the same reason. A whole log replays every event and says
   nothing. *)
let test_replay_reports_torn_log () =
  let reads = 600 in
  let program api =
    let ok = Result.get_ok in
    let fd = ok (Api.openf api "/dev/urandom" Varan_kernel.Flags.o_rdonly) in
    for _ = 1 to reads do
      ignore (ok (Api.read api fd 1))
    done;
    ignore (ok (Api.close api fd))
  in
  let eng = E.create () in
  let k = K.create eng in
  Varan_kernel.Vfs.add_file k "/var/.keep" "";
  let session = Nvx.launch k [ Variant.make "orig" (Variant.single program) ] in
  let recorder = RR.record session k ~tuple:0 ~path:"/var/log.bin" in
  E.run_until_quiescent eng;
  ignore (E.spawn eng (fun () -> RR.stop recorder));
  E.run_until_quiescent eng;
  let log =
    match Varan_kernel.Vfs.read_file k "/var/log.bin" with
    | Some log -> log
    | None -> Alcotest.fail "log missing"
  in
  let recorded = RR.recorded_events recorder in
  Alcotest.(check bool) "the log spans three frames" true
    (recorded > 512 && recorded < 768);
  let replay log =
    let eng = E.create () in
    let k = K.create ~seed:777 eng in
    Varan_kernel.Vfs.add_file k "/var/log.bin" log;
    let rp =
      RR.replay k ~path:"/var/log.bin"
        [ Variant.make "r" (Variant.single program) ]
    in
    E.run_until_quiescent eng;
    let events, stopped = RR.read_log (Bytes.of_string log) in
    (rp, List.length events, stopped)
  in
  let frame_end pos = pos + 4 + Int32.to_int (String.get_int32_le log pos) in
  let second = frame_end 0 in
  let third = frame_end second in
  let last = String.sub log third (String.length log - third) in
  List.iter
    (fun (what, log, whole_frames) ->
      let rp, decoded, stopped = replay log in
      Alcotest.(check int)
        (what ^ ": replays what read_log decodes")
        decoded (RR.replayed_events rp);
      Alcotest.(check (option string))
        (what ^ ": stops where read_log stops")
        stopped (RR.replay_stopped rp);
      match (whole_frames, RR.replay_stopped rp) with
      | None, None ->
        Alcotest.(check int) (what ^ ": replays every event") recorded decoded
      | Some n, Some reason ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: the reason names the frame (%s)" what reason)
          true
          (String.starts_with ~prefix:"frame at " reason);
        Alcotest.(check int) (what ^ ": replays its whole frames") (256 * n)
          decoded
      | _, _ -> Alcotest.failf "%s: stopped where it should not" what)
    [
      ("whole log", log, None);
      ("torn log", String.sub log 0 (String.length log - 10), Some 2);
      ( "corrupt middle frame",
        String.mapi (fun i c -> if i = second + 4 then '\x80' else c) log,
        Some 1 );
      ( "short frame before the end",
        String.sub log 0 second ^ last ^ last,
        Some 1 );
      ("cut inside a length header", String.sub log 0 (third + 2), Some 2);
    ]

(* The recorder is one more tape: recording a lifecycle session's tuple
   0 from launch, with nothing retired, writes exactly the log that the
   session's own tuple-0 tape serializes to, pooled payloads and a short
   last frame included. Every result buffer here is non-empty: the
   session tapes an empty one as an empty buffer, where the ring event,
   and so the log, carries none. *)
let test_recorder_log_is_the_tape () =
  let program api =
    let ok = Result.get_ok in
    let fd = ok (Api.openf api "/dev/urandom" Varan_kernel.Flags.o_rdonly) in
    for i = 1 to 300 do
      ignore (ok (Api.read api fd (if i mod 7 = 0 then 3000 else 1)))
    done;
    ignore (ok (Api.close api fd));
    (* A read at EOF: an empty result, which the event and the tape
       must both carry as no buffer at all. *)
    let empty = ok (Api.openf api "/var/.keep" Varan_kernel.Flags.o_rdonly) in
    ignore (ok (Api.read api empty 16));
    ignore (ok (Api.close api empty))
  in
  let eng = E.create () in
  let k = K.create eng in
  Varan_kernel.Vfs.add_file k "/var/.keep" "";
  let config =
    {
      Config.default with
      Config.lifecycle = Some Varan_nvx.Lifecycle.default_policy;
    }
  in
  let session =
    Nvx.launch ~config k
      [
        Variant.make "leader" (Variant.single program);
        Variant.make "follower" (Variant.single program);
      ]
  in
  let recorder = RR.record session k ~tuple:0 ~path:"/var/log.bin" in
  E.run_until_quiescent eng;
  ignore (E.spawn eng (fun () -> RR.stop recorder));
  E.run_until_quiescent eng;
  let tape =
    match Nvx.tuple_tape session 0 with
    | Some tape -> tape
    | None -> Alcotest.fail "a lifecycle session keeps a tape"
  in
  let log =
    match Varan_kernel.Vfs.read_file k "/var/log.bin" with
    | Some log -> log
    | None -> Alcotest.fail "log missing"
  in
  let taped = Bytes.to_string (RR.serialize_tape tape) in
  Alcotest.(check int) "nothing retired" 0 (Varan_nvx.Tape.base tape);
  Alcotest.(check int) "the recorder saw every taped event"
    (Varan_nvx.Tape.length tape) (RR.recorded_events recorder);
  Alcotest.(check bool) "the log spans frames" true
    (Varan_nvx.Tape.length tape > 256);
  Alcotest.(check int) "log length" (String.length taped) (String.length log);
  Alcotest.(check bool) "the recorder's log is the tape's" true
    (String.equal taped log)

let test_scribe_slower_than_native () =
  let native = Driver.run tiny_redis Driver.Native in
  let scribe = Driver.run tiny_redis Driver.Scribe in
  Alcotest.(check bool) "scribe adds overhead" true
    (Driver.overhead ~baseline:native scribe > 1.05)

(* --- spec ------------------------------------------------------------------ *)

let test_spec_kernels_run () =
  let p = List.hd Spec.cpu2000 in
  let small = { p with Spec.compute_mcycles = 2 } in
  let ov0 = Driver.run_spec small ~followers:0 in
  let ov2 = Driver.run_spec small ~followers:2 in
  Alcotest.(check bool)
    (Printf.sprintf "interception cheap (%.3f)" ov0)
    true
    (ov0 < 1.1);
  Alcotest.(check bool)
    (Printf.sprintf "contention grows (%.3f >= %.3f)" ov2 ov0)
    true (ov2 >= ov0)

let test_spec_memory_intensity_ordering () =
  (* mcf (memory-bound) must degrade more than crafty (cache-resident). *)
  let find name l = List.find (fun p -> p.Spec.sp_name = name) l in
  let small p = { p with Spec.compute_mcycles = 2 } in
  let mcf = Driver.run_spec (small (find "181.mcf" Spec.cpu2000)) ~followers:4 in
  let crafty =
    Driver.run_spec (small (find "186.crafty" Spec.cpu2000)) ~followers:4
  in
  Alcotest.(check bool)
    (Printf.sprintf "mcf (%.2f) > crafty (%.2f)" mcf crafty)
    true (mcf > crafty)

(* ---- sharded serving under open-loop load --------------------------- *)

module Serving = Varan_workloads.Serving
module Router = Varan_nvx.Router
module Stats = Varan_util.Stats

(* Small enough to stay quick, large enough that every shard sees
   traffic and the percentile fields have a real tail to describe. *)
let tiny_serving ?(shards = 1) () =
  {
    Serving.default with
    Serving.sv_shards = shards;
    sv_requests = 600;
    sv_clients = 10_000;
    sv_workers = 24;
    sv_warmup = 50;
  }

let test_open_loop_accounting () =
  let spec = tiny_serving () in
  let o = Serving.run ~label:"test-open-loop" spec in
  let r = o.Serving.o_result in
  Alcotest.(check int) "no errors" 0 r.Clients.errors;
  Alcotest.(check int) "every post-warmup arrival completed"
    (spec.Serving.sv_requests - spec.Serving.sv_warmup)
    r.Clients.completed;
  Alcotest.(check int) "one latency sample per counted reply"
    r.Clients.completed (Clients.latency_count r);
  (match Clients.latency_summary r with
  | None -> Alcotest.fail "no latency summary despite completions"
  | Some s ->
    Alcotest.(check bool) "open-loop tail ordered: p50<=p99<=p999" true
      (s.Stats.median <= s.Stats.p99 && s.Stats.p99 <= s.Stats.p999));
  (* The whole schedule — arrivals, routing, service — is deterministic
     in the spec seed. *)
  let o2 = Serving.run ~label:"test-open-loop-again" spec in
  Alcotest.(check int) "deterministic completions" r.Clients.completed
    o2.Serving.o_result.Clients.completed;
  Alcotest.(check bool) "deterministic latencies" true
    (Clients.latencies_us r = Clients.latencies_us o2.Serving.o_result)

let test_sharded_pool_shares_spawn () =
  let spec = tiny_serving ~shards:2 () in
  let o = Serving.run ~label:"test-sharded" spec in
  Alcotest.(check int) "no errors" 0 o.Serving.o_result.Clients.errors;
  Alcotest.(check bool) "no shard degraded" true (o.Serving.o_degraded = []);
  (* shards * (followers + 1) spawns, all through the one shared zygote,
     with exactly one cold rewrite — the rest rebase the cached image. *)
  Alcotest.(check int) "one zygote served every spawn" 4
    o.Serving.o_zygote_forks;
  let rc = o.Serving.o_rewrite_cache in
  Alcotest.(check int) "one cold rewrite for the pool" 1
    rc.Varan_binary.Rewrite_cache.misses;
  Alcotest.(check int) "siblings rebase the cached image" 3
    rc.Varan_binary.Rewrite_cache.rebases;
  let rs = o.Serving.o_router in
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d took connections" i)
        true (n > 0))
    rs.Router.per_shard

(* The cache server's in-place parser against the split-based parser it
   replaced, kept here as the reference: every request must give the
   same reply (or raise the same exception) and leave the same store. *)
let reference_respond store req =
  let text = Bytes.to_string req in
  let reply =
    match String.split_on_char ' ' text with
    | "set" :: key :: len :: rest ->
      let payload = String.concat " " rest in
      let len = try int_of_string len with _ -> String.length payload in
      let value =
        if String.length payload >= len then String.sub payload 0 len
        else payload
      in
      Hashtbl.replace store key value;
      "STORED"
    | [ "get"; key ] -> (
      match Hashtbl.find_opt store key with
      | Some v -> "VALUE " ^ v
      | None -> "END")
    | _ -> "ERROR"
  in
  Bytes.of_string reply

let test_cache_parser_matches_reference () =
  (* The server replies with a whole frame; its payload is the reply. *)
  let respond store req =
    let f = Cache_server.respond store req in
    let n = Bytes.length f - Proto.header_len in
    if Int32.to_int (Bytes.get_int32_le f 0) <> n then
      Alcotest.failf "request %S: frame header says %ld bytes, payload has %d"
        (Bytes.to_string req) (Bytes.get_int32_le f 0) n;
    Bytes.sub f Proto.header_len n
  in
  let outcome respond store req =
    match respond store req with
    | reply -> Ok (Bytes.to_string reply)
    | exception e -> Error (Printexc.to_string e)
  in
  let bindings store =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) store [])
  in
  let fixed =
    [
      ""; " "; "set"; "get"; "set k"; "set k 3"; "set k 3 "; "set k 3 abc";
      "set k 3 abcdef"; "set k 9 ab"; "set k x hello"; "set k -1 abc";
      "set k +2 abc"; "set k 0x2 abc"; "set k  3 abc"; "set  k 3 abc";
      "set k 3  a b"; "set k 5 a b c d"; "get k"; "get k extra"; "get  k";
      "get "; "get k "; "GET k"; "sett k 1 a"; "ge k"; "set k 3 a\nb";
    ]
  in
  let alphabet = "setg k1-0x " in
  let random rng =
    let n = Random.State.int rng 14 in
    let body =
      String.init n (fun _ ->
          alphabet.[Random.State.int rng (String.length alphabet)])
    in
    match Random.State.int rng 3 with
    | 0 -> "set " ^ body
    | 1 -> "get " ^ body
    | _ -> body
  in
  let rng = Random.State.make [| 0xCAC4E |] in
  let reqs = fixed @ List.init 5_000 (fun _ -> random rng) in
  let ours = Hashtbl.create 16 and theirs = Hashtbl.create 16 in
  List.iter
    (fun req ->
      let b = Bytes.of_string req in
      let want = outcome reference_respond theirs b in
      let got = outcome respond ours b in
      if got <> want then Alcotest.failf "request %S: replies differ" req;
      if bindings ours <> bindings theirs then
        Alcotest.failf "request %S: stores differ" req)
    reqs

let () =
  Alcotest.run "varan_workloads"
    [
      ( "cache-server",
        [
          Alcotest.test_case "in-place parser matches split reference" `Quick
            test_cache_parser_matches_reference;
        ] );
      ( "serving",
        [
          Alcotest.test_case "open-loop latency accounting" `Quick
            test_open_loop_accounting;
          Alcotest.test_case "sharded pool shares the spawn hub" `Quick
            test_sharded_pool_shares_spawn;
        ] );
      ( "driver",
        [
          Alcotest.test_case "native serves all" `Quick
            test_driver_native_serves_all;
          Alcotest.test_case "nvx serves all" `Quick test_driver_nvx_serves_all;
          Alcotest.test_case "overhead ordering" `Quick
            test_driver_overhead_ordering;
          Alcotest.test_case "strace keeps the unit processes" `Quick
            test_strace_unit_processes;
          Alcotest.test_case "catalog servers native" `Slow
            test_all_catalog_servers_run_natively;
          Alcotest.test_case "catalog servers nvx" `Slow
            test_all_catalog_servers_run_under_nvx;
        ] );
      ( "lockstep",
        [
          Alcotest.test_case "correctness" `Quick test_lockstep_correctness;
          Alcotest.test_case "divergence fatal" `Quick
            test_lockstep_divergence_fatal;
        ] );
      ( "revisions",
        [
          Alcotest.test_case "pairs coexist" `Quick test_revision_pairs_coexist;
          Alcotest.test_case "no rules fatal" `Quick
            test_revision_divergence_without_rules_fatal;
        ] );
      ( "record-replay",
        [
          Alcotest.test_case "record then replay" `Quick
            test_record_then_replay_roundtrip;
          Alcotest.test_case "divergent version detected" `Quick
            test_replay_divergent_version_detected;
          Alcotest.test_case "torn log reports where it stopped" `Quick
            test_replay_reports_torn_log;
          Alcotest.test_case "recorder log = serialized tape" `Quick
            test_recorder_log_is_the_tape;
          Alcotest.test_case "scribe slower" `Quick test_scribe_slower_than_native;
        ] );
      ( "spec",
        [
          Alcotest.test_case "kernels run" `Quick test_spec_kernels_run;
          Alcotest.test_case "memory intensity ordering" `Quick
            test_spec_memory_intensity_ordering;
        ] );
    ]
