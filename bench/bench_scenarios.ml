(* Section 5: application scenarios.
     5.1 transparent failover   (Redis revisions, Lighttpd crash)
     5.2 multi-revision execution (Lighttpd revision pairs + BPF rules)
     5.3 live sanitization       (ASan/MSan followers, log distance)
     5.4 record-replay           (VARAN recorder vs the Scribe model) *)

module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Flags = Varan_kernel.Flags
module Errno = Varan_syscall.Errno
module Cost = Varan_cycles.Cost
module Nvx = Varan_nvx.Session
module Config = Varan_nvx.Config
module Variant = Varan_nvx.Variant
module RR = Varan_nvx.Record_replay
module Revisions = Varan_workloads.Revisions
module Kv_server = Varan_workloads.Kv_server
module Proto = Varan_workloads.Proto
module Driver = Varan_workloads.Driver
module Workload = Varan_workloads.Workload
module Clients = Varan_workloads.Clients
module Stats = Varan_util.Stats

let ok = function
  | Ok v -> v
  | Error e -> failwith ("scenario client: " ^ Errno.name e)

let rec connect_retry api fd port =
  match Api.connect api fd port with
  | Ok () -> ()
  | Error Errno.ECONNREFUSED ->
    E.sleep 5_000;
    connect_retry api fd port
  | Error e -> failwith ("connect: " ^ Errno.name e)

(* ------------------------------------------------------------------ *)
(* 5.1 Transparent failover                                            *)
(* ------------------------------------------------------------------ *)

(* A redis client that issues labelled commands and records the latency
   of each; returns (label, latency_us) in order. *)
let redis_session ~buggy_position ~revisions ~link_latency =
  let eng = E.create () in
  let k = K.create ~link_latency eng in
  Revisions.setup_fs k;
  let port = 6400 in
  let commands =
    [ ("HSET", "HSET h f1 v1"); ("HSET", "HSET h f2 v2") ]
    @ List.init 6 (fun i -> ("GET", Printf.sprintf "GET warm%d" i))
    @ [ ("HMGET", "HMGET h f1 f2") ]
    @ List.init 4 (fun i -> ("GET", Printf.sprintf "GET after%d" i))
  in
  let expected_conns = 1 in
  let variants =
    List.init revisions (fun i ->
        Revisions.redis_revision
          ~buggy:(Some i = buggy_position)
          ~name:(Printf.sprintf "redis-rev%d" i)
          ~port ~expected_conns)
  in
  let session = Nvx.launch k variants in
  let cost = K.cost k in
  let results = ref [] in
  let cproc = K.new_proc k "redis-cli" in
  let tid =
    E.spawn eng ~name:"redis-cli" (fun () ->
        let api = Api.direct k cproc in
        let fd = ok (Api.socket api) in
        connect_retry api fd port;
        List.iter
          (fun (label, cmd) ->
            let t0 = E.now_cycles () in
            ok (Proto.send_msg api fd (Kv_server.cmd cmd));
            (match Proto.recv_msg api fd with
            | Ok (Some _) ->
              let t1 = E.now_cycles () in
              results :=
                (label, Cost.cycles_to_us cost (Int64.sub t1 t0)) :: !results
            | Ok None | Error _ -> ());
            E.consume 2_000)
          commands;
        ignore (Api.close api fd))
  in
  K.register_task k cproc tid;
  E.run_until_quiescent eng;
  (session, List.rev !results)

let hmget_latency results =
  match List.assoc_opt "HMGET" results with Some l -> l | None -> nan

let get_latencies results =
  List.filter_map (fun (l, v) -> if l = "GET" then Some v else None) results

let failover () =
  print_endline "=== Section 5.1: transparent failover ===\n";
  (* Eight consecutive Redis revisions; the newest (internal id 0, the
     leader) introduced the HMGET crash. *)
  let rack = 28_000 (* 8 us each way: same-rack TCP *) in
  let _, baseline =
    redis_session ~buggy_position:None ~revisions:8 ~link_latency:rack
  in
  let s_leader, with_leader_crash =
    redis_session ~buggy_position:(Some 0) ~revisions:8 ~link_latency:rack
  in
  let s_follower, with_follower_crash =
    redis_session ~buggy_position:(Some 3) ~revisions:8 ~link_latency:rack
  in
  let paper_before, paper_after = Paper.failover_redis_latency_us in
  Printf.printf
    "Redis, 8 revisions, HMGET triggers the bug  [paper: %.2fus -> %.2fus]\n"
    paper_before paper_after;
  Printf.printf "  HMGET latency, no buggy revision   : %8.2f us\n"
    (hmget_latency baseline);
  Printf.printf "  HMGET latency, buggy LEADER        : %8.2f us  (crash %b, new leader idx %d)\n"
    (hmget_latency with_leader_crash)
    (Nvx.crash_count s_leader > 0)
    (Nvx.leader_index s_leader);
  Printf.printf "  HMGET latency, buggy FOLLOWER      : %8.2f us  (crash %b, leader idx %d)\n"
    (hmget_latency with_follower_crash)
    (Nvx.crash_count s_follower > 0)
    (Nvx.leader_index s_follower);
  let mean_get r = Stats.mean (get_latencies r) in
  Printf.printf "  GET latency after failover         : %8.2f us (vs %.2f us baseline)\n"
    (mean_get with_leader_crash) (mean_get baseline);
  (* Lighttpd revisions 2437/2438: with the client across a real network
     (5 ms round trips dominate), the failover is invisible, matching the
     paper's constant 5 ms observation. *)
  let http_latency ~buggy_leader =
    let eng = E.create () in
    let k = K.create ~link_latency:8_750_000 (* 2.5 ms each way *) eng in
    Revisions.setup_fs k;
    let port = 8200 in
    let crash_marker = "/crash" in
    (* A minimal web server whose buggy revision segfaults while
       processing the marker request (before replying), like lighttpd
       revision 2438. *)
    let mk_variant ~buggy name =
      let body ~unit_idx api =
        if unit_idx = 0 then begin
          let lfd = ok (Api.socket api) in
          ok (Api.bind api lfd port);
          ok (Api.listen api lfd);
          let c = ok (Api.accept api lfd) in
          let rec serve () =
            match Proto.recv_msg api c with
            | Ok (Some req) ->
              Api.compute api 29_000;
              if buggy && Bytes.to_string req = "GET " ^ crash_marker then
                failwith "segfault (lighttpd 2438 bug)";
              ok (Proto.send_msg api c (Bytes.make 4096 'p'));
              serve ()
            | Ok None | Error _ -> ()
          in
          serve ();
          ignore (Api.close api c);
          ignore (Api.close api lfd)
        end
      in
      Variant.make name
        { Variant.units = 1; unit_kind = Variant.Thread; body }
    in
    let variants =
      if buggy_leader then
        [ mk_variant ~buggy:true "lighttpd-2438"; mk_variant ~buggy:false "lighttpd-2437" ]
      else
        [ mk_variant ~buggy:false "lighttpd-2437"; mk_variant ~buggy:true "lighttpd-2438" ]
    in
    ignore (Nvx.launch k variants);
    let cost = K.cost k in
    let lat = ref [] in
    let cproc = K.new_proc k "http-cli" in
    let tid =
      E.spawn eng ~name:"http-cli" (fun () ->
          let api = Api.direct k cproc in
          let fd = ok (Api.socket api) in
          connect_retry api fd port;
          List.iter
            (fun path ->
              let t0 = E.now_cycles () in
              ok (Proto.send_msg api fd (Bytes.of_string ("GET " ^ path)));
              (match Proto.recv_msg api fd with
              | Ok (Some _) ->
                lat :=
                  Cost.cycles_to_us cost (Int64.sub (E.now_cycles ()) t0)
                  :: !lat
              | _ -> ()))
            [ "/a"; "/b"; crash_marker; "/c" ];
          ignore (Api.close api fd))
    in
    K.register_task k cproc tid;
    E.run_until_quiescent eng;
    List.rev !lat
  in
  let leader_case = http_latency ~buggy_leader:true in
  let follower_case = http_latency ~buggy_leader:false in
  let pp_ms l = String.concat " " (List.map (fun v -> Printf.sprintf "%.2fms" (v /. 1000.)) l) in
  Printf.printf
    "\nLighttpd rev 2437/2438 over a 5 ms RTT link [paper: constant ~5 ms]\n";
  Printf.printf "  request latencies, buggy leader    : %s\n" (pp_ms leader_case);
  Printf.printf "  request latencies, buggy follower  : %s\n" (pp_ms follower_case)

(* ------------------------------------------------------------------ *)
(* 5.2 Multi-revision execution                                        *)
(* ------------------------------------------------------------------ *)

let run_pair ~leader_rev ~follower_rev ~port =
  let eng = E.create () in
  let k = K.create ~link_latency:3_500 eng in
  Revisions.setup_fs k;
  let conns = 2 in
  let requests = 20 in
  let variants =
    [
      Revisions.lighttpd_variant ~rev:leader_rev ~port ~expected_conns:conns;
      Revisions.lighttpd_variant ~rev:follower_rev ~port ~expected_conns:conns;
    ]
  in
  let session = Nvx.launch k variants in
  let completed = ref 0 in
  for c = 0 to conns - 1 do
    let cproc = K.new_proc k (Printf.sprintf "wrk%d" c) in
    let tid =
      E.spawn eng ~name:(Printf.sprintf "wrk%d" c) (fun () ->
          let api = Api.direct k cproc in
          let fd = ok (Api.socket api) in
          connect_retry api fd port;
          for _ = 1 to requests do
            ok (Proto.send_msg api fd (Bytes.of_string "GET /www/index.html"));
            match Proto.recv_msg api fd with
            | Ok (Some _) -> incr completed
            | _ -> ()
          done;
          ignore (Api.close api fd))
    in
    K.register_task k cproc tid
  done;
  E.run_until_quiescent eng;
  let st = Nvx.stats session in
  let f = st.Nvx.variants.(1) in
  ( !completed,
    Nvx.crashes session,
    f.Nvx.vs_divergences_executed,
    f.Nvx.vs_divergences_skipped,
    Nvx.is_alive session 1 )

let multirev () =
  print_endline "=== Section 5.2: multi-revision execution ===\n";
  let report name (completed, crashes, dx, ds, alive) expected_total =
    Printf.printf
      "%-28s: %d/%d replies, follower %s, %d inserted, %d skipped, %d crashes\n"
      name completed expected_total
      (if alive then "alive" else "dead")
      dx ds (List.length crashes)
  in
  report "2435 -> 2436 (getuid/getgid)"
    (run_pair ~leader_rev:Revisions.R2435 ~follower_rev:Revisions.R2436
       ~port:8300)
    40;
  report "2523 -> 2524 (urandom read)"
    (run_pair ~leader_rev:Revisions.R2523 ~follower_rev:Revisions.R2524
       ~port:8310)
    40;
  report "2577 -> 2578 (fcntl)"
    (run_pair ~leader_rev:Revisions.R2577 ~follower_rev:Revisions.R2578
       ~port:8320)
    40;
  report "2578 -> 2577 (fcntl removal)"
    (run_pair ~leader_rev:Revisions.R2578 ~follower_rev:Revisions.R2577
       ~port:8330)
    40;
  (* Control: without rewrite rules the divergence kills the follower,
     as in every prior lockstep system. *)
  let control =
    let eng = E.create () in
    let k = K.create ~link_latency:3_500 eng in
    Revisions.setup_fs k;
    let strip v = { v with Variant.rules = None } in
    let variants =
      [
        Revisions.lighttpd_variant ~rev:Revisions.R2435 ~port:8340
          ~expected_conns:1;
        strip
          (Revisions.lighttpd_variant ~rev:Revisions.R2436 ~port:8340
             ~expected_conns:1);
      ]
    in
    let session = Nvx.launch k variants in
    let cproc = K.new_proc k "wrk" in
    let tid =
      E.spawn eng ~name:"wrk" (fun () ->
          let api = Api.direct k cproc in
          let fd = ok (Api.socket api) in
          connect_retry api fd 8340;
          for _ = 1 to 5 do
            ok (Proto.send_msg api fd (Bytes.of_string "GET /www/index.html"));
            ignore (Proto.recv_msg api fd)
          done;
          ignore (Api.close api fd))
    in
    K.register_task k cproc tid;
    E.run_until_quiescent eng;
    (Nvx.is_alive session 1, List.length (Nvx.crashes session))
  in
  let alive, crashes = control in
  Printf.printf
    "control: 2436 follower without rules: follower %s, %d crash (lockstep \
     systems cannot run this pair at all)\n"
    (if alive then "alive" else "killed")
    crashes;
  (* The §2.3 coalescing pattern: a buffered revision (leader) writes its
     log in one syscall where the unbuffered follower uses two. *)
  let eng = E.create () in
  let k = K.create eng in
  Revisions.setup_fs k;
  let leader_body api =
    let fd =
      ok (Api.openf api "/var/coalesce.log" Flags.(o_wronly lor o_creat))
    in
    ignore (ok (Api.write api fd (Bytes.make 1024 'l')));
    ignore (ok (Api.close api fd))
  in
  let follower_body api =
    let fd =
      ok (Api.openf api "/var/coalesce.log" Flags.(o_wronly lor o_creat))
    in
    ignore (ok (Api.write api fd (Bytes.make 512 'l')));
    ignore (ok (Api.write api fd (Bytes.make 512 'l')));
    ignore (ok (Api.close api fd))
  in
  let session =
    Nvx.launch k
      [
        Variant.make "buffered-rev" (Variant.single leader_body);
        Variant.make "unbuffered-rev" (Variant.single follower_body);
      ]
  in
  E.run_until_quiescent eng;
  let st = Nvx.stats session in
  Printf.printf
    "coalescing: buffered leader (1x1024B write) + unbuffered follower \
     (2x512B): %d coalesced slices, %d crashes\n"
    st.Nvx.variants.(1).Nvx.vs_divergences_coalesced
    (List.length (Nvx.crashes session))

(* ------------------------------------------------------------------ *)
(* 5.3 Live sanitization                                               *)
(* ------------------------------------------------------------------ *)

(* Run the Redis benchmark with configurable follower instrumentation
   multipliers; returns client throughput and sampled leader-follower
   distances. The GET-heavy redis-benchmark default mix spends most of
   each command in the kernel (network I/O) rather than in user-space
   compute, which is what lets a 2x-instrumented follower — which skips
   all the I/O — keep up with the leader (§5.3). *)
let sanitize_workload =
  let port = 6600 in
  {
    Workload.w_name = "Redis (GET mix)";
    units = 1;
    unit_kind = Variant.Thread;
    make_body =
      (fun () ->
        Kv_server.make_body
          {
            Kv_server.port;
            units = 1;
            aof_path = None;
            work_cycles = 2_000;
            expected_conns = 10;
            crash_on_hmget = false;
          }
          ());
    profile =
      { Variant.code_bytes = 35_000; syscall_share = 0.008; code_seed = 15 };
    mem_intensity_c1000 = 80;
    port_base = port;
    load =
      {
        Clients.connections = 10;
        requests_per_conn = 120;
        request_of =
          (fun ~conn ~seq ->
            if seq < 20 then
              Kv_server.cmd (Printf.sprintf "SET g%d-%d v" conn (seq mod 20))
            else Kv_server.cmd (Printf.sprintf "GET g%d-%d" conn (seq mod 20)));
        think_cycles = 500;
        warmup_requests = 20;
      };
    setup_fs = (fun k -> Varan_kernel.Vfs.add_file k "/var/.keep" "");
    rules = None;
  }

let sanitize_run ~multipliers =
  let w = sanitize_workload in
  let eng = E.create () in
  let k = K.create ~link_latency:3_500 eng in
  w.Workload.setup_fs k;
  let variants =
    Workload.fresh_variant w "redis-leader"
    :: List.mapi
         (fun i m ->
           let v = Workload.fresh_variant w (Printf.sprintf "redis-san%d" i) in
           { v with Variant.compute_multiplier_c1000 = m })
         multipliers
  in
  let session = Nvx.launch k variants in
  (* Sample the follower lag periodically for the median log distance. *)
  let samples = ref [] in
  ignore
    (E.spawn eng ~name:"lag-sampler" (fun () ->
         for _ = 1 to 400 do
           E.sleep 40_000;
           if List.length variants > 1 then
             samples := float_of_int (Nvx.sample_lag session 1) :: !samples
         done));
  let result =
    Clients.launch k ~cost:(K.cost k) ~port_of:(Workload.port_of_conn w)
      w.Workload.load
  in
  E.run_until_quiescent eng;
  let median_lag =
    match !samples with [] -> 0.0 | s -> Stats.median s
  in
  ( Clients.throughput_rps (K.cost k) result,
    median_lag,
    List.length (Nvx.crashes session) )

let sanitize () =
  print_endline "=== Section 5.3: live sanitization ===\n";
  let plain_rps, _, _ = sanitize_run ~multipliers:[ 1000 ] in
  let asan_rps, asan_lag, crashes = sanitize_run ~multipliers:[ 2000 ] in
  let multi_rps, multi_lag, crashes2 =
    sanitize_run ~multipliers:[ 2000; 3000 ]
  in
  Printf.printf "Redis leader + 1 plain follower      : %9.0f req/s\n" plain_rps;
  Printf.printf
    "Redis leader + 1 ASan (2x) follower  : %9.0f req/s  (%.1f%% extra \
     slowdown; paper: none)\n"
    asan_rps
    ((plain_rps /. asan_rps -. 1.0) *. 100.0);
  Printf.printf
    "  median log distance                : %9.1f events [paper: %d]\n"
    asan_lag Paper.sanitize_median_lag;
  Printf.printf
    "Leader + ASan (2x) + MSan (3x)       : %9.0f req/s, median lag %.1f \
     (concurrent incompatible sanitizers)\n"
    multi_rps multi_lag;
  Printf.printf "  crashes: %d %d\n" crashes crashes2

(* ------------------------------------------------------------------ *)
(* 5.4 Record-replay                                                   *)
(* ------------------------------------------------------------------ *)

let recrep () =
  print_endline "=== Section 5.4: record-replay ===\n";
  (* A single-unit Redis so the recorded stream is a single tuple. *)
  let port = 6500 in
  let conns = 6 in
  let reqs = 80 in
  let mk_workload =
    {
      Workload.w_name = "Redis (single-threaded)";
      units = 1;
      unit_kind = Variant.Thread;
      make_body =
        (fun () ->
          Kv_server.make_body
            {
              Kv_server.port;
              units = 1;
              aof_path = None;
              work_cycles = 28_000;
              expected_conns = conns;
              crash_on_hmget = false;
            }
            ());
      profile =
        { Variant.code_bytes = 35_000; syscall_share = 0.008; code_seed = 15 };
      mem_intensity_c1000 = 80;
      port_base = port;
      load =
        {
          Clients.connections = conns;
          requests_per_conn = reqs;
          request_of =
            (fun ~conn ~seq ->
              Kv_server.cmd (Printf.sprintf "SET k%d-%d v%d" conn seq seq));
          think_cycles = 500;
          warmup_requests = 0;
        };
      setup_fs = (fun k -> Varan_kernel.Vfs.add_file k "/var/.keep" "");
      rules = None;
    }
  in
  let native = Driver.run mk_workload Driver.Native in
  let scribe = Driver.run mk_workload Driver.Scribe in
  let varan_rec =
    Driver.run mk_workload
      (Driver.Nvx_record { followers = 1; log_path = "/var/varan.log" })
  in
  let p_scribe, p_varan = Paper.recrep_overheads in
  let table =
    Varan_util.Tablefmt.create
      ~title:"Recording the Redis benchmark to persistent storage"
      [
        ("recorder", Varan_util.Tablefmt.Left);
        ("req/s", Varan_util.Tablefmt.Right);
        ("overhead", Varan_util.Tablefmt.Right);
        ("overhead [paper]", Varan_util.Tablefmt.Right);
      ]
  in
  let pct x = Printf.sprintf "%.0f%%" (x *. 100.) in
  (* [paper = None] marks the baseline row. *)
  let row name r paper =
    Varan_util.Tablefmt.add_row table
      (name :: Printf.sprintf "%.0f" r.Driver.throughput_rps
       ::
       (match paper with
       | None -> [ "-"; "-" ]
       | Some p -> [ pct (Driver.overhead ~baseline:native r -. 1.); pct p ]))
  in
  row "native" native None;
  row "Scribe (kernel model)" scribe (Some p_scribe);
  row "VARAN recorder (+1 follower)" varan_rec (Some p_varan);
  Varan_util.Tablefmt.print table;
  Report.save_csv ~name:"recrep" table;
  (* Record in a dedicated machine, then replay the log twice over. *)
  let eng = E.create () in
  let k = K.create ~link_latency:3_500 eng in
  mk_workload.Workload.setup_fs k;
  let session =
    Nvx.launch k
      [ Workload.fresh_variant mk_workload "rec-leader";
        Workload.fresh_variant mk_workload "rec-follower" ]
  in
  let recorder = RR.record session k ~tuple:0 ~path:"/var/replay.log" in
  let result =
    Clients.launch k ~cost:(K.cost k)
      ~port_of:(Workload.port_of_conn mk_workload)
      mk_workload.Workload.load
  in
  E.run_until_quiescent eng;
  (* stop must run inside the engine: it pokes the ring. *)
  ignore (E.spawn eng ~name:"stop-recorder" (fun () -> RR.stop recorder));
  E.run_until_quiescent eng;
  Printf.printf "\nRecorded %d events (%d client requests served).\n"
    (RR.recorded_events recorder) result.Clients.completed;
  (* Replay: two clients of the same version replay the single log at
     once — the multi-version replay use case. *)
  let eng2 = E.create () in
  let k2 = K.create eng2 in
  mk_workload.Workload.setup_fs k2;
  (* Move the log across machines. *)
  (match Varan_kernel.Vfs.read_file k "/var/replay.log" with
  | Some log -> Varan_kernel.Vfs.add_file k2 "/var/replay.log" log
  | None -> failwith "no recorded log");
  let rp =
    RR.replay k2 ~path:"/var/replay.log"
      [ Workload.fresh_variant mk_workload "replay-a";
        Workload.fresh_variant mk_workload "replay-b" ]
  in
  E.run_until_quiescent eng2;
  Printf.printf
    "Replayed %d events into 2 replay clients; %d divergences/crashes.\n"
    (RR.replayed_events rp)
    (List.length (RR.replay_crashes rp))
