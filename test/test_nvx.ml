(* Integration tests for the NVX core: event streaming, virtualisation of
   nondeterminism, descriptor grants, divergence rules, transparent
   failover, multi-threaded ordering and the event-pump ablation. *)

module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Flags = Varan_kernel.Flags
module Sysno = Varan_syscall.Sysno
module Errno = Varan_syscall.Errno
module Nvx = Varan_nvx.Session
module Config = Varan_nvx.Config
module Variant = Varan_nvx.Variant
module Rules = Varan_bpf.Rules

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected errno %s" (Errno.name e)

let mk_env () =
  let eng = E.create () in
  let k = K.create eng in
  (eng, k)

let simple_variant ?rules name body =
  Variant.make ?rules name (Variant.single body)

(* ---- basic streaming ------------------------------------------------ *)

let test_followers_replay_results () =
  let eng, k = mk_env () in
  (* Each variant reads /dev/urandom; without virtualisation they would
     all read different bytes. Under NVX every variant must observe the
     leader's bytes. *)
  let results = Array.make 3 "" in
  let body i api =
    let fd = ok (Api.openf api "/dev/urandom" Flags.o_rdonly) in
    let b = ok (Api.read api fd 16) in
    results.(i) <- Bytes.to_string b;
    ignore (ok (Api.close api fd))
  in
  let variants = List.init 3 (fun i -> simple_variant (Printf.sprintf "v%d" i) (body i)) in
  let session = Nvx.launch k variants in
  E.run eng;
  Alcotest.(check int) "16 bytes" 16 (String.length results.(0));
  Alcotest.(check string) "follower 1 sees leader bytes" results.(0) results.(1);
  Alcotest.(check string) "follower 2 sees leader bytes" results.(0) results.(2);
  let st = Nvx.stats session in
  Alcotest.(check int) "no crashes" 0 (List.length (Nvx.crashes session));
  let leader = st.Nvx.variants.(0) in
  let f1 = st.Nvx.variants.(1) in
  Alcotest.(check bool) "leader published" true (leader.Nvx.vs_events_published > 0);
  Alcotest.(check int) "follower consumed all"
    leader.Nvx.vs_events_published f1.Nvx.vs_events_consumed

let test_time_virtualised () =
  let eng, k = mk_env () in
  let times = Array.make 2 0L in
  let body i api =
    (* Skew the two variants so their local clocks differ; the follower
       must still observe the leader's timestamp. *)
    Api.compute api (10_000 * (i + 1));
    times.(i) <- Api.clock_gettime_ns api
  in
  let variants = List.init 2 (fun i -> simple_variant (Printf.sprintf "v%d" i) (body i)) in
  ignore (Nvx.launch k variants);
  E.run eng;
  Alcotest.(check int64) "vdso result replayed" times.(0) times.(1)

let test_fd_tables_stay_aligned () =
  let eng, k = mk_env () in
  (* Follower closes are nullified (only replayed), exactly as in the
     prototype — so followers may keep stale entries — but every granted
     descriptor must land at the same fd {e number} as in the leader,
     which is what later calls translate through. *)
  let fds = Array.make 2 (0, 0, 0) in
  let body i api =
    let a = ok (Api.openf api "/dev/null" Flags.o_rdonly) in
    let b = ok (Api.openf api "/dev/zero" Flags.o_rdonly) in
    ignore (ok (Api.close api a));
    let c = ok (Api.openf api "/dev/urandom" Flags.o_rdonly) in
    fds.(i) <- (a, b, c);
    ignore (ok (Api.close api b));
    ignore (ok (Api.close api c))
  in
  let variants = List.init 2 (fun i -> simple_variant (Printf.sprintf "v%d" i) (body i)) in
  ignore (Nvx.launch k variants);
  E.run eng;
  Alcotest.(check bool) "identical fd numbers across variants" true
    (fds.(0) = fds.(1));
  let _, _, c = fds.(0) in
  let a, _, _ = fds.(0) in
  Alcotest.(check int) "lowest-free reuse observed by both" a c

let test_write_results_replayed () =
  let eng, k = mk_env () in
  let rets = Array.make 2 0 in
  let body i api =
    let fd = ok (Api.openf api "/dev/null" Flags.o_wronly) in
    rets.(i) <- ok (Api.write_str api fd "hello world");
    ignore (ok (Api.close api fd))
  in
  let variants = List.init 2 (fun i -> simple_variant (Printf.sprintf "v%d" i) (body i)) in
  ignore (Nvx.launch k variants);
  E.run eng;
  Alcotest.(check int) "leader ret" 11 rets.(0);
  Alcotest.(check int) "follower sees same ret" 11 rets.(1)

let test_only_leader_touches_files () =
  let eng, k = mk_env () in
  let body _i api =
    let fd =
      ok (Api.openf api "/tmp/out" (Flags.o_wronly lor Flags.o_creat))
    in
    ignore (ok (Api.write_str api fd "once"));
    ignore (ok (Api.close api fd))
  in
  let variants = List.init 3 (fun i -> simple_variant (Printf.sprintf "v%d" i) (body i)) in
  ignore (Nvx.launch k variants);
  E.run eng;
  (* If followers also executed the write, the file would hold the text
     several times (shared offset through granted descriptors). *)
  Alcotest.(check (option string))
    "written exactly once" (Some "once")
    (Varan_kernel.Vfs.read_file k "/tmp/out")

(* ---- divergence handling -------------------------------------------- *)

let test_divergence_without_rules_kills_follower () =
  let eng, k = mk_env () in
  let leader_body api =
    let fd = ok (Api.openf api "/dev/null" Flags.o_rdonly) in
    ignore (ok (Api.close api fd))
  in
  let follower_body api =
    (* Extra getuid before open: a syscall-sequence divergence. *)
    ignore (Api.getuid api);
    let fd = ok (Api.openf api "/dev/null" Flags.o_rdonly) in
    ignore (ok (Api.close api fd))
  in
  let variants =
    [ simple_variant "leader" leader_body; simple_variant "buggy" follower_body ]
  in
  let session = Nvx.launch k variants in
  E.run eng;
  Alcotest.(check int) "one crash" 1 (List.length (Nvx.crashes session));
  Alcotest.(check bool) "leader alive" true (Nvx.is_alive session 0);
  Alcotest.(check bool) "follower dead" false (Nvx.is_alive session 1)

let test_divergence_addition_rule () =
  let eng, k = mk_env () in
  let final = Array.make 2 0 in
  let leader_body api =
    let fd = ok (Api.openf api "/dev/null" Flags.o_rdonly) in
    ignore (ok (Api.close api fd));
    final.(0) <- 1
  in
  let follower_body api =
    ignore (Api.getuid api);
    (* allowed insertion *)
    let fd = ok (Api.openf api "/dev/null" Flags.o_rdonly) in
    ignore (ok (Api.close api fd));
    final.(1) <- 1
  in
  let rules =
    Rules.allow_added_syscalls
      ~expected_leader:[ Sysno.to_int Sysno.Open ]
      ~added:[ Sysno.to_int Sysno.Getuid ]
  in
  let variants =
    [
      simple_variant "leader" leader_body;
      simple_variant ~rules "newer" follower_body;
    ]
  in
  let session = Nvx.launch k variants in
  E.run eng;
  Alcotest.(check int) "no crashes" 0 (List.length (Nvx.crashes session));
  Alcotest.(check (list int)) "both finished" [ 1; 1 ] (Array.to_list final);
  let st = Nvx.stats session in
  Alcotest.(check int) "one divergence executed locally" 1
    st.Nvx.variants.(1).Nvx.vs_divergences_executed;
  match Nvx.divergence_log session with
  | [ d ] ->
    Alcotest.(check string) "logged variant" "newer" d.Nvx.d_variant;
    Alcotest.(check string) "logged call" "getuid" d.Nvx.d_follower_call;
    Alcotest.(check string) "logged event" "open" d.Nvx.d_leader_event;
    Alcotest.(check string) "logged verdict" "execute-follower-call"
      d.Nvx.d_verdict
  | l -> Alcotest.failf "expected one log entry, got %d" (List.length l)

let test_divergence_removal_rule () =
  let eng, k = mk_env () in
  let finished = ref false in
  let leader_body api =
    let fd = ok (Api.openf api "/dev/null" Flags.o_rdonly) in
    (* Leader-only fcntl (like lighttpd rev 2577 -> 2578 in reverse). *)
    ignore (ok (Api.fcntl api fd Flags.f_getfl 0));
    ignore (ok (Api.close api fd))
  in
  let follower_body api =
    let fd = ok (Api.openf api "/dev/null" Flags.o_rdonly) in
    ignore (ok (Api.close api fd));
    finished := true
  in
  let rules =
    Rules.allow_removed_syscalls ~removed:[ Sysno.to_int Sysno.Fcntl ]
  in
  let variants =
    [
      simple_variant "leader" leader_body;
      simple_variant ~rules "older" follower_body;
    ]
  in
  let session = Nvx.launch k variants in
  E.run eng;
  Alcotest.(check int) "no crashes" 0 (List.length (Nvx.crashes session));
  Alcotest.(check bool) "follower finished" true !finished;
  let st = Nvx.stats session in
  Alcotest.(check int) "one event skipped" 1
    st.Nvx.variants.(1).Nvx.vs_divergences_skipped

let test_divergence_coalescing () =
  (* §2.3 pattern (ii): the leader (a revision with extra buffering)
     writes 1024 bytes in one syscall; the follower writes the same bytes
     as two 512-byte syscalls. No BPF rule is needed: the monitor serves
     the follower's writes as slices of the single leader event. *)
  let eng, k = mk_env () in
  let rets = Array.make 2 [] in
  let leader_body api =
    let fd = ok (Api.openf api "/dev/null" Flags.o_wronly) in
    rets.(0) <- [ ok (Api.write api fd (Bytes.make 1024 'x')) ];
    ignore (ok (Api.close api fd))
  in
  let follower_body api =
    let fd = ok (Api.openf api "/dev/null" Flags.o_wronly) in
    let a = ok (Api.write api fd (Bytes.make 512 'x')) in
    let b = ok (Api.write api fd (Bytes.make 512 'x')) in
    rets.(1) <- [ a; b ];
    ignore (ok (Api.close api fd))
  in
  let variants =
    [
      simple_variant "buffered" leader_body;
      simple_variant "unbuffered" follower_body;
    ]
  in
  let session = Nvx.launch k variants in
  E.run eng;
  Alcotest.(check int) "no crashes" 0 (List.length (Nvx.crashes session));
  Alcotest.(check (list int)) "leader wrote once" [ 1024 ] rets.(0);
  Alcotest.(check (list int)) "follower slices" [ 512; 512 ] rets.(1);
  let st = Nvx.stats session in
  Alcotest.(check int) "one coalesced slice" 1
    st.Nvx.variants.(1).Nvx.vs_divergences_coalesced

let test_divergence_coalescing_reverse () =
  (* The other direction — leader unbuffered (two writes), follower
     buffered (one big write) — resolves through the normal retry loop:
     the follower's single write matches the first event and the
     remaining event feeds its continuation loop (write_all). *)
  let eng, k = mk_env () in
  let written = Array.make 2 0 in
  let leader_body api =
    let fd = ok (Api.openf api "/dev/null" Flags.o_wronly) in
    written.(0) <-
      ok (Api.write api fd (Bytes.make 512 'y'))
      + ok (Api.write api fd (Bytes.make 512 'y'));
    ignore (ok (Api.close api fd))
  in
  let follower_body api =
    let fd = ok (Api.openf api "/dev/null" Flags.o_wronly) in
    (* write_all loops until all 1024 bytes are accepted; each inner
       write matches one of the leader's two events. *)
    ok (Api.write_all api fd (Bytes.make 1024 'y'));
    written.(1) <- 1024;
    ignore (ok (Api.close api fd))
  in
  let variants =
    [
      simple_variant "unbuffered" leader_body;
      simple_variant "buffered" follower_body;
    ]
  in
  let session = Nvx.launch k variants in
  E.run eng;
  Alcotest.(check int) "no crashes" 0 (List.length (Nvx.crashes session));
  Alcotest.(check int) "leader total" 1024 written.(0);
  Alcotest.(check int) "follower total" 1024 written.(1)

(* ---- transparent failover -------------------------------------------- *)

(* An echo server over the simulated network: serves [n] requests on one
   connection. The buggy revision crashes while processing any request
   whose payload is "BOOM". *)
let echo_server ~buggy ~requests port api =
  let lfd = ok (Api.socket api) in
  ok (Api.bind api lfd port);
  ok (Api.listen api lfd);
  let c = ok (Api.accept api lfd) in
  for _ = 1 to requests do
    let data = ok (Api.recv api c 256) in
    Api.compute api 5_000;
    if buggy && Bytes.to_string data = "BOOM" then failwith "segfault";
    ignore (ok (Api.send api c data))
  done;
  ignore (ok (Api.close api c));
  ignore (ok (Api.close api lfd))

let rec connect_retry api fd port =
  match Api.connect api fd port with
  | Ok () -> ()
  | Error Errno.ECONNREFUSED ->
    E.sleep 20_000;
    connect_retry api fd port
  | Error e -> Alcotest.failf "connect: %s" (Errno.name e)

let run_failover_scenario ~buggy_is_leader =
  let eng, k = mk_env () in
  let port = 4242 in
  let requests = [ "one"; "BOOM"; "three" ] in
  let replies = ref [] in
  let latencies = ref [] in
  (* Client *)
  let cproc = K.new_proc k "client" in
  ignore
    (E.spawn eng ~name:"client" (fun () ->
         let api = Api.direct k cproc in
         let fd = ok (Api.socket api) in
         connect_retry api fd port;
         List.iter
           (fun req ->
             let t0 = E.now_cycles () in
             ignore (ok (Api.send api fd (Bytes.of_string req)));
             let reply = ok (Api.recv api fd 256) in
             let t1 = E.now_cycles () in
             replies := Bytes.to_string reply :: !replies;
             latencies := Int64.to_float (Int64.sub t1 t0) :: !latencies)
           requests;
         ignore (ok (Api.close api fd))));
  let server buggy _i api = echo_server ~buggy ~requests:3 port api in
  let variants =
    if buggy_is_leader then
      [
        simple_variant "buggy" (server true 0);
        simple_variant "good" (server false 1);
      ]
    else
      [
        simple_variant "good" (server false 0);
        simple_variant "buggy" (server true 1);
      ]
  in
  let session = Nvx.launch k variants in
  E.run_until_quiescent eng;
  (session, List.rev !replies, List.rev !latencies)

let test_failover_leader_crash () =
  let session, replies, latencies = run_failover_scenario ~buggy_is_leader:true in
  Alcotest.(check (list string))
    "client got every reply" [ "one"; "BOOM"; "three" ] replies;
  Alcotest.(check int) "one crash" 1 (List.length (Nvx.crashes session));
  Alcotest.(check int) "follower promoted" 1 (Nvx.leader_index session);
  Alcotest.(check bool) "promoted role" true (Nvx.role_of session 1 = Nvx.Leader);
  (* The failed-over request is the slow one. *)
  (match latencies with
  | [ l1; l2; l3 ] ->
    Alcotest.(check bool)
      (Printf.sprintf "crash request slower (%f vs %f, %f)" l2 l1 l3)
      true
      (l2 > l1 && l2 > l3)
  | _ -> Alcotest.fail "expected three latencies")

let test_failover_follower_crash_no_disruption () =
  let session, replies, latencies =
    run_failover_scenario ~buggy_is_leader:false
  in
  Alcotest.(check (list string))
    "client got every reply" [ "one"; "BOOM"; "three" ] replies;
  Alcotest.(check int) "one crash" 1 (List.length (Nvx.crashes session));
  Alcotest.(check int) "leader unchanged" 0 (Nvx.leader_index session);
  match latencies with
  | [ l1; l2; l3 ] ->
    (* No failover work happens on the client's path: the BOOM request
       costs about the same as its neighbours. *)
    let base = (l1 +. l3) /. 2.0 in
    Alcotest.(check bool)
      (Printf.sprintf "no latency spike (%f vs %f)" l2 base)
      true
      (l2 < base *. 1.5)
  | _ -> Alcotest.fail "expected three latencies"

(* ---- multi-threaded variants ----------------------------------------- *)

let test_multithreaded_clock_ordering () =
  let eng, k = mk_env () in
  (* Two threads per variant, each writing to its own file descriptor.
     Follower threads must replay their own events in leader order. *)
  let sums = Array.make 2 0 in
  let program =
    {
      Variant.units = 2;
      unit_kind = Variant.Thread;
      body =
        (fun ~unit_idx api ->
          let fd = ok (Api.openf api "/dev/null" Flags.o_wronly) in
          for i = 1 to 5 do
            Api.compute api (1000 * (unit_idx + 1));
            ignore (ok (Api.write_str api fd (Printf.sprintf "%d-%d" unit_idx i)))
          done;
          ignore (ok (Api.close api fd)))
    }
  in
  let mk name = Variant.make name program in
  let session = Nvx.launch k [ mk "v0"; mk "v1" ] in
  ignore sums;
  E.run eng;
  Alcotest.(check int) "no crashes" 0 (List.length (Nvx.crashes session));
  let st = Nvx.stats session in
  Alcotest.(check int) "follower consumed everything"
    st.Nvx.variants.(0).Nvx.vs_events_published
    st.Nvx.variants.(1).Nvx.vs_events_consumed

let test_futex_coordination_streams () =
  (* Two threads per variant coordinating through futex wait/wake: the
     leader's real blocking order is captured in the stream, so follower
     threads replay the same order without touching the kernel futex. *)
  let eng, k = mk_env () in
  let order = Array.make 2 [] in
  let program i =
    {
      Variant.units = 2;
      unit_kind = Variant.Thread;
      body =
        (fun ~unit_idx api ->
          if unit_idx = 1 then begin
            Api.futex_wait api 0xBEEF;
            order.(i) <- order.(i) @ [ "woken" ];
            ignore (Api.getuid api)
          end
          else begin
            Api.compute api 50_000;
            order.(i) <- order.(i) @ [ "waking" ];
            ignore (Api.futex_wake api 0xBEEF 1)
          end);
    }
  in
  let variants =
    List.init 2 (fun i -> Variant.make (Printf.sprintf "v%d" i) (program i))
  in
  let session = Nvx.launch k variants in
  E.run_until_quiescent eng;
  Alcotest.(check int) "no crashes" 0 (List.length (Nvx.crashes session));
  Alcotest.(check (list string))
    "leader order" [ "waking"; "woken" ] order.(0);
  Alcotest.(check (list string))
    "follower replays the same order" [ "waking"; "woken" ] order.(1)

let test_simulation_deterministic () =
  (* The whole point of the simulated machine: identical runs produce
     identical observables, cycle for cycle. *)
  let run () =
    let eng, k = mk_env () in
    let digest = Buffer.create 64 in
    let body i api =
      let fd = ok (Api.openf api "/dev/urandom" Flags.o_rdonly) in
      let b = ok (Api.read api fd 8) in
      Buffer.add_string digest (Printf.sprintf "%d:%s;" i (Bytes.to_string b |> String.escaped));
      ignore (ok (Api.close api fd))
    in
    let variants =
      List.init 3 (fun i -> simple_variant (Printf.sprintf "v%d" i) (body i))
    in
    ignore (Nvx.launch k variants);
    E.run eng;
    (Buffer.contents digest, E.now eng)
  in
  let d1, t1 = run () in
  let d2, t2 = run () in
  Alcotest.(check string) "identical observables" d1 d2;
  Alcotest.(check int64) "identical final time" t1 t2

(* ---- multi-process variants ------------------------------------------ *)

let test_multiprocess_separate_rings () =
  let eng, k = mk_env () in
  let program =
    {
      Variant.units = 3;
      unit_kind = Variant.Process;
      body =
        (fun ~unit_idx api ->
          let fd = ok (Api.openf api "/dev/null" Flags.o_wronly) in
          for _ = 1 to 4 do
            Api.compute api (500 * (unit_idx + 1));
            ignore (ok (Api.write_str api fd "w"))
          done;
          ignore (ok (Api.close api fd)))
    }
  in
  let mk name = Variant.make name program in
  let session = Nvx.launch k [ mk "v0"; mk "v1" ] in
  E.run eng;
  Alcotest.(check int) "no crashes" 0 (List.length (Nvx.crashes session));
  let st = Nvx.stats session in
  Alcotest.(check int) "three rings" 3 (Array.length st.Nvx.rings);
  Array.iter
    (fun (r : Varan_ringbuf.Ring.stats) ->
      Alcotest.(check bool) "every ring carried events" true
        (r.Varan_ringbuf.Ring.publishes > 0))
    st.Nvx.rings

(* ---- ablations -------------------------------------------------------- *)

let run_simple_session config =
  let eng, k = mk_env () in
  let results = Array.make 2 "" in
  let body i api =
    let fd = ok (Api.openf api "/dev/urandom" Flags.o_rdonly) in
    let b = ok (Api.read api fd 32) in
    results.(i) <- Bytes.to_string b;
    ignore (ok (Api.close api fd))
  in
  let variants = List.init 2 (fun i -> simple_variant (Printf.sprintf "v%d" i) (body i)) in
  let session = Nvx.launch ~config k variants in
  E.run_until_quiescent eng;
  (session, results)

let test_event_pump_mode_equivalent () =
  let config = { Config.default with Config.streaming = Config.Event_pump } in
  let session, results = run_simple_session config in
  Alcotest.(check string) "same results via pump" results.(0) results.(1);
  Alcotest.(check int) "no crashes" 0 (List.length (Nvx.crashes session))

let test_trap_only_mode_equivalent () =
  let config =
    { Config.default with Config.interception = Config.Trap_only }
  in
  let session, results = run_simple_session config in
  Alcotest.(check string) "same results trap-only" results.(0) results.(1);
  let st = Nvx.stats session in
  Alcotest.(check int) "no jump dispatches" 0
    st.Nvx.variants.(0).Nvx.vs_jump_dispatches;
  Alcotest.(check bool) "all traps" true
    (st.Nvx.variants.(0).Nvx.vs_trap_dispatches > 0)

let test_busy_wait_mode_equivalent () =
  let config =
    { Config.default with Config.follower_wait = Config.Busy_wait }
  in
  let _session, results = run_simple_session config in
  Alcotest.(check string) "same results busy-wait" results.(0) results.(1)

let test_tiny_ring_still_correct () =
  let config = Config.with_ring_size Config.default 1 in
  let _session, results = run_simple_session config in
  Alcotest.(check string) "ring size 1 still correct" results.(0) results.(1)

(* ---- signals ----------------------------------------------------------- *)

let test_signal_streamed_to_followers () =
  let eng, k = mk_env () in
  (* Each variant registers a handler; an outside process signals the
     LEADER's pid only. Followers must run their own handler at the same
     stream position, via the Ev_signal event. *)
  let fired = Array.make 3 (-1) in
  let progress = Array.make 3 0 in
  let pids = Array.make 3 0 in
  let body i api =
    pids.(i) <- Api.getpid api;
    Api.set_signal_handler api 10 (fun _ -> fired.(i) <- progress.(i));
    for step = 1 to 6 do
      progress.(i) <- step;
      let fd = ok (Api.openf api "/dev/null" Flags.o_rdonly) in
      ignore (ok (Api.close api fd));
      Api.compute api 10_000
    done
  in
  let variants =
    List.init 3 (fun i -> simple_variant (Printf.sprintf "v%d" i) (body i))
  in
  let session = Nvx.launch k variants in
  (* The signaller aims at whatever pid the leader ends up with. *)
  let sproc = K.new_proc k "signaller" in
  ignore
    (E.spawn eng ~name:"signaller" (fun () ->
         let api = Varan_kernel.Api.direct k sproc in
         E.consume 60_000;
         while pids.(0) = 0 do
           E.sleep 5_000
         done;
         ignore (Api.kill api pids.(0) 10)));
  E.run_until_quiescent eng;
  Alcotest.(check int) "no crashes" 0 (List.length (Nvx.crashes session));
  Alcotest.(check bool) "leader handler fired" true (fired.(0) >= 0);
  Alcotest.(check int) "follower 1 fired at same position" fired.(0) fired.(1);
  Alcotest.(check int) "follower 2 fired at same position" fired.(0) fired.(2)

let test_signal_native_delivery () =
  (* Outside NVX: pending signals are delivered at the next syscall. *)
  let eng, k = mk_env () in
  let fired = ref false in
  let proc = K.new_proc k "p" in
  let tid =
    E.spawn eng (fun () ->
        let api = Api.direct k proc in
        Api.set_signal_handler api 12 (fun _ -> fired := true);
        ignore (Api.kill api (Api.getpid api) 12);
        Alcotest.(check bool) "not yet delivered" false !fired;
        ignore (Api.getuid api);
        Alcotest.(check bool) "delivered at boundary" true !fired)
  in
  K.register_task k proc tid;
  E.run eng

(* ---- edge cases --------------------------------------------------------- *)

let test_failover_chain_two_crashes () =
  (* Three versions; the two newest both carry the bug: the leader
     crashes, the first promoted follower crashes on the same (restarted)
     request, and the last good version finishes the job. *)
  let eng, k = mk_env () in
  let port = 4545 in
  let server buggy _i api = echo_server ~buggy ~requests:3 port api in
  let variants =
    [
      simple_variant "buggy-a" (server true 0);
      simple_variant "buggy-b" (server true 1);
      simple_variant "good" (server false 2);
    ]
  in
  let session = Nvx.launch k variants in
  let replies = ref [] in
  let cproc = K.new_proc k "client" in
  ignore
    (E.spawn eng ~name:"client" (fun () ->
         let api = Api.direct k cproc in
         let fd = ok (Api.socket api) in
         connect_retry api fd port;
         List.iter
           (fun req ->
             ignore (ok (Api.send api fd (Bytes.of_string req)));
             let reply = ok (Api.recv api fd 256) in
             replies := Bytes.to_string reply :: !replies)
           [ "one"; "BOOM"; "three" ];
         ignore (ok (Api.close api fd))));
  E.run_until_quiescent eng;
  Alcotest.(check (list string))
    "all replies despite two crashes" [ "one"; "BOOM"; "three" ]
    (List.rev !replies);
  Alcotest.(check int) "two crashes" 2 (List.length (Nvx.crashes session));
  Alcotest.(check int) "last version leads" 2 (Nvx.leader_index session)

let test_failover_cascade_seven_crashes () =
  (* The extreme case: seven buggy revisions ahead of one good one. The
     crash cascades through seven promotions; the last version serves the
     request. *)
  let eng, k = mk_env () in
  let port = 4646 in
  let server buggy _i api = echo_server ~buggy ~requests:2 port api in
  let variants =
    List.init 7 (fun i ->
        simple_variant (Printf.sprintf "buggy%d" i) (server true i))
    @ [ simple_variant "good" (server false 7) ]
  in
  let session = Nvx.launch k variants in
  let replies = ref [] in
  let cproc = K.new_proc k "client" in
  ignore
    (E.spawn eng ~name:"client" (fun () ->
         let api = Api.direct k cproc in
         let fd = ok (Api.socket api) in
         connect_retry api fd port;
         List.iter
           (fun req ->
             ignore (ok (Api.send api fd (Bytes.of_string req)));
             let reply = ok (Api.recv api fd 256) in
             replies := Bytes.to_string reply :: !replies)
           [ "BOOM"; "two" ];
         ignore (ok (Api.close api fd))));
  E.run_until_quiescent eng;
  Alcotest.(check (list string))
    "client survives a seven-deep crash cascade" [ "BOOM"; "two" ]
    (List.rev !replies);
  Alcotest.(check int) "seven crashes" 7 (List.length (Nvx.crashes session));
  Alcotest.(check int) "good version leads" 7 (Nvx.leader_index session);
  Alcotest.(check int) "one survivor" 1 (Nvx.alive_count session)

let test_pool_payloads_freed () =
  let eng, k = mk_env () in
  let body _i api =
    let fd = ok (Api.openf api "/dev/zero" Flags.o_rdonly) in
    for _ = 1 to 50 do
      ignore (ok (Api.read api fd 512))
    done;
    ignore (ok (Api.close api fd))
  in
  let variants =
    List.init 3 (fun i -> simple_variant (Printf.sprintf "v%d" i) (body i))
  in
  let session = Nvx.launch k variants in
  E.run eng;
  let st = Nvx.stats session in
  Alcotest.(check int) "all payload chunks freed" 0
    st.Nvx.pool.Varan_shmem.Pool.live_chunks;
  Alcotest.(check bool) "allocations happened" true
    (st.Nvx.pool.Varan_shmem.Pool.allocs >= 50)

let test_exit_group_streams_to_followers () =
  let eng, k = mk_env () in
  let reached = Array.make 2 false in
  let body i api =
    ignore (Api.getuid api);
    if true then ignore (Api.exit_group api 0);
    reached.(i) <- true
  in
  let variants =
    List.init 2 (fun i -> simple_variant (Printf.sprintf "v%d" i) (body i))
  in
  let session = Nvx.launch k variants in
  E.run_until_quiescent eng;
  Alcotest.(check int) "no crashes" 0 (List.length (Nvx.crashes session));
  Alcotest.(check bool) "leader stopped at exit" false reached.(0);
  Alcotest.(check bool) "follower stopped at exit" false reached.(1)

(* ---- tables and dispatch ------------------------------------------------ *)

let test_syscall_table_override () =
  let module T = Varan_nvx.Syscall_table in
  let base = T.default_table "custom" in
  Alcotest.(check bool) "write streams" true
    (T.lookup base Sysno.Write = T.Stream);
  Alcotest.(check bool) "mmap local" true (T.lookup base Sysno.Mmap = T.Local);
  Alcotest.(check bool) "time virtual" true
    (T.lookup base Sysno.Time = T.Virtual);
  let custom = T.override base [ (Sysno.Write, T.Local) ] in
  Alcotest.(check bool) "override applies" true
    (T.lookup custom Sysno.Write = T.Local);
  Alcotest.(check bool) "original untouched" true
    (T.lookup base Sysno.Write = T.Stream);
  Alcotest.(check bool) "leader and follower tables distinct values" true
    (T.name T.leader = "leader" && T.name T.follower = "follower")

let test_vdso_dispatch_counted () =
  let eng, k = mk_env () in
  let body _i api =
    for _ = 1 to 5 do
      ignore (Api.time api)
    done
  in
  let variants =
    List.init 2 (fun i -> simple_variant (Printf.sprintf "v%d" i) (body i))
  in
  let session = Nvx.launch k variants in
  E.run eng;
  let st = Nvx.stats session in
  Alcotest.(check int) "leader vdso dispatches" 5
    st.Nvx.variants.(0).Nvx.vs_vdso_dispatches;
  Alcotest.(check int) "follower vdso dispatches" 5
    st.Nvx.variants.(1).Nvx.vs_vdso_dispatches;
  (* Rewriting stats were recorded for each variant's image. *)
  match st.Nvx.variants.(0).Nvx.vs_rewrite with
  | Some r ->
    Alcotest.(check bool) "image had syscall sites" true
      (r.Varan_binary.Rewriter.total_syscalls > 0)
  | None -> Alcotest.fail "no rewrite stats"

let test_stub_syscalls_succeed () =
  (* The broad tail of bookkeeping syscalls must at least succeed with
     sensible defaults both natively and under NVX. *)
  let module A = Varan_syscall.Args in
  let calls : (Sysno.t * A.t) list =
    [
      (Sysno.Uname, [| A.Buf_out 65 |]);
      (Sysno.Getrlimit, [| A.Int 7; A.Buf_out 16 |]);
      (Sysno.Getrusage, [| A.Int 0; A.Buf_out 16 |]);
      (Sysno.Times, [| A.Buf_out 16 |]);
      (Sysno.Umask, [| A.Int 0o027 |]);
      (Sysno.Setsid, [||]);
      (Sysno.Sched_yield, [||]);
      (Sysno.Madvise, [| A.Int 0; A.Int 4096; A.Int 1 |]);
      (Sysno.Mprotect, [| A.Int 0; A.Int 4096; A.Int 5 |]);
      (Sysno.Brk, [| A.Int 0 |]);
      (Sysno.Getcpu, [| A.Buf_out 8 |]);
      (Sysno.Getppid, [||]);
    ]
  in
  let eng, k = mk_env () in
  let oks = Array.make 2 0 in
  let body i api =
    List.iter
      (fun (sysno, args) ->
        let r = api.Api.sys sysno args in
        if r.A.ret >= 0 then oks.(i) <- oks.(i) + 1)
      calls
  in
  let variants =
    List.init 2 (fun i -> simple_variant (Printf.sprintf "v%d" i) (body i))
  in
  let session = Nvx.launch k variants in
  E.run eng;
  Alcotest.(check int) "no crashes" 0 (List.length (Nvx.crashes session));
  Alcotest.(check int) "leader all ok" (List.length calls) oks.(0);
  Alcotest.(check int) "follower all ok" (List.length calls) oks.(1)

(* ---- dynamic fork (Ev_fork, §3.3.3) ------------------------------------ *)

let test_fork_streams_new_tuple () =
  let eng, k = mk_env () in
  let n = 3 in
  let parent_obs = Array.make n "" in
  let child_obs = Array.make n "" in
  let child_pids = Array.make n 0 in
  let read_urandom api len =
    let fd = ok (Api.openf api "/dev/urandom" Flags.o_rdonly) in
    let b = ok (Api.read api fd len) in
    ignore (ok (Api.close api fd));
    Bytes.to_string b
  in
  let body i api =
    parent_obs.(i) <- read_urandom api 8;
    let pid =
      Api.fork api (fun child_api ->
          child_obs.(i) <- read_urandom child_api 8)
    in
    child_pids.(i) <- pid;
    (* The parent tuple keeps streaming after the fork. *)
    parent_obs.(i) <- parent_obs.(i) ^ read_urandom api 4
  in
  let variants =
    List.init n (fun i -> simple_variant (Printf.sprintf "v%d" i) (body i))
  in
  let session = Nvx.launch k variants in
  E.run_until_quiescent eng;
  Alcotest.(check int) "no crashes" 0 (List.length (Nvx.crashes session));
  for i = 1 to n - 1 do
    Alcotest.(check string)
      (Printf.sprintf "parent stream replayed in v%d" i)
      parent_obs.(0) parent_obs.(i);
    Alcotest.(check string)
      (Printf.sprintf "child stream replayed in v%d" i)
      child_obs.(0) child_obs.(i);
    Alcotest.(check int)
      (Printf.sprintf "child pid virtualised in v%d" i)
      child_pids.(0) child_pids.(i)
  done;
  Alcotest.(check bool) "children really observed something" true
    (String.length child_obs.(0) = 8)

let test_fork_nested () =
  let eng, k = mk_env () in
  let results = Array.make 2 "" in
  let body i api =
    ignore
      (Api.fork api (fun c1 ->
           ignore (Api.getuid c1);
           ignore
             (Api.fork c1 (fun c2 ->
                  let fd = ok (Api.openf c2 "/dev/urandom" Flags.o_rdonly) in
                  let b = ok (Api.read c2 fd 6) in
                  results.(i) <- Bytes.to_string b;
                  ignore (ok (Api.close c2 fd))))));
    ignore (Api.getpid api)
  in
  let variants =
    List.init 2 (fun i -> simple_variant (Printf.sprintf "v%d" i) (body i))
  in
  let session = Nvx.launch k variants in
  E.run_until_quiescent eng;
  Alcotest.(check int) "no crashes" 0 (List.length (Nvx.crashes session));
  Alcotest.(check string) "grandchild replayed" results.(0) results.(1);
  Alcotest.(check int) "grandchild saw bytes" 6 (String.length results.(0))

let test_fork_native_hook () =
  let eng, k = mk_env () in
  let child_ran = ref false in
  let parent_pid = ref 0 and child_pid = ref 0 in
  let proc = K.new_proc k "p" in
  let tid =
    E.spawn eng (fun () ->
        let api = Api.direct k proc in
        parent_pid := Api.getpid api;
        child_pid :=
          Api.fork api (fun capi ->
              child_ran := true;
              Alcotest.(check bool) "child has its own pid" true
                (Api.getpid capi <> !parent_pid)))
  in
  K.register_task k proc tid;
  E.run_until_quiescent eng;
  Alcotest.(check bool) "child ran" true !child_ran;
  Alcotest.(check bool) "pid returned" true (!child_pid > 0)

let test_trace_under_monitor () =
  (* §3.1: tracing tooling keeps working on a monitored program. *)
  let eng, k = mk_env () in
  let body _i api =
    let fd = ok (Api.openf api "/dev/null" Flags.o_rdonly) in
    ignore (ok (Api.close api fd))
  in
  let config = { Config.default with Config.trace_first_variant = true } in
  let variants =
    List.init 2 (fun i -> simple_variant (Printf.sprintf "v%d" i) (body i))
  in
  let session = Nvx.launch ~config k variants in
  E.run eng;
  let lines = Nvx.trace_lines session in
  Alcotest.(check bool) "trace captured" true (List.length lines >= 2);
  Alcotest.(check bool) "open traced" true
    (List.exists
       (fun l -> String.length l > 5 && String.sub l 0 5 = "open(")
       lines)

(* ---- scaling ----------------------------------------------------------- *)

let test_six_followers () =
  let eng, k = mk_env () in
  let n = 7 in
  let results = Array.make n "" in
  let body i api =
    let fd = ok (Api.openf api "/dev/urandom" Flags.o_rdonly) in
    for _ = 1 to 10 do
      let b = ok (Api.read api fd 8) in
      results.(i) <- results.(i) ^ Bytes.to_string b
    done;
    ignore (ok (Api.close api fd))
  in
  let variants = List.init n (fun i -> simple_variant (Printf.sprintf "v%d" i) (body i)) in
  let session = Nvx.launch k variants in
  E.run eng;
  Alcotest.(check int) "no crashes" 0 (List.length (Nvx.crashes session));
  for i = 1 to n - 1 do
    Alcotest.(check string)
      (Printf.sprintf "follower %d replayed" i)
      results.(0) results.(i)
  done

(* ---- the segmented catch-up tape ----------------------------------- *)

module Tape = Varan_nvx.Tape
module Event = Varan_ringbuf.Event
module RR = Varan_nvx.Record_replay

(* A deterministic event stream mixing inline-less calls, small results
   and large repetitive payloads (the RLE packer's best case) with
   incompressible ones (its worst case — literal runs must round-trip
   too). *)
let synthetic_event i =
  let out =
    match i mod 4 with
    | 0 -> None
    | 1 -> Some (Bytes.make (1 + (i mod 600)) 'z') (* long runs *)
    | 2 -> Some (Bytes.init (1 + (i mod 97)) (fun j -> Char.chr ((i + (j * 7)) land 0xff)))
    | _ -> Some Bytes.empty
  in
  let e =
    Event.make
      ~kind:(match i mod 16 with 15 -> Event.Ev_signal | _ -> Event.Ev_syscall)
      ~tid:(i mod 3)
      ~args:(Array.init (i mod 7) (fun j -> (i * 31) + j))
      ~ret:(i * 13)
      ~clock:(i + 1) (i mod 300)
  in
  (e, out)

let fill_tape tape n =
  for i = 0 to n - 1 do
    let e, out = synthetic_event i in
    Tape.append tape e ~out
  done

let check_entry i (en : Tape.entry) =
  let e, out = synthetic_event i in
  Alcotest.(check int) (Printf.sprintf "entry %d sysno" i) e.Event.sysno
    en.Tape.t_sysno;
  Alcotest.(check int) (Printf.sprintf "entry %d tid" i) e.Event.tid
    en.Tape.t_tid;
  Alcotest.(check int) (Printf.sprintf "entry %d ret" i) e.Event.ret
    en.Tape.t_ret;
  Alcotest.(check int) (Printf.sprintf "entry %d clock" i) e.Event.clock
    en.Tape.t_clock;
  Alcotest.(check (array int)) (Printf.sprintf "entry %d args" i) e.Event.args
    en.Tape.t_args;
  Alcotest.(check bool) (Printf.sprintf "entry %d kind" i) true
    (e.Event.kind = en.Tape.t_kind);
  Alcotest.(check (option bytes)) (Printf.sprintf "entry %d out" i) out
    en.Tape.t_out

(* Entries survive sealing and run-length packing byte-for-byte, read
   back both sequentially (cached segment) and at random (decode). *)
let test_tape_roundtrip_across_segments () =
  let tape = Tape.create () in
  let n = 1000 in
  fill_tape tape n;
  Alcotest.(check int) "length" n (Tape.length tape);
  Alcotest.(check int) "base" 0 (Tape.base tape);
  for i = 0 to n - 1 do
    check_entry i (Tape.get tape i)
  done;
  (* Random access order defeats the one-segment decode cache. *)
  List.iter (fun i -> check_entry i (Tape.get tape i)) [ 999; 0; 512; 255; 256; 770; 3 ];
  let st = Tape.stats tape in
  Alcotest.(check int) "segments sealed" (n / 256) st.Tape.segments_sealed;
  Alcotest.(check bool) "packing saves bytes" true
    (st.Tape.packed_bytes < st.Tape.raw_bytes)

(* The Buffer-based serializer and packer the tape used before it
   serialized and packed into presized buffers, kept here verbatim as the
   reference for the wire format. *)
let reference_image (entries : Tape.entry array) =
  let kind_code = function
    | Event.Ev_syscall -> 0
    | Event.Ev_signal -> 1
    | Event.Ev_fork -> 2
    | Event.Ev_exit -> 3
  in
  let buf = Buffer.create 64 in
  Array.iter
    (fun (e : Tape.entry) ->
      Buffer.add_uint8 buf (kind_code e.Tape.t_kind);
      Buffer.add_uint8 buf (e.Tape.t_tid land 0xFF);
      Buffer.add_uint8 buf (Array.length e.Tape.t_args);
      Buffer.add_int32_le buf (Int32.of_int e.Tape.t_sysno);
      Buffer.add_int32_le buf (Int32.of_int e.Tape.t_clock);
      Buffer.add_int64_le buf (Int64.of_int e.Tape.t_ret);
      Array.iter (fun a -> Buffer.add_int64_le buf (Int64.of_int a)) e.Tape.t_args;
      match e.Tape.t_out with
      | None -> Buffer.add_int32_le buf (-1l)
      | Some b ->
        Buffer.add_int32_le buf (Int32.of_int (Bytes.length b));
        Buffer.add_bytes buf b)
    entries;
  let src = Buffer.to_bytes buf in
  let n = Bytes.length src in
  let out = Buffer.create (max 16 (n / 2)) in
  let i = ref 0 in
  while !i < n do
    let c = Bytes.get src !i in
    let run = ref 1 in
    while !i + !run < n && !run < 128 && Bytes.get src (!i + !run) = c do
      incr run
    done;
    if !run >= 3 then begin
      Buffer.add_uint8 out (257 - !run);
      Buffer.add_char out c;
      i := !i + !run
    end
    else begin
      let start = !i in
      let stop = ref (!i + !run) in
      let continue = ref true in
      while !continue && !stop < n && !stop - start < 128 do
        let c' = Bytes.get src !stop in
        let r = ref 1 in
        while !stop + !r < n && !r < 3 && Bytes.get src (!stop + !r) = c' do
          incr r
        done;
        if !r >= 3 then continue := false
        else stop := min (!stop + !r) (start + 128)
      done;
      let len = !stop - start in
      Buffer.add_uint8 out (len - 1);
      Buffer.add_subbytes out src start len;
      i := start + len
    end
  done;
  Buffer.to_bytes out

(* Sealed images are byte-identical to the reference serializer's, on
   the synthetic stream and on random entries whose payloads mix runs
   with incompressible bytes (the packer's worst case) and whose fields
   use the full width of their encodings. *)
let test_tape_image_matches_reference () =
  let entry_of (e, out) =
    {
      Tape.t_kind = e.Event.kind;
      t_sysno = e.Event.sysno;
      t_tid = e.Event.tid;
      t_args = e.Event.args;
      t_ret = e.Event.ret;
      t_clock = e.Event.clock;
      t_out = out;
      t_grant = None;
    }
  in
  let check what entries =
    Alcotest.(check bytes) what (reference_image entries) (Tape.image entries)
  in
  check "synthetic segment" (Array.init 256 (fun i -> entry_of (synthetic_event i)));
  check "empty segment" [||];
  let rng = Random.State.make [| 0x7A9E |] in
  let payload () =
    let n = Random.State.int rng 700 in
    let b = Bytes.create n in
    let i = ref 0 in
    while !i < n do
      let len = min (n - !i) (1 + Random.State.int rng 5) in
      let c = Char.chr (Random.State.int rng 256) in
      if Random.State.bool rng then Bytes.fill b !i len c
      else
        for j = !i to !i + len - 1 do
          Bytes.set b j (Char.chr (Random.State.int rng 256))
        done;
      i := !i + len
    done;
    b
  in
  let wide () = Random.State.bits rng - (1 lsl 29) in
  for round = 1 to 40 do
    let entries =
      Array.init (1 + Random.State.int rng 64) (fun _ ->
          {
            Tape.t_kind =
              [| Event.Ev_syscall; Event.Ev_signal; Event.Ev_fork; Event.Ev_exit |].(
                Random.State.int rng 4);
            t_sysno = Random.State.int rng 400;
            t_tid = Random.State.int rng 1000;
            t_args = Array.init (Random.State.int rng 7) (fun _ -> wide ());
            t_ret = wide ();
            t_clock = Random.State.bits rng;
            t_out =
              (match Random.State.int rng 3 with
              | 0 -> None
              | 1 -> Some Bytes.empty
              | _ -> Some (payload ()));
            t_grant = None;
          })
    in
    check (Printf.sprintf "random segment %d" round) entries
  done

(* Retirement truncates exactly at a segment boundary: keep_from rounds
   down to the segment start, never mid-segment; reads below the new
   base fail with [Truncated]; the window never re-grows. *)
let test_tape_retire_at_boundary () =
  let tape = Tape.create () in
  fill_tape tape 1000;
  (* keep_from exactly on a segment boundary *)
  Tape.retire tape ~keep_from:512;
  Alcotest.(check int) "base at the boundary" 512 (Tape.base tape);
  Alcotest.(check int) "length unchanged" 1000 (Tape.length tape);
  (match Tape.get tape 511 with
  | exception Tape.Truncated { requested; base } ->
    Alcotest.(check int) "reports the requested index" 511 requested;
    Alcotest.(check int) "and the surviving base" 512 base
  | _ -> Alcotest.fail "read below base must raise Truncated");
  check_entry 512 (Tape.get tape 512);
  (* keep_from mid-segment rounds down to its start *)
  Tape.retire tape ~keep_from:700;
  Alcotest.(check int) "mid-segment keep_from rounds down" 512
    (Tape.base tape);
  Tape.retire tape ~keep_from:768;
  Alcotest.(check int) "next boundary retires" 768 (Tape.base tape);
  (* monotone: retiring backwards is a no-op *)
  Tape.retire tape ~keep_from:0;
  Alcotest.(check int) "never re-grows" 768 (Tape.base tape);
  (* the open (unsealed) segment is never retired *)
  Tape.retire tape ~keep_from:1000;
  Alcotest.(check int) "open segment survives" 768 (Tape.base tape);
  check_entry 999 (Tape.get tape 999)

(* The acceptance bound: a million-event stream with checkpoint-driven
   retention holds a few recent segments, not the whole history. *)
let test_tape_bounded_memory_million_events () =
  let tape = Tape.create () in
  let n = 1_000_000 in
  for i = 0 to n - 1 do
    let e, out = synthetic_event (i mod 4096) in
    Tape.append tape e ~out;
    (* The retention floor a checkpointing session would maintain: keep
       roughly the last two thousand events. *)
    if i mod 4096 = 0 && i > 2048 then Tape.retire tape ~keep_from:(i - 2048)
  done;
  Alcotest.(check int) "million events appended" n (Tape.length tape);
  Alcotest.(check bool) "almost everything retired" true
    (Tape.base tape > n - 8192);
  let resident = Tape.resident_bytes tape in
  Alcotest.(check bool)
    (Printf.sprintf "resident bytes bounded (%d)" resident)
    true
    (resident < 2_000_000);
  let st = Tape.stats tape in
  Alcotest.(check bool) "thousands of segments retired" true
    (st.Tape.segments_retired > 3_000)

(* serialize_tape round trip (payload-bearing + retired-window cases):
   the encoded log decodes back to exactly the retained entries, and a
   torn log decodes to a clean [None] instead of crashing. *)
let test_serialize_tape_roundtrip () =
  let tape = Tape.create () in
  fill_tape tape 700;
  Tape.retire tape ~keep_from:256;
  let log = RR.serialize_tape tape in
  let cur = { RR.data = log; pos = 0 } in
  let decoded = ref [] in
  let rec drain () =
    match RR.deserialize cur with
    | Some r ->
      decoded := r :: !decoded;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "clean end of log" (Bytes.length log) cur.RR.pos;
  let decoded = Array.of_list (List.rev !decoded) in
  (* Only the retained window [256, 700) is encoded. *)
  Alcotest.(check int) "retained entries decoded" (700 - 256)
    (Array.length decoded);
  Array.iteri
    (fun j (kind, tid, sysno, clock, ret, args, out) ->
      let i = 256 + j in
      let e, eout = synthetic_event i in
      Alcotest.(check bool) (Printf.sprintf "rec %d kind" i) true
        (kind = e.Event.kind);
      Alcotest.(check int) (Printf.sprintf "rec %d tid" i) e.Event.tid tid;
      Alcotest.(check int) (Printf.sprintf "rec %d sysno" i) e.Event.sysno sysno;
      Alcotest.(check int) (Printf.sprintf "rec %d clock" i) e.Event.clock clock;
      Alcotest.(check int) (Printf.sprintf "rec %d ret" i) e.Event.ret ret;
      Alcotest.(check (array int)) (Printf.sprintf "rec %d args" i) e.Event.args
        args;
      Alcotest.(check bytes) (Printf.sprintf "rec %d out" i)
        (match eout with Some b -> b | None -> Bytes.empty)
        out)
    decoded;
  (* Torn logs: every truncation point decodes what is whole, then
     returns None with the cursor parked before the torn record. *)
  List.iter
    (fun cut ->
      let torn = Bytes.sub log 0 cut in
      let cur = { RR.data = torn; pos = 0 } in
      let rec count n = match RR.deserialize cur with
        | Some _ -> count (n + 1)
        | None -> n
      in
      let n = count 0 in
      Alcotest.(check bool)
        (Printf.sprintf "cut at %d decodes a prefix" cut)
        true
        (n <= 700 - 256);
      Alcotest.(check bool)
        (Printf.sprintf "cut at %d leaves the cursor on the torn record" cut)
        true (cur.RR.pos <= cut))
    [ 1; 7; 23; Bytes.length log - 1; Bytes.length log - 9 ];
  (* A corrupt kind byte is rejected like a torn record: every byte
     that names no event kind decodes to None with the cursor parked on
     the bad record, never to a phantom exit. The first record's kind
     byte is the log's first byte. *)
  List.iter
    (fun bad ->
      let corrupt = Bytes.copy log in
      Bytes.set corrupt 0 (Char.chr bad);
      let cur = { RR.data = corrupt; pos = 0 } in
      Alcotest.(check bool)
        (Printf.sprintf "kind byte %d rejected" bad)
        true
        (RR.deserialize cur = None);
      Alcotest.(check int)
        (Printf.sprintf "kind byte %d leaves the cursor before the record" bad)
        0 cur.RR.pos)
    [ 4; 7; 128; 255 ];
  (* An empty tape serializes to an empty log. *)
  Alcotest.(check int) "empty tape, empty log" 0
    (Bytes.length (RR.serialize_tape (Tape.create ())))

(* ---- the connection router (sharded serving layer) ------------------ *)

module Router = Varan_nvx.Router

let test_router_sticky_and_spread () =
  let r = Router.create ~shards:4 () in
  let assign = List.init 500 (fun c -> (c, Router.route r ~conn:c)) in
  (* Re-routing never moves a connection while its shard stays healthy. *)
  List.iter
    (fun (c, s) ->
      Alcotest.(check int)
        (Printf.sprintf "conn %d sticky" c)
        s (Router.route r ~conn:c))
    assign;
  let st = Router.stats r in
  Alcotest.(check int) "distinct assignments" 500 st.Router.assigned;
  Alcotest.(check int) "no drains while healthy" 0 st.Router.drained;
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d got connections" i)
        true (n > 0))
    st.Router.per_shard;
  (* The seed perturbs placement — distinct pools hash differently. *)
  let r2 = Router.create ~seed:99 ~shards:4 () in
  Alcotest.(check bool) "seed perturbs placement" true
    (List.exists (fun (c, s) -> Router.route r2 ~conn:c <> s) assign)

let test_router_rebalance_on_degradation () =
  let r = Router.create ~shards:3 () in
  let before = List.init 300 (fun c -> (c, Router.route r ~conn:c)) in
  let on_sick = List.filter (fun (_, s) -> s = 1) before in
  Alcotest.(check bool) "case has conns to drain" true (on_sick <> []);
  Router.set_healthy r 1 false;
  let moved = Router.rebalance r in
  Alcotest.(check int) "rebalance drains exactly shard 1's conns"
    (List.length on_sick) moved;
  List.iter
    (fun (c, s) ->
      let s' = Router.route r ~conn:c in
      if s = 1 then
        Alcotest.(check bool)
          (Printf.sprintf "conn %d re-homed off the degraded shard" c)
          true (s' <> 1)
      else
        Alcotest.(check int)
          (Printf.sprintf "conn %d on a healthy shard untouched" c)
          s s')
    before;
  let st = Router.stats r in
  Alcotest.(check int) "drains counted" (List.length on_sick) st.Router.drained;
  Alcotest.(check int) "no live assignment on the degraded shard" 0
    st.Router.per_shard.(1);
  (* Recovery: drained connections stay where they went (stickiness
     wins), fresh connections can land on the recovered shard again. *)
  Router.set_healthy r 1 true;
  List.iter
    (fun (c, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "conn %d stays put after recovery" c)
        true
        (Router.route r ~conn:c <> 1))
    on_sick;
  let fresh = List.init 500 (fun i -> Router.route r ~conn:(10_000 + i)) in
  Alcotest.(check bool) "fresh conns reach the recovered shard" true
    (List.mem 1 fresh)

let test_router_all_down_and_forget () =
  let r = Router.create ~shards:2 () in
  Router.set_healthy r 0 false;
  Router.set_healthy r 1 false;
  let s = Router.route r ~conn:42 in
  Alcotest.(check bool) "all-down falls back to the primary hash shard" true
    (s = 0 || s = 1);
  Router.set_healthy r 0 true;
  Router.set_healthy r 1 true;
  let before = (Router.stats r).Router.per_shard in
  Router.forget r ~conn:42;
  let after = (Router.stats r).Router.per_shard in
  Alcotest.(check int) "forget drops the live assignment"
    (before.(0) + before.(1) - 1)
    (after.(0) + after.(1))

(* ---- pristine images ------------------------------------------------ *)

let image_digest p =
  let code =
    Varan_binary.Codegen.profile_image
      (Varan_util.Prng.create p.Variant.code_seed)
      ~code_bytes:p.Variant.code_bytes ~syscall_share:p.Variant.syscall_share
  in
  Digest.to_hex (Digest.bytes code)

let stored_digest session p =
  Option.map
    (fun b -> Digest.to_hex (Digest.bytes b))
    (Nvx.pristine_image session p)

(* The zygote generates one pristine image per code profile: variants
   that share a profile fork the same text, and one with another
   [code_seed] gets an image of its own. *)
let test_pristine_once_per_profile () =
  let open Alcotest in
  let body _api = () in
  let same = Variant.default_profile in
  let other = { same with Variant.code_seed = same.Variant.code_seed + 1 } in
  let eng, k = mk_env () in
  let session =
    Nvx.launch k (List.init 3 (fun i -> simple_variant (Printf.sprintf "v%d" i) body))
  in
  E.run eng;
  let st = Nvx.stats session in
  check int "one profile, one generation" 1 st.Nvx.pristine_generations;
  check int "and one cold rewrite" 1
    st.Nvx.rewrite_cache.Varan_binary.Rewrite_cache.misses;
  check (option string) "stored bytes are the profile's image"
    (Some (image_digest same)) (stored_digest session same);
  let eng, k = mk_env () in
  let session =
    Nvx.launch k
      [
        simple_variant "v0" body;
        Variant.make ~profile:other "v1" (Variant.single body);
        simple_variant "v2" body;
      ]
  in
  E.run eng;
  check int "two profiles, two generations" 2
    (Nvx.stats session).Nvx.pristine_generations;
  check (option string) "the other seed has its own image"
    (Some (image_digest other)) (stored_digest session other);
  check bool "and it differs" true (image_digest other <> image_digest same);
  check (option string) "the shared image is untouched"
    (Some (image_digest same)) (stored_digest session same)

(* Shards share the spawn hub, so the pool generates each image once. *)
let test_pristine_once_across_shards () =
  let module Shard = Varan_nvx.Shard in
  let eng, k = mk_env () in
  let pool =
    Shard.launch k ~shards:3 ~variants_of:(fun i ->
        List.init 2 (fun j ->
            simple_variant (Printf.sprintf "shard%d.v%d" i j) (fun _api -> ())))
  in
  (* The hub's zygote stays resident, so run until quiescent. *)
  E.run_until_quiescent eng;
  let image i = Nvx.pristine_image (Shard.session pool i) Variant.default_profile in
  for i = 0 to Shard.count pool - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "shard %d forks the hub's image" i)
      true
      (match (image 0, image i) with Some a, Some b -> a == b | _ -> false);
    let st = Nvx.stats (Shard.session pool i) in
    Alcotest.(check int)
      (Printf.sprintf "shard %d sees one generation" i)
      1 st.Nvx.pristine_generations;
    Alcotest.(check int)
      (Printf.sprintf "shard %d sees one cold rewrite" i)
      1 st.Nvx.rewrite_cache.Varan_binary.Rewrite_cache.misses
  done

let () =
  Alcotest.run "varan_nvx"
    [
      ( "streaming",
        [
          Alcotest.test_case "followers replay results" `Quick
            test_followers_replay_results;
          Alcotest.test_case "time virtualised" `Quick test_time_virtualised;
          Alcotest.test_case "fd tables aligned" `Quick
            test_fd_tables_stay_aligned;
          Alcotest.test_case "write results replayed" `Quick
            test_write_results_replayed;
          Alcotest.test_case "only leader touches files" `Quick
            test_only_leader_touches_files;
          Alcotest.test_case "six followers" `Quick test_six_followers;
        ] );
      ( "divergence",
        [
          Alcotest.test_case "no rules kills follower" `Quick
            test_divergence_without_rules_kills_follower;
          Alcotest.test_case "addition rule" `Quick
            test_divergence_addition_rule;
          Alcotest.test_case "removal rule" `Quick
            test_divergence_removal_rule;
          Alcotest.test_case "coalescing" `Quick test_divergence_coalescing;
          Alcotest.test_case "coalescing reverse" `Quick
            test_divergence_coalescing_reverse;
        ] );
      ( "failover",
        [
          Alcotest.test_case "leader crash" `Quick test_failover_leader_crash;
          Alcotest.test_case "follower crash no disruption" `Quick
            test_failover_follower_crash_no_disruption;
        ] );
      ( "multi",
        [
          Alcotest.test_case "threads with clock ordering" `Quick
            test_multithreaded_clock_ordering;
          Alcotest.test_case "futex coordination" `Quick
            test_futex_coordination_streams;
          Alcotest.test_case "simulation deterministic" `Quick
            test_simulation_deterministic;
          Alcotest.test_case "processes with separate rings" `Quick
            test_multiprocess_separate_rings;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "table override" `Quick
            test_syscall_table_override;
          Alcotest.test_case "vdso counted" `Quick test_vdso_dispatch_counted;
          Alcotest.test_case "stub syscalls" `Quick test_stub_syscalls_succeed;
          Alcotest.test_case "strace under monitor" `Quick
            test_trace_under_monitor;
        ] );
      ( "fork",
        [
          Alcotest.test_case "streams new tuple" `Quick
            test_fork_streams_new_tuple;
          Alcotest.test_case "nested forks" `Quick test_fork_nested;
          Alcotest.test_case "native hook" `Quick test_fork_native_hook;
        ] );
      ( "signals",
        [
          Alcotest.test_case "streamed to followers" `Quick
            test_signal_streamed_to_followers;
          Alcotest.test_case "native boundary delivery" `Quick
            test_signal_native_delivery;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "failover chain" `Quick
            test_failover_chain_two_crashes;
          Alcotest.test_case "failover cascade x7" `Quick
            test_failover_cascade_seven_crashes;
          Alcotest.test_case "payload chunks freed" `Quick
            test_pool_payloads_freed;
          Alcotest.test_case "exit_group streamed" `Quick
            test_exit_group_streams_to_followers;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "event pump" `Quick test_event_pump_mode_equivalent;
          Alcotest.test_case "trap only" `Quick test_trap_only_mode_equivalent;
          Alcotest.test_case "busy wait" `Quick test_busy_wait_mode_equivalent;
          Alcotest.test_case "ring size 1" `Quick test_tiny_ring_still_correct;
        ] );
      ( "router",
        [
          Alcotest.test_case "sticky hashing spreads the pool" `Quick
            test_router_sticky_and_spread;
          Alcotest.test_case "rebalance on shard degradation" `Quick
            test_router_rebalance_on_degradation;
          Alcotest.test_case "all-down fallback and forget" `Quick
            test_router_all_down_and_forget;
        ] );
      ( "pristine",
        [
          Alcotest.test_case "one image per profile" `Quick
            test_pristine_once_per_profile;
          Alcotest.test_case "one image across shards" `Quick
            test_pristine_once_across_shards;
        ] );
      ( "tape",
        [
          Alcotest.test_case "roundtrip across sealed segments" `Quick
            test_tape_roundtrip_across_segments;
          Alcotest.test_case "sealed image matches the reference serializer"
            `Quick test_tape_image_matches_reference;
          Alcotest.test_case "retire truncates at segment boundary" `Quick
            test_tape_retire_at_boundary;
          Alcotest.test_case "bounded memory on a million events" `Slow
            test_tape_bounded_memory_million_events;
          Alcotest.test_case "serialize_tape round trip" `Quick
            test_serialize_tape_roundtrip;
        ] );
    ]
