(* Real (wall-clock) performance of the implementation's hot components,
   measured with Bechamel: the BPF interpreter and compiler, the binary
   rewriter, the shared-memory pool, the Disruptor ring (driven inside a
   simulation engine, since its blocking paths are engine condition
   variables) and the discrete-event engine itself. These complement the
   virtual-time results: they show the library itself is fast enough to
   be used as a research vehicle.

   Every estimate is also written to BENCH_hotpath.json at the repo root
   (see Report.save_hotpath_json) so the perf trajectory is
   machine-trackable across PRs. Set VARAN_BENCH_SMOKE=1 for a fast CI
   smoke run with a reduced measurement quota. *)

open Bechamel
open Toolkit
module E = Varan_sim.Engine
module Ring = Varan_ringbuf.Ring
module Pool = Varan_shmem.Pool
module Asm = Varan_bpf.Asm
module Interp = Varan_bpf.Interp
module Rules = Varan_bpf.Rules
module Rewriter = Varan_binary.Rewriter
module Rewrite_cache = Varan_binary.Rewrite_cache
module Codegen = Varan_binary.Codegen
module Prng = Varan_util.Prng
module Tape = Varan_nvx.Tape
module Checkpoint = Varan_nvx.Checkpoint
module Kernel = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Flags = Varan_kernel.Flags
module Proto = Varan_workloads.Proto
module Event = Varan_ringbuf.Event
module Lanes = Varan_ringbuf.Lanes
module Node = Varan_net.Node
module Bridge = Varan_net.Bridge

let listing1 = Asm.assemble_exn Rules.listing1

let bpf_data = { Interp.nr = 102; args = [||] }
let bpf_event = { Interp.ev_nr = 108; ev_ret = 0; ev_args = [||] }

let bpf_test =
  Test.make ~name:"bpf-interp-listing1"
    (Staged.stage (fun () ->
         ignore (Interp.run listing1 ~data:bpf_data ~event:bpf_event)))

(* The same filter compiled once to closures: this pair is the
   compiled-vs-interpreted headline number. *)
let bpf_compiled_test =
  let compiled = Interp.compile listing1 in
  Test.make ~name:"bpf-compiled-listing1"
    (Staged.stage (fun () ->
         ignore (Interp.run_compiled compiled ~data:bpf_data ~event:bpf_event)))

(* Row inputs are built on first use inside the staged function, so a
   program that links this module without running a row pays nothing. *)
let rewrite_code =
  lazy
    (let rng = Prng.create 99 in
     Codegen.profile_image rng ~code_bytes:30_000 ~syscall_share:0.02)

let rewriter_test =
  Test.make ~name:"rewriter-30kB-image"
    (Staged.stage (fun () ->
         ignore (Rewriter.rewrite (Lazy.force rewrite_code))))

(* The spawn fast path: same 30 kB image, but served from a warm
   content-addressed cache — a copy and an O(sites) site-id rebase
   instead of a full disassemble-and-patch. The key is hashed once, as
   the zygote's pristine store does when it generates an image, so the
   row is what a launch pays. The ratio of this row to
   [rewriter-30kB-image] is the headline spawn speedup. *)
let rewriter_cached_test =
  let warm =
    lazy
      (let code = Lazy.force rewrite_code in
       let key = Rewrite_cache.key code in
       let cache = Rewrite_cache.create () in
       ignore (Rewrite_cache.prepare cache ~key code);
       (cache, key, code))
  in
  Test.make ~name:"rewriter-30kB-cached"
    (Staged.stage (fun () ->
         let cache, key, code = Lazy.force warm in
         ignore (Rewrite_cache.prepare cache ~first_site_id:512 ~key code)))

(* The zygote's cold path before any rewrite: generating the text of a
   100 kB code profile (the catalog's largest). *)
let codegen_image () =
  Codegen.profile_image (Prng.create 14) ~code_bytes:100_000
    ~syscall_share:0.008

let codegen_test =
  Test.make ~name:"codegen-100kB-image"
    (Staged.stage (fun () -> ignore (codegen_image ())))

let pool_test =
  let pool = Pool.create () in
  Test.make ~name:"pool-alloc-free-512B"
    (Staged.stage (fun () ->
         let c = Pool.alloc pool 512 in
         Pool.free pool c))

(* The zero-copy read path used by follower replay and the recorder:
   fill a caller-owned buffer straight from the chunk. *)
let pool_read_into_test =
  let pool = Pool.create () in
  let c = Pool.alloc pool 512 in
  let dst = Bytes.create 512 in
  Test.make ~name:"pool-read-into-512B"
    (Staged.stage (fun () -> ignore (Pool.read_into c dst ~len:512)))

(* One ring revolution cycle: publish 256 events and have [nconsumers]
   drain them all, in runs of [batch] (batch 1 is the one-at-a-time
   path). The whole simulation — task switches included — is the
   measured unit, as in the paper's streaming hot path. *)
let ring_cycle ~nconsumers ~batch () =
  let eng = E.create () in
  let ring = Ring.create ~size:256 "bench" in
  let handles = Array.init nconsumers (fun _ -> Ring.subscribe ring) in
  Array.iteri
    (fun i h ->
      ignore
        (E.spawn eng ~name:(Printf.sprintf "c%d" i) (fun () ->
             let left = ref 256 in
             if batch = 1 then
               while !left > 0 do
                 ignore (Ring.consume_h h);
                 decr left
               done
             else
               while !left > 0 do
                 let got = Ring.consume_batch_h h ~max:batch in
                 left := !left - List.length got
               done)))
    handles;
  ignore
    (E.spawn eng ~name:"producer" (fun () ->
         if batch = 1 then
           for i = 1 to 256 do
             Ring.publish ring i
           done
         else begin
           let i = ref 0 in
           while !i < 256 do
             Ring.publish_batch ring (Array.init batch (fun j -> !i + j));
             i := !i + batch
           done
         end));
  E.run eng

let ring_tests =
  List.concat_map
    (fun nconsumers ->
      List.map
        (fun batch ->
          Test.make
            ~name:(Printf.sprintf "ring-256-c%d-b%d" nconsumers batch)
            (Staged.stage (ring_cycle ~nconsumers ~batch)))
        [ 1; 8; 64 ])
    [ 1; 2; 3; 4 ]

(* Checkpointed rejoin latency vs. tape length: a follower respawned
   into an [n]-event session restores the nearest checkpoint (taken
   every 512 events) and replays only the tape delta behind it. The
   three rows must stay flat — the delta is bounded by the checkpoint
   interval, not by [n] — which is the whole point of rr-style rejoin
   over full-tape replay.

   Each row rejoins to a target exactly 256 events past a checkpoint,
   so all three replay an identical delta and the rows are directly
   comparable: any spread beyond noise is a real length-dependent cost
   (the earlier formulation replayed [n mod 512]-ish deltas, which made
   the 100k row look ~4x faster than the 1k row purely because its
   target happened to fall nearer a checkpoint). *)
let rejoin_setup n =
  let tape = Tape.create () in
  let store = Checkpoint.create () in
  let eng = E.create () in
  let k = Kernel.create ~seed:7 eng in
  let proc = Kernel.new_proc k "bench" in
  let fds = Kernel.snapshot_fds proc in
  let out = Bytes.make 24 'x' in
  for i = 0 to n - 1 do
    Tape.append tape
      (Event.make ~clock:(i + 1) ~ret:i ~args:[| i; i * 3 |] ((i * 7) mod 300))
      ~out:(if i land 3 = 0 then Some out else None);
    if (i + 1) mod 512 = 0 then
      Checkpoint.store store
        {
          Checkpoint.cp_idx = 1;
          cp_seq = i + 1;
          cp_clock = i + 1;
          cp_fds = fds;
          cp_state = Bytes.create 64;
        }
  done;
  (tape, store)

let rejoin tape store n =
  (* Rejoin target: 256 events past the last checkpoint that fits. *)
  let at = (((n - 256) / 512) * 512) + 256 in
  let start =
    match Checkpoint.nearest_any store ~seq:at with
    | Some cp -> cp.Checkpoint.cp_seq
    | None -> 0
  in
  let acc = ref 0 in
  for i = start to at - 1 do
    let e = Tape.get tape i in
    acc := !acc + (e.Event.ret land 0xffff)
  done;
  !acc

let rejoin_tests =
  List.map
    (fun n ->
      let tape, store = rejoin_setup n in
      Test.make
        ~name:(Printf.sprintf "rejoin-latency-tape-%dk" (n / 1000))
        (Staged.stage (fun () -> ignore (rejoin tape store n))))
    [ 1_000; 10_000; 100_000 ]

(* Steady-state recorder footprint: a million-event stream with the
   retention floor trailing 2048 events behind the head. The reported
   number is resident bytes per retained event (packed sealed segments
   plus the open segment) — the honest per-event cost of keeping the
   rejoin window, independent of how long the session has run. *)
let tape_bytes_per_event () =
  let tape = Tape.create () in
  let n = 1_000_000 in
  let out = Bytes.make 24 'x' in
  for i = 0 to n - 1 do
    Tape.append tape
      (Event.make ~clock:(i + 1) ~ret:i ((i * 7) mod 300))
      ~out:(if i land 3 = 0 then Some out else None);
    if (i + 1) mod 4096 = 0 then Tape.retire tape ~keep_from:(i + 1 - 2048)
  done;
  let retained = Tape.length tape - Tape.base tape in
  float_of_int (Tape.resident_bytes tape) /. float_of_int retained

let engine_1k () =
  let eng = E.create () in
  ignore
    (E.spawn eng (fun () ->
         for _ = 1 to 1_000 do
           E.consume 1
         done));
  E.run eng

let engine_test =
  Test.make ~name:"engine-1k-task-switches" (Staged.stage engine_1k)

(* Calls that never suspend: one task reads its clock and broadcasts a
   cond nobody waits on, a thousand times each. Inside a task both act
   on the engine through the running-task slot, without performing an
   effect, so the row prices the slot's check and the calls themselves.
   Its ratio to calib-kernel ([engine-direct-calib-ratio]) rises if they
   go back to an effect and a fiber switch each. *)
let engine_direct () =
  let eng = E.create () in
  let c = E.Cond.create "nobody" in
  ignore
    (E.spawn eng (fun () ->
         for _ = 1 to 1_000 do
           ignore (Sys.opaque_identity (E.now_cycles ()));
           E.Cond.broadcast c
         done));
  E.run eng

let engine_direct_test =
  Test.make ~name:"engine-direct-1k" (Staged.stage engine_direct)

(* The same 1k-consume chain with the span tracer armed: every dispatch
   slice emits a begin/end span pair into the bounded buffer. The plain
   row above runs with tracing compiled in but disabled (one
   load-and-branch per dispatch), so this pair yields both numbers CI
   cares about — the disabled row for the ≤5% overhead gate against its
   recorded baseline, and the enabled/disabled ratio derived below. *)
let engine_traced_test =
  Test.make ~name:"engine-1k-task-switches-traced"
    (Staged.stage (fun () ->
         Varan_obs.Trace.configure ~capacity:(1 lsl 12) ();
         let eng = E.create () in
         ignore
           (E.spawn eng (fun () ->
                for _ = 1 to 1_000 do
                  E.consume 1
                done));
         E.run eng;
         Varan_obs.Trace.reset ()))

(* The pure ready-ring chain: two tasks ping-pong signal/wait at a
   constant virtual time, so every dispatch is a same-timestamp ready
   ring hop (two array stores) rather than a heap push+pop. Together
   with [engine-1k-task-switches] (the heap/inline consume chain) this
   pins both halves of the scheduler hot path. *)
let engine_chain () =
  let eng = E.create () in
  let ping = E.Cond.create "ping" and pong = E.Cond.create "pong" in
  ignore
    (E.spawn eng ~name:"echo" (fun () ->
         for _ = 1 to 1_000 do
           E.Cond.wait ping;
           E.Cond.signal pong
         done));
  ignore
    (E.spawn eng ~name:"broadcaster" (fun () ->
         for _ = 1 to 1_000 do
           E.Cond.signal ping;
           E.Cond.wait pong
         done));
  E.run eng

let engine_chain_test =
  Test.make ~name:"engine-ready-ring-chain-1k" (Staged.stage engine_chain)

(* The follower wait reduced to the engine: 256 tasks loop on
   [wait_timeout c 6_000] (the adaptive spin's waitlock sleep) while a
   broadcaster task wakes [c] a thousand times, one cycle apart. Every wait
   is woken long before its deadline, so each broadcast cancels 256
   pending deadlines; the ratio to [engine-ready-ring-chain-1k]
   ([engine-herd-chain-ratio]) rises if cancelled deadlines linger in
   the scheduler. The engine and its tasks are built inside the staged
   function: benchmark/micro.exe links this module and must not pay for
   them. *)
let engine_herd_test =
  Test.make ~name:"engine-herd-timed-wait"
    (Staged.stage (fun () ->
         let eng = E.create () in
         let c = E.Cond.create "activity" in
         let stop = ref false in
         for i = 1 to 256 do
           ignore
             (E.spawn eng ~name:(Printf.sprintf "f%d" i) (fun () ->
                  while not !stop do
                    ignore (E.Cond.wait_timeout c 6_000)
                  done))
         done;
         ignore
           (E.spawn eng ~name:"broadcaster" (fun () ->
                for _ = 1 to 1_000 do
                  E.consume 1;
                  E.Cond.broadcast c
                done;
                stop := true;
                E.Cond.broadcast c));
         E.run eng))

(* A wide heap: 512 tasks loop on [consume (1000 + i)], 32 rounds
   each. Every task's next wakeup is a distinct future time, so nearly
   every dispatch is a heap pop and a push at depth ~9, with no ready
   ring hop and no inline continue. The ratio to
   [engine-ready-ring-chain-1k] ([engine-heap-chain-ratio]) prices a
   heap level, which is where a write barrier per level would show. The
   engine and its tasks are built inside the staged function, because
   benchmark/micro.exe links this module. *)
let engine_rounds cost =
  let eng = E.create () in
  for i = 1 to 512 do
    ignore
      (E.spawn eng (fun () ->
           for _ = 1 to 32 do
             E.consume (cost i)
           done))
  done;
  E.run eng

let engine_heap () = engine_rounds (fun i -> 1000 + i)

let engine_heap_test =
  Test.make ~name:"engine-heap-512" (Staged.stage engine_heap)

(* The same 512 tasks × 32 rounds, but every task consumes 1000 cycles,
   so all 512 wake at one time each round: the shape of a follower herd
   that charges one spin cost and re-arms one [wait_timeout]. Each round
   is one run of 512 entries in the scheduler queue, so a push appends
   and a pop takes a head without sifting. The ratio to [engine-heap-512]
   ([engine-same-time-heap-ratio]) is what a same-time dispatch costs
   next to a distinct-time one; a queue that sifts every entry reads
   near 1. *)
let engine_same_time () = engine_rounds (fun _ -> 1000)

let engine_same_time_test =
  Test.make ~name:"engine-same-time-512" (Staged.stage engine_same_time)

(* A thousand one-shot deadlines, armed one cycle apart with staggered
   delays, each bumping a counter when it fires: first as sleeper tasks
   ([spawn_here] + [sleep], what link deliveries and retransmit deadlines
   used to be), then as timers ([after_here]), which take the same
   scheduler entries without a fiber or task record. The ratio of the two
   rows ([engine-timer-spawn-ratio]) is what a timer saves. *)
let arm_1k arm () =
  let eng = E.create () in
  let fired = ref 0 in
  ignore
    (E.spawn eng ~name:"armer" (fun () ->
         for i = 1 to 1_000 do
           arm (i land 63) (fun () -> incr fired);
           E.consume 1
         done));
  E.run eng

let engine_spawn_sleep_test =
  Test.make ~name:"engine-spawn-sleep-1k"
    (Staged.stage
       (arm_1k (fun d f ->
            ignore
              (E.spawn_here (fun () ->
                   E.sleep d;
                   f ())))))

let engine_timer_test =
  Test.make ~name:"engine-timer-1k" (Staged.stage (arm_1k E.after_here))

(* One lane revolution at 64 threads: a producer publishes 256 events
   round-robin across 64 tids into a ring, whose publishes route them
   through the shared [Lanes] demux; 64 consumer tasks drain their own
   lane, parking on it when empty. This is the follower replay topology
   of a 64-thread variant reduced to its moving parts — ring publish,
   per-tid routing, per-lane wakeup, peek/advance — with the engine's
   task switching included, as in the other ring rows. *)
let ring_lanes_cycle () =
  let nthreads = 64 in
  let total = 256 in
  let eng = E.create () in
  let ring = Ring.create ~size:256 "bench-lanes" in
  let h = Ring.subscribe ring in
  let lanes =
    Lanes.create ~consumer:h
      ~classify:(fun _ -> Lanes.Free)
      ~on_route:ignore ~capacity:128
  in
  let per = total / nthreads in
  for tid = 0 to nthreads - 1 do
    ignore
      (E.spawn eng ~name:(Printf.sprintf "lane%d" tid) (fun () ->
           let got = ref 0 in
           while !got < per do
             match Lanes.peek lanes ~tid with
             | Some _ ->
               Lanes.advance lanes ~tid;
               incr got
             | None -> Lanes.wait lanes ~tid
           done))
  done;
  ignore
    (E.spawn eng ~name:"producer" (fun () ->
         for i = 0 to total - 1 do
           Ring.publish ring
             (Event.make ~tid:(i mod nthreads) ~ret:i ~clock:(i + 1) 39)
         done));
  E.run eng

let ring_lanes_test =
  Test.make ~name:"ring-lanes-t64-cycle" (Staged.stage ring_lanes_cycle)

(* One cross-node ring revolution: 256 events published into a local
   ring whose only consumer is the ring bridge, coalesced into 64-event
   batch frames, shipped over the simulated link, republished into the
   mirror ring and drained by one remote consumer. The measured unit is
   the whole simulation, as in the ring rows; the ratio of this row to
   [ring-256-c1-b64] (reported as [bridge-cycle-local-ratio]) is the
   real-cost multiplier of crossing a node boundary. The bridge's
   sender/receiver/ack tasks block forever by design, so the cycle ends
   with [run_until_quiescent], not [run]. *)
let bridge_cycle () =
  let eng = E.create () in
  let local_node = Node.create ~eng "leader-node" in
  let remote_node = Node.create ~eng "remote-node" in
  let ring = Ring.create ~size:256 "bench-local" in
  let mirror = Ring.create ~size:256 "bench-mirror" in
  let _bridge =
    Bridge.create ~local_node ~remote_node ~local:ring ~mirror
      ~cfg:{ Bridge.default_config with Bridge.batch_max = 64 }
      ~latency:500
      ~materialize:(fun e -> e)
      ~discard:ignore
      ~must_replicate:(fun _ -> true)
      ()
  in
  let h = Ring.subscribe mirror in
  ignore
    (E.spawn eng ~name:"remote-consumer" (fun () ->
         for _ = 1 to 256 do
           ignore (Ring.consume_h h)
         done));
  ignore
    (E.spawn eng ~name:"producer" (fun () ->
         for i = 1 to 256 do
           Ring.publish ring (Event.make ~clock:i ~ret:i 39)
         done));
  E.run_until_quiescent eng

let bridge_test =
  Test.make ~name:"bridge-cycle-b64" (Staged.stage bridge_cycle)

(* Not a timing: events per frame when 1,024 single publishes, 3,000
   cycles apart, cross a default-config bridge. That is about the
   spacing of ring-0 events on serve-replicated-write. A count of a
   fixed stream, so it repeats exactly. It reads 1.0 when the sender
   ships each event the moment it wakes. *)
let bridge_events_per_batch () =
  let eng = E.create () in
  let local_node = Node.create ~eng "leader-node" in
  let remote_node = Node.create ~eng "remote-node" in
  let ring = Ring.create ~size:256 "bench-local" in
  let mirror = Ring.create ~size:256 "bench-mirror" in
  let bridge =
    Bridge.create ~local_node ~remote_node ~local:ring ~mirror
      ~materialize:Fun.id ~discard:ignore
      ~must_replicate:(fun _ -> true)
      ()
  in
  let n = 1_024 in
  let h = Ring.subscribe mirror in
  ignore
    (E.spawn eng ~name:"remote-consumer" (fun () ->
         for _ = 1 to n do
           ignore (Ring.consume_h h)
         done));
  ignore
    (E.spawn eng ~name:"producer" (fun () ->
         for i = 1 to n do
           Ring.publish ring (Event.make ~clock:i ~ret:i 39);
           E.sleep 3_000
         done));
  E.run_until_quiescent eng;
  let s = Bridge.stats bridge in
  float_of_int s.Bridge.events_forwarded /. float_of_int s.Bridge.batches

let frame_payload = 4096

(* Two tasks on one kernel joined by a connected socket, the server
   echoing every frame back: the framed byte path every workload's
   requests and replies take. The returned function does one round trip,
   a 4 KiB payload out with [send_msg] and its echo back with
   [recv_msg], and runs the engine until both tasks are parked again. *)
let socket_echo () =
  let eng = E.create () in
  let k = Kernel.create eng in
  let ok = function Ok v -> v | Error _ -> failwith "socket-frame" in
  let server = Api.direct k (Kernel.new_proc k "echo") in
  let client = Api.direct k (Kernel.new_proc k "client") in
  let fd = ref (-1) in
  ignore
    (E.spawn eng ~name:"echo" (fun () ->
         let lfd = ok (Api.socket server) in
         ok (Api.bind server lfd 7070);
         ok (Api.listen server lfd);
         let c = ok (Api.accept server lfd) in
         let rec loop () =
           match Proto.recv_msg server c with
           | Ok (Some m) ->
             ok (Proto.send_msg server c m);
             loop ()
           | _ -> ()
         in
         loop ()));
  ignore
    (E.spawn eng ~name:"connect" (fun () ->
         let c = ok (Api.socket client) in
         ok (Api.connect client c 7070);
         fd := c));
  E.run_until_quiescent eng;
  let payload = Bytes.make frame_payload 'f' in
  fun () ->
    ignore
      (E.spawn eng ~name:"client" (fun () ->
           ok (Proto.send_msg client !fd payload);
           ignore (ok (Proto.recv_msg client !fd))));
    E.run_until_quiescent eng

(* Built on first use, because benchmark/micro.exe links this module. *)
let socket_frame_test =
  let round_trip = lazy (socket_echo ()) in
  Test.make ~name:"socket-frame-4KiB"
    (Staged.stage (fun () -> (Lazy.force round_trip) ()))

(* One epoll watching the read ends of [n] pipes, one of which holds a
   byte. The returned function makes 64 non-blocking epoll_wait calls
   in one task, each reporting the one ready watch. With a ready list
   the cost follows the ready watches, not the watched ones, so the
   [n = 96] and [n = 1] rows should cost about the same. *)
let epoll_wait_1of n =
  let eng = E.create () in
  let k = Kernel.create eng in
  let api = Api.direct k (Kernel.new_proc k "poller") in
  let ok = function Ok v -> v | Error _ -> failwith "epoll-wait" in
  let ep = ref (-1) in
  ignore
    (E.spawn eng ~name:"setup" (fun () ->
         let e = ok (Api.epoll_create api) in
         for i = 1 to n do
           let r, w = ok (Api.pipe api) in
           ok (Api.epoll_ctl api e Flags.epoll_ctl_add r Flags.epollin);
           if i = n then ignore (ok (Api.write_str api w "x"))
         done;
         ep := e));
  E.run_until_quiescent eng;
  fun () ->
    ignore
      (E.spawn eng ~name:"poller" (fun () ->
           for _ = 1 to 64 do
             match Api.epoll_wait api !ep ~max_events:8 ~timeout_ms:0 with
             | Ok [ _ ] -> ()
             | _ -> failwith "epoll-wait"
           done));
    E.run_until_quiescent eng

(* Built on first use, like the socket rows. *)
let epoll_wait_1of1 = lazy (epoll_wait_1of 1)
let epoll_wait_1of96 = lazy (epoll_wait_1of 96)

let epoll_wait_tests =
  List.map
    (fun (name, f) ->
      Test.make ~name (Staged.stage (fun () -> (Lazy.force f) ())))
    [ ("epoll-wait-1of1", epoll_wait_1of1); ("epoll-wait-1of96", epoll_wait_1of96) ]

(* Host bytes allocated so far. The runtime's allocation counters trail
   by one minor collection, so each reading forces two. *)
let allocated_bytes () =
  Gc.minor ();
  Gc.minor ();
  let s = Gc.quick_stat () in
  float_of_int (Sys.word_size / 8)
  *. (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)

(* Not a timing: host bytes allocated by one [socket-frame-4KiB] round
   trip over the bytes of its two frames. Each hop's floor is three
   copies of its frame: [send_msg] framing the payload, the kernel's
   copy of the user buffer on write, and its copy out to the reader; the
   rest is the system calls' and the client task's own records. *)
let socket_frame_copy_ratio () =
  let round_trip = socket_echo () in
  round_trip ();
  let n = 64 in
  let before = allocated_bytes () in
  for _ = 1 to n do
    round_trip ()
  done;
  (allocated_bytes () -. before)
  /. float_of_int (n * 2 * (Proto.header_len + frame_payload))

(* Not a timing: host bytes allocated by one [rewriter-30kB-image] cold
   rewrite over the image's bytes, counted like the frame ratio above.
   The scan reads lengths, syscalls and branch targets straight off the
   bytes and keeps nothing per instruction but a target byte, and the
   text is copied once, into the final image (8.87x). A patched copy
   and a rebased copy read 11.0x, a decoded value per instruction
   128.3x, and two sweeps that each built an item list ~388x. *)
let rewriter_alloc_ratio () =
  let code = Lazy.force rewrite_code in
  let before = allocated_bytes () in
  ignore (Rewriter.rewrite code);
  (allocated_bytes () -. before) /. float_of_int (Bytes.length code)

(* Not a timing: host bytes allocated by one [codegen-100kB-image] over
   the bytes of the image it generates. The floor is the image itself
   plus the growable buffer it is cut from; a record or a boxed draw
   per instruction costs several times the image. *)
let codegen_alloc_ratio () =
  let before = allocated_bytes () in
  let code = codegen_image () in
  (allocated_bytes () -. before) /. float_of_int (Bytes.length code)

(* The kernel of benchmark/calib.ml at a hundredth of its size:
   effect-handler task switches, hash-table churn and short-lived
   allocation, in stdlib code only. It prices the host, not this
   repository, so the absolute engine rows are gated as ratios to it
   and a host that slows every process slows both sides alike. *)
type _ Effect.t += Calib_yield : unit Effect.t

let calib_fibers n steps =
  let ready = Queue.create () in
  let handler =
    {
      Effect.Deep.retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Calib_yield ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                Queue.push (fun () -> Effect.Deep.continue k ()) ready)
          | _ -> None);
    }
  in
  for _ = 1 to n do
    Queue.push
      (fun () ->
        Effect.Deep.match_with
          (fun () ->
            for _ = 1 to steps do
              Effect.perform Calib_yield
            done)
          () handler)
      ready
  done;
  while not (Queue.is_empty ready) do
    (Queue.pop ready) ()
  done

let calib_churn n =
  let h = Hashtbl.create 1024 in
  for i = 1 to n do
    Hashtbl.replace h (i land 8191) (string_of_int i);
    if i land 3 = 0 then Hashtbl.remove h ((i * 7) land 8191)
  done;
  ignore
    (List.sort compare (List.init (n / 4) (fun i -> (i * 7919) land 65535)))

let calib_kernel () =
  calib_fibers 64 20;
  calib_churn 2_000

let calib_test = Test.make ~name:"calib-kernel" (Staged.stage calib_kernel)

let now_ns () = Toolkit.Monotonic_clock.get ()

(* ns per call of [f] over a batch of [n] calls. *)
let batch_ns n f =
  let t = now_ns () in
  for _ = 1 to n do
    f ()
  done;
  (now_ns () -. t) /. float_of_int n

(* The median over 21 samples of [f]'s time per call over [g]'s, each
   side timed right after the other in batches of about a millisecond.
   A load burst on a shared host then slows both sides of a sample
   alike, where rows timed one after the other can each catch a
   different burst; the median drops the samples a burst split. *)
let paired_ratio f g =
  let size h =
    let n = ref 1 in
    while batch_ns !n h *. float_of_int !n < 1e6 do
      n := 2 * !n
    done;
    !n
  in
  let nf = size f and ng = size g in
  let r =
    Array.init 21 (fun i ->
        if i land 1 = 0 then
          let a = batch_ns nf f in
          a /. batch_ns ng g
        else
          let b = batch_ns ng g in
          batch_ns nf f /. b)
  in
  Array.sort compare r;
  r.(10)

let tests =
  [
    calib_test;
    bpf_test;
    bpf_compiled_test;
    rewriter_test;
    rewriter_cached_test;
    codegen_test;
    pool_test;
    pool_read_into_test;
  ]
  @ ring_tests
  @ rejoin_tests
  @ [
      engine_test; engine_traced_test; engine_direct_test; engine_chain_test;
      engine_herd_test;
      engine_heap_test; engine_same_time_test; engine_spawn_sleep_test;
      engine_timer_test; ring_lanes_test; bridge_test; socket_frame_test;
    ]
  @ epoll_wait_tests

let smoke = Sys.getenv_opt "VARAN_BENCH_SMOKE" <> None

(* Minor words allocated by one [Cond.broadcast] with [nwaiters] parked
   tasks. The wake entries come from the scheduler's slab of free slots,
   so the cost must not scale with the waiter count — the old
   implementation Queue.copy'd the waiter queue per broadcast, which a
   64-waiter run exposes immediately. *)
let broadcast_alloc_words nwaiters =
  let eng = E.create () in
  let c = E.Cond.create "bcast" in
  for _ = 1 to nwaiters do
    ignore (E.spawn eng (fun () -> E.Cond.wait c))
  done;
  let words = ref 0.0 in
  ignore
    (E.spawn eng (fun () ->
         E.consume 10;
         let before = Gc.minor_words () in
         E.Cond.broadcast c;
         words := Gc.minor_words () -. before));
  E.run eng;
  !words

let check_broadcast_allocation () =
  let w2 = broadcast_alloc_words 2 in
  let w64 = broadcast_alloc_words 64 in
  Printf.printf
    "  broadcast allocation: %.0f minor words @2 waiters, %.0f @64\n" w2 w64;
  if w64 > w2 +. 64.0 then begin
    Printf.printf
      "  FAIL: broadcast allocates per waiter (+%.0f words for 62 extra \
       waiters)\n"
      (w64 -. w2);
    exit 1
  end

let run () =
  print_endline
    "=== Real wall-clock microbenchmarks of the implementation (Bechamel) \
     ===\n";
  if smoke then print_endline "  (smoke mode: reduced measurement quota)\n";
  let instance = Instance.monotonic_clock in
  let cfg =
    if smoke then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.02) ()
    else Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"" [ test ])
      in
      Hashtbl.iter
        (fun name raw ->
          let name =
            if String.length name > 0 && name.[0] = '/' then
              String.sub name 1 (String.length name - 1)
            else name
          in
          let est = Analyze.one ols instance raw in
          (match Analyze.OLS.estimates est with
          | Some [ ns ] ->
            Printf.printf "  %-28s %12.0f ns/run\n" name ns;
            estimates := (name, ns) :: !estimates
          | _ -> Printf.printf "  %-28s (no estimate)\n" name);
          ignore raw)
        results)
    tests;
  (* Not a timing: resident tape bytes per retained event at steady
     state, reported through the same JSON so CI can track it. *)
  let bpe = tape_bytes_per_event () in
  Printf.printf "  %-28s %12.1f bytes/event (resident, retained window)\n"
    "tape-bytes-per-event" bpe;
  estimates := ("tape-bytes-per-event", bpe) :: !estimates;
  let epb = bridge_events_per_batch () in
  Printf.printf "  %-28s %12.2f events/frame (single publishes, 3k apart)\n"
    "bridge-events-per-batch" epb;
  estimates := ("bridge-events-per-batch", epb) :: !estimates;
  let copies = socket_frame_copy_ratio () in
  Printf.printf "  %-28s %12.2f x (host bytes allocated / frame bytes)\n"
    "socket-frame-copy-ratio" copies;
  estimates := ("socket-frame-copy-ratio", copies) :: !estimates;
  let rewrite_alloc = rewriter_alloc_ratio () in
  Printf.printf "  %-28s %12.1f x (host bytes allocated / image bytes)\n"
    "rewriter-30kB-alloc-ratio" rewrite_alloc;
  estimates := ("rewriter-30kB-alloc-ratio", rewrite_alloc) :: !estimates;
  let codegen_alloc = codegen_alloc_ratio () in
  Printf.printf "  %-28s %12.2f x (host bytes allocated / image bytes)\n"
    "codegen-100kB-alloc-ratio" codegen_alloc;
  estimates := ("codegen-100kB-alloc-ratio", codegen_alloc) :: !estimates;
  (* Derived: how much more a cross-node revolution costs than the same
     revolution on a local ring. Batching should keep this a small
     constant; a blowup means the bridge is doing per-event work. *)
  (match
     ( List.assoc_opt "bridge-cycle-b64" !estimates,
       List.assoc_opt "ring-256-c1-b64" !estimates )
   with
  | Some bridge_ns, Some ring_ns when ring_ns > 0.0 ->
    let ratio = bridge_ns /. ring_ns in
    Printf.printf "  %-28s %12.1f x (vs ring-256-c1-b64)\n"
      "bridge-cycle-local-ratio" ratio;
    estimates := ("bridge-cycle-local-ratio", ratio) :: !estimates
  | _ -> ());
  (* Derived: the cost of actually recording spans, per task switch.
     (The cost of the *disabled* instrumentation is what the CI overhead
     gate tracks, via the plain engine-1k-task-switches row.) *)
  (match
     ( List.assoc_opt "engine-1k-task-switches-traced" !estimates,
       List.assoc_opt "engine-1k-task-switches" !estimates )
   with
  | Some traced_ns, Some plain_ns when plain_ns > 0.0 ->
    let ratio = traced_ns /. plain_ns in
    Printf.printf "  %-28s %12.2f x (vs untraced)\n" "trace-enabled-ratio"
      ratio;
    estimates := ("trace-enabled-ratio", ratio) :: !estimates
  | _ -> ());
  (match
     ( List.assoc_opt "engine-timer-1k" !estimates,
       List.assoc_opt "engine-spawn-sleep-1k" !estimates )
   with
  | Some timer_ns, Some spawn_ns when spawn_ns > 0.0 ->
    let ratio = timer_ns /. spawn_ns in
    Printf.printf "  %-28s %12.2f x (vs spawn+sleep)\n"
      "engine-timer-spawn-ratio" ratio;
    estimates := ("engine-timer-spawn-ratio", ratio) :: !estimates
  | _ -> ());
  (match
     ( List.assoc_opt "engine-herd-timed-wait" !estimates,
       List.assoc_opt "engine-ready-ring-chain-1k" !estimates )
   with
  | Some herd_ns, Some chain_ns when chain_ns > 0.0 ->
    let ratio = herd_ns /. chain_ns in
    Printf.printf "  %-28s %12.1f x (vs engine-ready-ring-chain-1k)\n"
      "engine-herd-chain-ratio" ratio;
    estimates := ("engine-herd-chain-ratio", ratio) :: !estimates
  | _ -> ());
  (match
     ( List.assoc_opt "engine-heap-512" !estimates,
       List.assoc_opt "engine-ready-ring-chain-1k" !estimates )
   with
  | Some heap_ns, Some chain_ns when chain_ns > 0.0 ->
    let ratio = heap_ns /. chain_ns in
    Printf.printf "  %-28s %12.2f x (vs engine-ready-ring-chain-1k)\n"
      "engine-heap-chain-ratio" ratio;
    estimates := ("engine-heap-chain-ratio", ratio) :: !estimates
  | _ -> ());
  (* Paired ratios, timed here rather than derived from two rows: the
     host-bound engine rows over the calibration kernel, so their gates
     hold on a host that slows every process, same-time dispatch over
     distinct-time dispatch, and an epoll_wait over 96 watches over one
     over a single watch. *)
  List.iter
    (fun (name, f, g, base) ->
      let ratio = paired_ratio f g in
      Printf.printf "  %-28s %12.4f x (vs %s, paired)\n" name ratio base;
      estimates := (name, ratio) :: !estimates)
    [
      ("engine-1k-calib-ratio", engine_1k, calib_kernel, "calib-kernel");
      ("engine-direct-calib-ratio", engine_direct, calib_kernel, "calib-kernel");
      ("engine-chain-calib-ratio", engine_chain, calib_kernel, "calib-kernel");
      ( "engine-same-time-heap-ratio",
        engine_same_time,
        engine_heap,
        "engine-heap-512" );
      ( "epoll-wait-watch-ratio",
        Lazy.force epoll_wait_1of96,
        Lazy.force epoll_wait_1of1,
        "epoll-wait-1of1" );
    ];
  check_broadcast_allocation ();
  Report.save_hotpath_json (List.rev !estimates);
  print_newline ()
