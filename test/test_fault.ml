(* Torture tests over NVX failover and replay: deterministic fault plans
   (crashes, stalls, ring pressure, signal bursts, fork splices) injected
   into random syscall programs, with the trace-invariant oracle attached
   to every ring. Each case asserts the full harness check: surviving
   variants observably equal the native run, every crash was planned,
   the oracle report is clean, and a live leader holds the role. *)

module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Ring = Varan_ringbuf.Ring
module Nvx = Varan_nvx.Session
module Config = Varan_nvx.Config
module Variant = Varan_nvx.Variant
module RR = Varan_nvx.Record_replay
module Fault = Varan_fault.Plan
module Oracle = Varan_trace.Oracle
module Lifecycle = Varan_nvx.Lifecycle
module Prng = Varan_util.Prng
module H = Varan_torture.Harness
module P = Gen_programs

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let check_case_exn label case out =
  match H.check case out with
  | [] -> ()
  | fails ->
    Alcotest.failf "%s: %s\n  %s" label
      (H.describe_case case)
      (String.concat "\n  " fails)

(* One seed's contribution to a sweep fingerprint: its JSON report and
   the per-variant cycle and consumption counters, which the report does
   not carry. *)
let fingerprint_seed buf case out =
  Buffer.add_string buf (H.json_of_outcome ~fails:[] case out);
  Array.iter
    (fun (v : Nvx.variant_stats) ->
      Printf.bprintf buf "|%Ld %Ld %Ld %d" v.Nvx.vs_sys_cycles
        v.Nvx.vs_stall_cycles v.Nvx.vs_wait_charge_cycles
        v.Nvx.vs_events_consumed)
    out.H.stats.Nvx.variants;
  Buffer.add_char buf '\n'

(* Run [cases] consecutive seeds from [base] through the preset [gen]:
   every case must pass the harness check, and a failure names the
   [varan torture] flags that reproduce it. [observe] tallies what the
   sweep exercised, for its coverage asserts. Every seed's outcome folds
   into one MD5 that must equal [fingerprint]: the virtual behaviour of
   a sweep is pinned byte for byte, so a change that moves any cycle
   count, digest or lifecycle counter must re-baseline it on purpose. *)
let sweep ~flags ~fingerprint ~base ~cases gen observe =
  let buf = Buffer.create 65536 in
  for seed = base to base + cases - 1 do
    let case = gen seed in
    let out = H.run case in
    (match H.check case out with
    | [] -> ()
    | fs ->
      Alcotest.failf
        "seed %d failed (reproduce: varan torture %s--seed %d)\n  %s\n  %s"
        seed (flags case) seed (H.describe_case case)
        (String.concat "\n  " fs));
    fingerprint_seed buf case out;
    observe case out
  done;
  Alcotest.(check string)
    "sweep fingerprint" fingerprint
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ------------------------------------------------------------------ *)
(* Directed scenarios                                                  *)
(* ------------------------------------------------------------------ *)

let directed_case ?lifecycle ?net ~seed ~followers ~plan ops =
  {
    H.seed;
    workload = H.Ops ops;
    followers;
    shards = 1;
    ring_size = 8;
    plan;
    lifecycle;
    net;
  }

let oracle_of out =
  match out.H.report with
  | Some r -> r
  | None -> Alcotest.fail "no oracle report"

(* A workload whose every phase publishes events, including >48-byte
   payloads that travel through the shared-memory pool. *)
let payload_ops n =
  P.Open "/dev/zero"
  :: List.concat
       (List.init n (fun i ->
            [
              P.Read_newest 600;
              P.Write_newest 300;
              P.Stat "/dev/null";
              P.Create_tmp (i mod 4);
              P.Getuid;
            ]))

let test_leader_crash_during_publish () =
  let case =
    directed_case ~seed:101 ~followers:2
      ~plan:[ Fault.Crash_variant { idx = 0; at_seq = 7 } ] (payload_ops 8)
  in
  let out = H.run case in
  check_case_exn "leader crash" case out;
  Alcotest.(check (list int)) "leader crashed" [ 0 ] (List.map fst out.H.crashes);
  Alcotest.(check bool) "a follower was promoted" true
    ((oracle_of out).Oracle.promotions >= 1);
  Alcotest.(check bool) "new leader is alive" true
    (out.H.leader_idx <> 0 && out.H.alive.(out.H.leader_idx))

let test_follower_stall_at_full_ring () =
  let case =
    directed_case ~seed:102 ~followers:1
      ~plan:
        [
          Fault.Ring_pressure { shrink_to = 1 };
          Fault.Stall_follower { idx = 1; at_seq = 3; delay = 30_000 };
        ]
      (payload_ops 6)
  in
  let out = H.run case in
  check_case_exn "stall at full ring" case out;
  let producer_stalls =
    Array.fold_left
      (fun acc (r : Ring.stats) -> acc + r.Ring.producer_stalls)
      0 out.H.stats.Nvx.rings
  in
  Alcotest.(check bool) "single-slot ring stalled the leader" true
    (producer_stalls > 0)

let test_fork_then_crash () =
  let ops =
    P.splice_forks (Prng.create 7) (List.map P.sanitize_for_fork (payload_ops 6))
      ~at:[ 4 ]
  in
  let case =
    directed_case ~seed:103 ~followers:2
      ~plan:[ Fault.Crash_variant { idx = 0; at_seq = 15 } ] ops
  in
  let out = H.run case in
  check_case_exn "fork then crash" case out;
  Alcotest.(check bool) "fork created a second tuple" true
    ((oracle_of out).Oracle.tuples >= 2);
  Alcotest.(check (list int)) "leader crashed" [ 0 ]
    (List.map fst out.H.crashes)

(* Regression: with the leader and then every follower crashing in index
   order, each election must skip variants that died while a previous
   failover was still in flight — a stale decision would hand the leader
   role to a dead variant and strand the survivor. *)
let test_cascading_crashes_in_index_order () =
  let case =
    directed_case ~seed:104 ~followers:3
      ~plan:
        [
          Fault.Crash_variant { idx = 0; at_seq = 4 };
          Fault.Crash_variant { idx = 1; at_seq = 6 };
          Fault.Crash_variant { idx = 2; at_seq = 8 };
        ]
      (payload_ops 8)
  in
  let out = H.run case in
  check_case_exn "cascading crashes" case out;
  Alcotest.(check int) "last variant leads" 3 out.H.leader_idx;
  Alcotest.(check bool) "and is alive" true out.H.alive.(3);
  Alcotest.(check int) "three crashes" 3 (List.length out.H.crashes)

(* Every follower crashes, in index order, while the leader survives:
   failover must never fire, and the leader must keep running to the end
   with its consumers torn down cleanly. *)
let test_all_followers_crash () =
  let case =
    directed_case ~seed:105 ~followers:3
      ~plan:
        [
          Fault.Crash_variant { idx = 1; at_seq = 3 };
          Fault.Crash_variant { idx = 2; at_seq = 5 };
          Fault.Crash_variant { idx = 3; at_seq = 7 };
        ]
      (payload_ops 8)
  in
  let out = H.run case in
  check_case_exn "all followers crash" case out;
  Alcotest.(check int) "leader unchanged" 0 out.H.leader_idx;
  Alcotest.(check int) "no promotions" 0 (oracle_of out).Oracle.promotions

(* Figure 5's "pure interception" configuration: with zero followers the
   leader records nothing, so the stream machinery must cost nothing —
   no producer stalls, and no publish-side wakeups (nobody is ever
   parked on the ring). *)
let test_zero_followers_pay_no_streaming_costs () =
  let case = directed_case ~seed:107 ~followers:0 ~plan:[] (payload_ops 8) in
  let out = H.run case in
  check_case_exn "zero followers" case out;
  Array.iter
    (fun (r : Ring.stats) ->
      Alcotest.(check int) "no producer stalls" 0 r.Ring.producer_stalls;
      Alcotest.(check int) "no consumer wakeups" 0 r.Ring.publish_wakeups;
      Alcotest.(check int) "nothing streamed" 0 r.Ring.publishes)
    out.H.stats.Nvx.rings

(* Negative control: a deliberate payload-reference leak must be caught,
   proving the oracle's pool-balance invariant is not vacuous. *)
let test_drop_payload_negative_control () =
  let case =
    directed_case ~seed:106 ~followers:1
      ~plan:[ Fault.Drop_payload_grant { idx = 1; at_seq = 2 } ] (payload_ops 4)
  in
  let out = H.run case in
  Alcotest.(check bool) "oracle flags the leak" false (Oracle.ok (oracle_of out));
  Alcotest.(check bool) "as an outstanding payload" true
    ((oracle_of out).Oracle.outstanding_payloads > 0)

(* The one place a plan meets a case: an injection aimed at a variant
   the case does not run is refused — whether it came from an explicit
   plan or from a preset whose follower count was overridden — and a
   distributed case always keeps a local follower. *)
let test_plan_meets_case () =
  let refused label case =
    match H.validate case with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: accepted %s" label (H.describe_case case)
  in
  let crash idx = Fault.Crash_variant { idx; at_seq = 3 } in
  refused "victim past the variants"
    { (H.gen_case 7) with H.followers = 1; plan = [ crash 7 ] };
  refused "link fault without a link"
    { (H.gen_case 7) with H.plan = [ Fault.Link_drop { at_seq = 1 } ] };
  refused "a plan on a pool" { (H.gen_shard_case 7) with H.plan = [ crash 1 ] };
  for seed = 1 to 50 do
    refused "no local follower" (H.with_followers (H.gen_net_case seed) 1);
    match (H.with_followers (H.gen_net_case seed) 2).H.net with
    | Some n ->
      Alcotest.(check int) "one remote, one local" 1 n.Config.remote_followers
    | None -> Alcotest.fail "the override dropped the link"
  done;
  (* A futex case takes a plan, and the injection fires. *)
  let case = { (H.gen_futex_case 7) with H.plan = [ crash 1 ] } in
  let out = H.run case in
  check_case_exn "futex plan" case out;
  Alcotest.(check (list int)) "the planned crash fired" [ 1 ]
    (List.map fst out.H.crashes)

(* ------------------------------------------------------------------ *)
(* Follower lifecycle: quarantine, rejoin, degradation                 *)
(* ------------------------------------------------------------------ *)

let lc = H.lifecycle_policy

let lifecycle_of out =
  match out.H.lifecycle with
  | Some r -> r
  | None -> Alcotest.fail "no lifecycle report"

(* Satellite regression pinning [Stall_follower] semantics: the slot
   triggers on the first pre-consume position >= at_seq and burns — one
   armed stall is exactly one sleep, never one per event past at_seq. *)
let test_stall_fires_once () =
  let case =
    directed_case ~seed:110 ~followers:1
      ~plan:[ Fault.Stall_follower { idx = 1; at_seq = 3; delay = 30_000 } ]
      (payload_ops 6)
  in
  let out = H.run case in
  check_case_exn "stall fires once" case out;
  Alcotest.(check int) "exactly one stall hit the victim" 1
    out.H.stats.Nvx.variants.(1).Nvx.vs_injected_stalls;
  Alcotest.(check int) "none hit the leader" 0
    out.H.stats.Nvx.variants.(0).Nvx.vs_injected_stalls

(* A follower sleeping an order of magnitude past the stall timeout is
   quarantined by the watchdog, respawned, replays the tape and splices
   back into the live ring — ending healthy with the native digest,
   having never blocked the leader on its retired consumers. *)
let test_quarantine_then_rejoin () =
  let case =
    directed_case ~lifecycle:lc ~seed:111 ~followers:2
      ~plan:[ Fault.Stall_follower { idx = 1; at_seq = 4; delay = 2_000_000 } ]
      (payload_ops 10)
  in
  let out = H.run case in
  check_case_exn "quarantine then rejoin" case out;
  let r = lifecycle_of out in
  Alcotest.(check bool) "victim was quarantined" true
    (r.Lifecycle.quarantines >= 1);
  Alcotest.(check bool) "and respawned" true (r.Lifecycle.respawns >= 1);
  Alcotest.(check bool) "and rejoined" true (r.Lifecycle.rejoins >= 1);
  Alcotest.(check int) "one incarnation consumed" 1
    out.H.stats.Nvx.variants.(1).Nvx.vs_incarnation;
  Alcotest.(check string) "victim digest equals native" out.H.natives.(0)
    out.H.digests.(1);
  Alcotest.(check int) "leader never gated on the quarantined consumer" 0
    (oracle_of out).Oracle.gate_waits_on_quarantined

(* Satellite regression for the spawn fast path: every variant in the
   harness shares the default code profile, so the session rewrites its
   image cold exactly once — the other replicas at startup and the
   respawned incarnation (which shares the zygote's unchanged pristine
   image) are all content-addressed cache hits served by rebase. *)
let test_respawn_uses_rewrite_cache () =
  let module RC = Varan_binary.Rewrite_cache in
  let case =
    directed_case ~lifecycle:lc ~seed:111 ~followers:2
      ~plan:[ Fault.Stall_follower { idx = 1; at_seq = 4; delay = 2_000_000 } ]
      (payload_ops 10)
  in
  let out = H.run case in
  check_case_exn "respawn fast path" case out;
  Alcotest.(check int) "one respawn happened" 1
    out.H.stats.Nvx.variants.(1).Nvx.vs_incarnation;
  let rc = out.H.stats.Nvx.rewrite_cache in
  Alcotest.(check int) "exactly one cold rewrite" 1 rc.RC.misses;
  Alcotest.(check int) "every other launch hit the cache" 3 rc.RC.hits;
  Alcotest.(check int) "hits are served by rebase" 3 rc.RC.rebases;
  (* Launch and respawn all forked one pristine image, and neither
     rewrite wrote to it. *)
  let p = Varan_nvx.Variant.default_profile in
  let fresh =
    Varan_binary.Codegen.profile_image
      (Varan_util.Prng.create p.Varan_nvx.Variant.code_seed)
      ~code_bytes:p.Varan_nvx.Variant.code_bytes
      ~syscall_share:p.Varan_nvx.Variant.syscall_share
  in
  Alcotest.(check int) "one pristine generation" 1
    out.H.stats.Nvx.pristine_generations;
  Alcotest.(check (option string)) "pristine bytes keep their digest"
    (Some (Digest.to_hex (Digest.bytes fresh)))
    (Option.map
       (fun b -> Digest.to_hex (Digest.bytes b))
       (Nvx.pristine_image out.H.session p));
  (* The victim prepared its image twice (launch + respawn), the leader
     and the untouched follower once each — and every preparation's
     wall-clock latency was recorded. *)
  Array.iteri
    (fun i vs ->
      Alcotest.(check int)
        (Printf.sprintf "variant %d image preparations" i)
        (if i = 1 then 2 else 1)
        vs.Nvx.vs_spawn_preps;
      Alcotest.(check bool)
        (Printf.sprintf "variant %d spawn latency recorded" i)
        true (vs.Nvx.vs_spawn_ns > 0.))
    out.H.stats.Nvx.variants

(* Two stalls on the same follower with a respawn budget of one: the
   second incarnation trips the watchdog again and the follower is
   declared dead after exactly max_restarts backed-off attempts, while
   the untouched follower finishes with the native digest. *)
let test_dead_after_restart_budget () =
  let policy = { lc with Lifecycle.max_restarts = 1 } in
  let case =
    directed_case ~lifecycle:policy ~seed:112 ~followers:2
      ~plan:
        [
          Fault.Stall_follower { idx = 1; at_seq = 3; delay = 2_000_000 };
          Fault.Stall_follower { idx = 1; at_seq = 9; delay = 2_000_000 };
        ]
      (payload_ops 10)
  in
  let out = H.run case in
  check_case_exn "dead after budget" case out;
  let r = lifecycle_of out in
  let fr1 =
    List.find (fun fr -> fr.Lifecycle.fr_idx = 1) r.Lifecycle.followers
  in
  Alcotest.(check bool) "victim is dead" true
    (fr1.Lifecycle.fr_state = Lifecycle.Dead);
  Alcotest.(check int) "after exactly max_restarts respawns" 1
    fr1.Lifecycle.fr_restarts;
  Alcotest.(check string) "sibling digest equals native" out.H.natives.(0)
    out.H.digests.(2);
  Alcotest.(check (option string)) "session not degraded" None out.H.degraded

(* The flight recorder's contract: when an armed session kills a
   follower (quarantine watchdog, budget exhausted), a post-mortem
   bundle lands on disk carrying the recent-event window, the full
   lifecycle transition history and the newest checkpoint position —
   enough to localize the failure without rerunning the workload. *)
let test_quarantine_kill_dumps_postmortem () =
  let module Flight = Varan_obs.Flight in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "varan-pm-test" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Flight.dump_enabled := true;
  Flight.dump_dir := dir;
  Fun.protect
    ~finally:(fun () ->
      Flight.dump_enabled := false;
      Flight.dump_dir := ".")
    (fun () ->
      (* Budget of one + two long stalls + checkpointing: the victim is
         quarantined, respawns from a checkpoint, stalls again and dies
         — the death fires the dump with a checkpoint seq on record. *)
      let policy =
        { lc with Lifecycle.max_restarts = 1;
                  Lifecycle.checkpoint_interval = 20_000 }
      in
      let case =
        directed_case ~lifecycle:policy ~seed:112 ~followers:2
          ~plan:
            [
              Fault.Stall_follower { idx = 1; at_seq = 3; delay = 2_000_000 };
              Fault.Stall_follower { idx = 1; at_seq = 9; delay = 2_000_000 };
            ]
          (payload_ops 10)
      in
      let out = H.run case in
      check_case_exn "quarantine kill" case out;
      let bundle =
        match !Flight.last_dump with
        | Some p -> p
        | None -> Alcotest.fail "no post-mortem bundle was written"
      in
      Alcotest.(check bool) "bundle is in the armed directory" true
        (Filename.dirname bundle = dir);
      let ic = open_in bundle in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      (* The recent-event window captured both watchdog verdicts... *)
      Alcotest.(check bool) "events include the quarantine" true
        (contains ~sub:"lifecycle.quarantine" body);
      (* ...the transition history shows the full descent... *)
      Alcotest.(check bool) "transition into Quarantined recorded" true
        (contains ~sub:"\"to\": \"quarantined\"" body);
      Alcotest.(check bool) "transition into Dead recorded" true
        (contains ~sub:"\"to\": \"dead\"" body);
      (* ...and the newest-at-dump-time checkpoint position is on
         record (the session keeps checkpointing after the dump, so the
         recorder's final seq may be newer still). *)
      let bundle_seq =
        let key = "\"checkpoint_seq\": " in
        let rec find i =
          if i + String.length key > String.length body then
            Alcotest.fail "bundle has no checkpoint_seq field"
          else if String.sub body i (String.length key) = key then begin
            let j = ref (i + String.length key) in
            let start = !j in
            while !j < String.length body
                  && (body.[!j] = '-' || (body.[!j] >= '0' && body.[!j] <= '9'))
            do
              incr j
            done;
            int_of_string (String.sub body start (!j - start))
          end
          else find (i + 1)
        in
        find 0
      in
      Alcotest.(check bool) "bundle noted a checkpoint" true (bundle_seq >= 0);
      let fl = Nvx.flight out.H.session in
      Alcotest.(check bool) "recorder's final seq is no older" true
        (Flight.checkpoint_seq fl >= bundle_seq);
      (* The in-memory recorder agrees with what was serialized. *)
      Alcotest.(check bool) "recorder kept a transition history" true
        (List.length (Flight.transitions fl) >= 2);
      Alcotest.(check bool) "recorder kept recent events" true
        (Flight.entries fl <> []))

(* Satellite: losing every follower degrades the session to native-speed
   leader-only execution with a reported reason — never an escaping
   exception. *)
let test_degrade_all_followers_dead () =
  let case =
    directed_case ~seed:113 ~followers:1
      ~plan:[ Fault.Crash_variant { idx = 1; at_seq = 3 } ]
      (payload_ops 6)
  in
  let out = H.run case in
  check_case_exn "all followers dead" case out;
  Alcotest.(check (option string)) "degraded with reason"
    (Some "all followers dead") out.H.degraded;
  Alcotest.(check bool) "leader finished" true out.H.alive.(0);
  Alcotest.(check string) "leader digest equals native" out.H.natives.(0)
    out.H.digests.(0)

(* Satellite: the leader crashing with no electable candidate left must
   also surface as degradation, not a Divergence_kill escaping the
   engine. *)
let test_degrade_no_leader_remains () =
  let case =
    directed_case ~seed:114 ~followers:1
      ~plan:
        [
          Fault.Crash_variant { idx = 1; at_seq = 3 };
          Fault.Crash_variant { idx = 0; at_seq = 6 };
        ]
      (payload_ops 6)
  in
  let out = H.run case in
  check_case_exn "no leader remains" case out;
  Alcotest.(check (option string)) "degraded with reason"
    (Some "no leader remains") out.H.degraded;
  Alcotest.(check bool) "nobody survived" false (Array.exists Fun.id out.H.alive)

(* The 200-seed lifecycle sweep: follower-only stalls past the watchdog
   timeout plus occasional follower crashes. Every quarantined follower
   either rejoins with a digest identical to native or dies after
   exactly its respawn budget, and the leader's gate never waits on a
   quarantined consumer (the harness check enforces all of it per seed). *)
let lifecycle_base_seed = 0xFACE
let lifecycle_sweep_cases = 200

let test_lifecycle_sweep () =
  let quarantines = ref 0 and rejoins = ref 0 in
  sweep
    ~fingerprint:"5dae135a55c9a3ad0b55e91483fb1fdb"
    ~flags:(fun _ -> "--lifecycle ")
    ~base:lifecycle_base_seed ~cases:lifecycle_sweep_cases H.gen_lifecycle_case
    (fun _ out ->
      let r = lifecycle_of out in
      quarantines := !quarantines + r.Lifecycle.quarantines;
      rejoins := !rejoins + r.Lifecycle.rejoins);
  (* The sweep must actually exercise the recovery machinery. *)
  Alcotest.(check bool) "sweep quarantined followers" true (!quarantines > 0);
  Alcotest.(check bool) "sweep rejoined followers" true (!rejoins > 0)

(* ------------------------------------------------------------------ *)
(* Checkpoint/restore fast rejoin                                      *)
(* ------------------------------------------------------------------ *)

module CK = Varan_nvx.Checkpoint
module Tape = Varan_nvx.Tape

(* A workload with compute phases long enough that the watchdog's armed
   checkpoints land at op boundaries well before the injected stalls —
   every respawn then has a snapshot to restore. *)
let compute_heavy_ops n =
  P.Open "/dev/zero"
  :: List.concat
       (List.init n (fun i ->
            [
              P.Compute 20_000;
              P.Read_newest 600;
              P.Write_newest 300;
              P.Create_tmp (i mod 4);
              P.Getuid;
            ]))

let ck_policy interval = { lc with Lifecycle.checkpoint_interval = interval }

(* Satellite regression mirroring the rewrite cache's "1 cold rewrite +
   N rebases": with checkpointing on, each of the victim's two respawns
   restores a checkpoint instead of replaying the whole tape, and the
   combined delta stays a fraction of two full replays. *)
let test_respawn_reuses_checkpoints () =
  let case =
    directed_case
      ~lifecycle:(ck_policy 20_000)
      ~seed:115 ~followers:2
      ~plan:
        [
          Fault.Stall_follower { idx = 1; at_seq = 8; delay = 2_000_000 };
          Fault.Stall_follower { idx = 1; at_seq = 18; delay = 2_000_000 };
        ]
      (compute_heavy_ops 16)
  in
  let out = H.run case in
  check_case_exn "checkpointed respawns" case out;
  let r = lifecycle_of out in
  Alcotest.(check int) "two respawns" 2
    out.H.stats.Nvx.variants.(1).Nvx.vs_incarnation;
  (* A restore landing exactly on the splice head has no catch-up phase
     to complete, so it shows up as a restore without a counted rejoin —
     at least one of the two respawns replays a real delta. *)
  Alcotest.(check bool) "at least one counted rejoin" true
    (r.Lifecycle.rejoins >= 1);
  let fr1 =
    List.find (fun fr -> fr.Lifecycle.fr_idx = 1) r.Lifecycle.followers
  in
  Alcotest.(check bool) "victim ends healthy" true
    (fr1.Lifecycle.fr_state = Lifecycle.Healthy);
  Alcotest.(check int) "after both restarts" 2 fr1.Lifecycle.fr_restarts;
  let ck = out.H.stats.Nvx.checkpoints in
  Alcotest.(check bool) "checkpoints were taken" true (ck.CK.taken > 0);
  Alcotest.(check int) "every respawn restored a checkpoint" 2 ck.CK.restores;
  let tape_len =
    match Nvx.tuple_tape out.H.session 0 with
    | Some tape -> Tape.length tape
    | None -> Alcotest.fail "no tape"
  in
  (* Two full-tape replays would cost ~2*tape_len delta events; the
     checkpointed rejoins must replay strictly less than one tape's
     worth combined. *)
  Alcotest.(check bool)
    (Printf.sprintf "delta %d bounded by tape %d" ck.CK.delta_events tape_len)
    true
    (ck.CK.delta_events < tape_len);
  Alcotest.(check string) "victim digest equals native" out.H.natives.(0)
    out.H.digests.(1)

(* Satellite edge: a session whose checkpoint interval never elapses
   takes no snapshots, and every rejoin falls back to the full-tape
   replay — bit-identical to the pre-checkpoint behaviour. *)
let test_zero_checkpoint_full_replay () =
  List.iter
    (fun interval ->
      let case =
        directed_case
          ~lifecycle:(ck_policy interval)
          ~seed:116 ~followers:2
          ~plan:
            [ Fault.Stall_follower { idx = 1; at_seq = 6; delay = 2_000_000 } ]
          (payload_ops 10)
      in
      let out = H.run case in
      check_case_exn "zero-checkpoint fallback" case out;
      let r = lifecycle_of out in
      Alcotest.(check bool) "the victim rejoined" true
        (r.Lifecycle.rejoins >= 1);
      let ck = out.H.stats.Nvx.checkpoints in
      Alcotest.(check int) "no checkpoints taken" 0 ck.CK.taken;
      Alcotest.(check int) "no restores" 0 ck.CK.restores;
      Alcotest.(check string) "victim digest equals native" out.H.natives.(0)
        out.H.digests.(1))
    [ 0; (* disabled *) 100_000_000 (* never elapses *) ]

(* Satellite edges on the retention window: a time-travel request below
   the oldest retained segment fails cleanly (no exception), in-range
   requests are served, out-of-range ones are clean errors too. *)
let test_time_travel_retention_edges () =
  let case =
    directed_case
      ~lifecycle:(ck_policy 20_000)
      ~seed:117 ~followers:1
      ~plan:[ Fault.Stall_follower { idx = 1; at_seq = 10; delay = 2_000_000 } ]
      (compute_heavy_ops 8)
  in
  let out = H.run case in
  check_case_exn "time travel session" case out;
  let session = out.H.session in
  let tape =
    match Nvx.tuple_tape session 0 with
    | Some t -> t
    | None -> Alcotest.fail "no tape"
  in
  let len = Tape.length tape in
  (* In range: both a cold start and (once checkpoints exist) a restore. *)
  (match RR.time_travel session ~at:0 with
  | Ok tt ->
    Alcotest.(check int) "seq 0 needs no delta" 0 (List.length tt.RR.tt_delta)
  | Error e -> Alcotest.failf "seq 0 must be reachable: %s" e);
  (match RR.time_travel session ~at:len with
  | Ok tt -> Alcotest.(check int) "tape head reachable" len tt.RR.tt_at
  | Error e -> Alcotest.failf "tape head must be reachable: %s" e);
  (* Out of range: clean errors, never exceptions. *)
  (match RR.time_travel session ~at:(len + 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "past the tape head must be an error");
  (match RR.time_travel session ~at:(-1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative sequence must be an error");
  (* Age the tape past its first segments: the same object the session
     replays from, so time travel sees the truncation immediately. *)
  for i = len to 699 do
    Tape.append tape
      (Varan_ringbuf.Event.make ~clock:(i + 1) 42)
      ~out:None
  done;
  Tape.retire tape ~keep_from:512;
  Alcotest.(check int) "tape aged" 512 (Tape.base tape);
  (match RR.time_travel session ~at:100 with
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "names the retention cut (%s)" e)
      true
      (contains ~sub:"retained" e)
  | Ok _ -> Alcotest.fail "below the retained window must be an error");
  (* Above the cut but with every checkpoint below it, a cold start
     would also have to cross the truncation — still a clean error. *)
  (match RR.time_travel session ~at:600 with
  | Error _ -> ()
  | Ok _ ->
    Alcotest.fail "no checkpoint covers the retained window: must error");
  (* A checkpoint inside the retained window makes the same position
     servable again: restore above the cut, replay only the delta. *)
  let store = Nvx.checkpoint_store session in
  (match CK.nearest_any store ~seq:len with
  | None -> Alcotest.fail "the session took no checkpoint to clone"
  | Some cp ->
    CK.store store { cp with CK.cp_seq = 540; cp_clock = 540 };
    (match RR.time_travel session ~at:600 with
    | Ok tt ->
      (match tt.RR.tt_checkpoint with
      | Some c ->
        Alcotest.(check int) "restores the in-window checkpoint" 540
          c.CK.cp_seq
      | None -> Alcotest.fail "expected a checkpoint restore");
      Alcotest.(check int) "delta covers only [540, 600)" 60
        (List.length tt.RR.tt_delta)
    | Error e -> Alcotest.failf "in-window checkpoint must serve: %s" e))

(* The 200-seed checkpoint property sweep (satellite 1): random lifecycle
   cases with random checkpoint intervals and kill points; every seed
   must pass the full lifecycle verdicts (settled followers end on the
   native digest — whether they rejoined by checkpoint restore or by
   full replay), and every tenth seed is re-run with checkpointing
   disabled to pin checkpoint-restore-then-delta-replay == full-tape
   replay == native. *)
let checkpoint_base_seed = 0xCE5A
let checkpoint_sweep_cases = 200

let checkpoint_interval seed =
  let rng = Prng.create (seed lxor 0xC4EC4) in
  10_000 + Prng.int rng 190_000

let test_checkpoint_sweep () =
  let taken = ref 0 and restores = ref 0 and deltas = ref 0 in
  let with_interval interval (case : H.case) =
    { case with H.lifecycle = Some (ck_policy interval) }
  in
  sweep
    ~fingerprint:"57fad465d9b07f71f793ea6a9aec6d85"
    ~flags:(fun case ->
      Printf.sprintf "--lifecycle --checkpoint-interval %d "
        (checkpoint_interval case.H.seed))
    ~base:checkpoint_base_seed ~cases:checkpoint_sweep_cases
    (fun seed ->
      with_interval (checkpoint_interval seed) (H.gen_lifecycle_case seed))
    (fun case out ->
      let seed = case.H.seed in
      let ck = out.H.stats.Nvx.checkpoints in
      taken := !taken + ck.CK.taken;
      restores := !restores + ck.CK.restores;
      deltas := !deltas + ck.CK.delta_events;
      (* Digest tri-equality against the checkpoint-free twin. *)
      if (seed - checkpoint_base_seed) mod 10 = 0 then begin
        let tout = H.run (with_interval 0 case) in
        Alcotest.(check string)
          (Printf.sprintf "seed %d: native digest agrees across twins" seed)
          tout.H.natives.(0) out.H.natives.(0);
        Array.iteri
          (fun v d ->
            if out.H.alive.(v) && tout.H.alive.(v) then
              Alcotest.(check string)
                (Printf.sprintf
                   "seed %d variant %d: checkpointed rejoin == full replay"
                   seed v)
                tout.H.digests.(v) d)
          out.H.digests
      end);
  (* The sweep must actually exercise the restore machinery. *)
  Alcotest.(check bool) "sweep took checkpoints" true (!taken > 0);
  Alcotest.(check bool) "sweep restored checkpoints" true (!restores > 0);
  Alcotest.(check bool) "restores replayed bounded deltas" true (!deltas >= 0)

(* ------------------------------------------------------------------ *)
(* The randomized torture sweep                                        *)
(* ------------------------------------------------------------------ *)

(* 200 cases, every one derived from [base_seed + i] alone — any failure
   reproduces with `varan torture --seed N`. *)
let base_seed = 0xBEEF
let sweep_cases = 200

let test_torture_sweep () =
  let scenario_coverage = Hashtbl.create 4 in
  sweep
    ~fingerprint:"f0e0fe44726f865de137c45a8acea7fa"
    ~flags:(fun _ -> "")
    ~base:base_seed ~cases:sweep_cases H.gen_case
    (fun case _ ->
      List.iter
        (fun inj ->
          let key =
            match inj with
            | Fault.Crash_variant { idx = 0; _ } -> "leader-crash"
            | Fault.Crash_variant _ -> "follower-crash"
            | Fault.Stall_follower _ -> "stall"
            | Fault.Ring_pressure _ -> "ring-pressure"
            | Fault.Signal_burst _ -> "signal-burst"
            | Fault.Fork_at _ -> "fork"
            | Fault.Drop_payload_grant _ -> "drop"
            | Fault.Link_partition _ | Fault.Link_delay _
            | Fault.Link_reorder _ | Fault.Link_drop _ | Fault.Link_dup _ ->
              (* link faults only appear in --net cases, generated
                 elsewhere *)
              "link"
          in
          Hashtbl.replace scenario_coverage key ())
        case.H.plan);
  (* The sweep must actually exercise the interesting machinery. *)
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "sweep covered %s" key)
        true
        (Hashtbl.mem scenario_coverage key))
    [
      "leader-crash"; "follower-crash"; "stall"; "ring-pressure";
      "signal-burst"; "fork";
    ]

(* ------------------------------------------------------------------ *)
(* Sharded-pool sweep (per-shard digest isolation)                     *)
(* ------------------------------------------------------------------ *)

(* 200 seeds of 2–4 co-resident shards — one kernel, one shared zygote,
   one shared rewrite cache — each shard running its own sanitized
   program. Every shard's every variant must reproduce that shard's
   solo native digest, and the pool must have spawned everything
   through the one zygote. Reproduce failures with
   `varan torture --shards 0 --seed N`. *)
let shard_sweep_cases = 200

let test_shard_sweep () =
  let shards_seen = Hashtbl.create 4 in
  sweep
    ~fingerprint:"1b59d07e2ce5dfaf6bb3b65375b52fc0"
    ~flags:(fun _ -> "--shards 0 ")
    ~base:base_seed ~cases:shard_sweep_cases H.gen_shard_case
    (fun case _ -> Hashtbl.replace shards_seen case.H.shards ());
  (* The sweep must reach the widest pool it generates. *)
  Alcotest.(check bool) "sweep ran 4-shard cases" true
    (Hashtbl.mem shards_seen 4)

(* ------------------------------------------------------------------ *)
(* Contended-futex sweep (per-tid lanes, lock-order replay)            *)
(* ------------------------------------------------------------------ *)

(* 200 cases of multi-threaded variants (4–64 threads) hammering shared
   futex words: every alive follower must reproduce the leader's global
   lock-acquisition order digest-for-digest, with everything else
   replaying concurrently through the per-tid lanes. Reproduce failures
   with `varan torture --futex --seed N`. *)
let futex_sweep_cases = 200

let test_futex_sweep () =
  let threads_seen = Hashtbl.create 4 in
  sweep
    ~fingerprint:"03106e5f58cbdfa1d2c7831f36663f9f"
    ~flags:(fun _ -> "--futex ")
    ~base:base_seed ~cases:futex_sweep_cases H.gen_futex_case
    (fun case _ ->
      match case.H.workload with
      | H.Futex f -> Hashtbl.replace threads_seen f.H.threads ()
      | H.Program _ | H.Ops _ -> ());
  (* The sweep must reach the lane-stress scale. *)
  Alcotest.(check bool) "sweep ran 64-thread cases" true
    (Hashtbl.mem threads_seen 64)

let futex_case ?lifecycle ?net ~seed ~threads ~locks ~plan () =
  {
    H.seed;
    workload = H.Futex { H.threads; locks; rounds = 6 };
    followers = 2;
    shards = 1;
    ring_size = 16;
    plan;
    lifecycle;
    net;
  }

(* Directed: the leader of a 64-thread session crashes mid-stream; a
   follower promotes and keeps publishing, and every survivor ends with
   the same lock-order digest. *)
let test_futex_leader_crash_promotes () =
  let case =
    futex_case ~seed:0x64F07 ~threads:64 ~locks:8
      ~plan:[ Fault.Crash_variant { idx = 0; at_seq = 150 } ]
      ()
  in
  let out = H.run case in
  check_case_exn "directed futex promotion" case out;
  Alcotest.(check bool) "old leader dead" false out.H.alive.(0);
  Alcotest.(check bool) "a follower leads" true (out.H.leader_idx <> 0);
  Alcotest.(check bool)
    "survivors share the new leader's lock order" true
    (out.H.digests.(1) = out.H.digests.(2))

(* One case composing contended futexes, the lifecycle manager, a
   follower behind the ring bridge, a follower crash and a link
   partition: every alive variant must still end on the leader's lock
   order, with the oracle clean and the bridge's verdicts holding. *)
let test_futex_composed_with_net_and_lifecycle () =
  let net = { Config.default_net with Config.remote_followers = 1 } in
  List.iter
    (fun threads ->
      for seed = 1 to 4 do
        let case =
          futex_case ~lifecycle:lc ~net ~seed ~threads ~locks:3
            ~plan:
              [
                Fault.Crash_variant { idx = 1; at_seq = 2 * threads };
                Fault.Link_partition { from_seq = 3; duration = 400_000 };
              ]
            ()
        in
        let out = H.run case in
        check_case_exn "composed futex case" case out;
        Alcotest.(check (list int)) "the follower crash fired" [ 1 ]
          (List.map fst out.H.crashes);
        match out.H.stats.Nvx.link with
        | Some l ->
          Alcotest.(check bool) "the partition opened" true
            (l.Varan_net.Link.partitions >= 1)
        | None -> Alcotest.fail "no link stats"
      done)
    [ 8; 64 ]

(* The catalog's 64-thread grid runs digest-clean under a full NVX
   session: no crashes, no degradation, every thread finished its
   rounds. *)
let test_thread_grid_64_workload () =
  let w = Varan_workloads.Catalog.thread_grid_64 in
  let eng = E.create () in
  let k = K.create ~seed:7 eng in
  let variants =
    List.init 3 (fun i ->
        Varan_workloads.Workload.fresh_variant w (Printf.sprintf "g%d" i))
  in
  let oracle = Oracle.create () in
  let config =
    { Config.default with Config.ring_size = 64; oracle = Some oracle }
  in
  let session = Nvx.launch ~config k variants in
  E.run_until_quiescent eng;
  Alcotest.(check (list (pair int string))) "no crashes" []
    (Nvx.crashes session);
  Alcotest.(check (option string)) "not degraded" None
    (Nvx.degraded session);
  Alcotest.(check int) "all variants alive" 3 (Nvx.alive_count session);
  let report = Oracle.report oracle in
  if not (Oracle.ok report) then
    Alcotest.failf "oracle: %s"
      (String.concat "; " report.Oracle.violations)

(* ------------------------------------------------------------------ *)
(* Distributed NVX: the link, the bridge, link-fault lifecycles        *)
(* ------------------------------------------------------------------ *)

module Node = Varan_net.Node
module Link = Varan_net.Link
module Bridge = Varan_net.Bridge

(* Link-fault specs survive a print/parse round trip, so any failing net
   case reproduces from its printed plan alone. *)
let test_link_plan_roundtrip () =
  let plan =
    [
      Fault.Link_partition { from_seq = 4; duration = 120_000 };
      Fault.Link_delay { at_seq = 7; extra = 9_000 };
      Fault.Link_reorder { at_seq = 9 };
      Fault.Link_drop { at_seq = 11 };
      Fault.Link_dup { at_seq = 13 };
    ]
  in
  match Fault.of_string (Fault.to_string plan) with
  | Ok p -> Alcotest.(check bool) "round trip" true (p = plan)
  | Error e -> Alcotest.failf "link plan did not parse back: %s" e

(* The raw channel: frames arrive in send order, never before
   latency + serialization. *)
let test_link_inorder_latency () =
  let eng = E.create () in
  let a = Node.create ~eng "a" and b = Node.create ~eng "b" in
  let link = Link.create ~a ~b ~latency:2_000 ~cycles_per_kb:1_024 "l" in
  let arrivals = ref [] in
  ignore
    (E.spawn eng (fun () ->
         for i = 1 to 3 do
           Link.send link ~dir:0 ~bytes:1_024 i
         done));
  ignore
    (E.spawn eng (fun () ->
         for _ = 1 to 3 do
           let v = Link.recv link ~dir:0 in
           arrivals := (v, E.now_cycles ()) :: !arrivals
         done));
  E.run_until_quiescent eng;
  let arrivals = List.rev !arrivals in
  Alcotest.(check (list int)) "in send order" [ 1; 2; 3 ]
    (List.map fst arrivals);
  List.iter
    (fun (_, t) ->
      Alcotest.(check bool) "no frame beats latency + serialization" true
        (t >= 3_000L))
    arrivals;
  let s = Link.stats link in
  Alcotest.(check int) "all delivered" 3 s.Link.frames_delivered;
  Alcotest.(check int) "none lost" 0 s.Link.frames_lost

(* A partition window: the triggering frame and everything sent inside
   the window is lost; traffic after the window flows again. *)
let test_link_partition_window () =
  let eng = E.create () in
  let a = Node.create ~eng "a" and b = Node.create ~eng "b" in
  let faults ~seq = if seq = 0 then [ Link.Partition 50_000 ] else [] in
  let link = Link.create ~a ~b ~latency:1_000 ~faults "l" in
  let got = ref [] in
  ignore
    (E.spawn eng (fun () ->
         Link.send link ~dir:0 ~bytes:64 1;
         Link.send link ~dir:0 ~bytes:64 2;
         E.sleep 60_000;
         Link.send link ~dir:0 ~bytes:64 3));
  ignore (E.spawn eng (fun () -> got := [ Link.recv link ~dir:0 ]));
  E.run_until_quiescent eng;
  Alcotest.(check (list int)) "only the post-heal frame" [ 3 ] !got;
  let s = Link.stats link in
  Alcotest.(check int) "two frames lost to the window" 2 s.Link.frames_lost;
  Alcotest.(check int) "one partition window opened" 1 s.Link.partitions

(* Reorder is a one-slot swap; Duplicate delivers back to back. *)
let test_link_dup_and_reorder () =
  let eng = E.create () in
  let a = Node.create ~eng "a" and b = Node.create ~eng "b" in
  let faults ~seq =
    match seq with 0 -> [ Link.Reorder ] | 2 -> [ Link.Duplicate ] | _ -> []
  in
  let link = Link.create ~a ~b ~latency:1_000 ~faults "l" in
  let got = ref [] in
  ignore
    (E.spawn eng (fun () ->
         List.iter (fun i -> Link.send link ~dir:0 ~bytes:64 i) [ 1; 2; 3 ]));
  ignore
    (E.spawn eng (fun () ->
         for _ = 1 to 4 do
           got := Link.recv link ~dir:0 :: !got
         done));
  E.run_until_quiescent eng;
  Alcotest.(check (list int)) "one-slot swap, then the duplicate"
    [ 2; 1; 3; 3 ] (List.rev !got)

(* The tentpole invariant end to end: a partition longer than
   [unreachable_after] parks the remote follower [Unreachable] — no
   restart budget burned, the leader's gate freed by the bridge detach —
   and the heal probe's first ack reattaches the bridge and splices the
   follower back in through the checkpoint + tape-delta door, ending
   with the native digest. *)
let test_net_partition_unreachable_then_rejoin () =
  let net = { Config.default_net with Config.remote_followers = 1 } in
  let case =
    directed_case ~lifecycle:lc ~net ~seed:120 ~followers:2
      ~plan:[ Fault.Link_partition { from_seq = 3; duration = 800_000 } ]
      (payload_ops 10)
  in
  let out = H.run case in
  check_case_exn "partition then heal" case out;
  let r = lifecycle_of out in
  Alcotest.(check bool) "remote follower parked unreachable" true
    (r.Lifecycle.unreachable >= 1);
  Alcotest.(check int) "no quarantines: the wire was sick, not the variant"
    0 r.Lifecycle.quarantines;
  let fr = List.find (fun f -> f.Lifecycle.fr_idx = 2) r.Lifecycle.followers in
  Alcotest.(check int) "no restart budget burned" 0 fr.Lifecycle.fr_restarts;
  Alcotest.(check bool) "follower ends healthy" true
    (fr.Lifecycle.fr_state = Lifecycle.Healthy);
  Alcotest.(check string) "with the native digest" out.H.natives.(0)
    out.H.digests.(2);
  (match out.H.stats.Nvx.bridge with
  | None -> Alcotest.fail "no bridge stats"
  | Some b ->
    Alcotest.(check bool) "bridge detached at least once" true
      (b.Bridge.detaches >= 1);
    Alcotest.(check int) "every partition healed" b.Bridge.detaches
      b.Bridge.heals;
    Alcotest.(check bool) "the probe retransmitted through the window" true
      (b.Bridge.retransmits > 0))

(* Satellite: a follower partitioned across a retention-floor advance.
   With checkpointing on and the parked follower excluded from the
   retention floor (a partition has no deadline), the tape may age past
   its rejoin point while it is unreachable. On heal it must either
   restore a checkpoint + delta, or die cleanly on the truncated tape —
   never replay a wrong prefix. *)
let test_net_partition_across_retention_floor () =
  let net = { Config.default_net with Config.remote_followers = 1 } in
  let policy = { lc with Lifecycle.checkpoint_interval = 10_000 } in
  let case =
    directed_case ~lifecycle:policy ~net ~seed:121 ~followers:2
      ~plan:[ Fault.Link_partition { from_seq = 2; duration = 2_500_000 } ]
      (* Enough events that the bridge's in-flight window fills during
         the partition and gates the leader: once the remote parks
         Unreachable the bridge detaches, the leader resumes, and the
         local follower consumes (and checkpoints, and retires tape) well
         past the remote's stale pre-partition checkpoint — the retention
         floor must actually advance for this test to exercise the
         rejoin-vs-truncation decision. *)
      (payload_ops 120)
  in
  let out = H.run case in
  check_case_exn "partition across retention floor" case out;
  let r = lifecycle_of out in
  Alcotest.(check bool) "remote follower parked unreachable" true
    (r.Lifecycle.unreachable >= 1);
  (* The retention floor must actually have advanced past the remote's
     park point, or the rejoin-vs-truncation decision was never made. *)
  (match Nvx.tuple_tape out.H.session 0 with
  | Some tape ->
    Alcotest.(check bool) "retention floor advanced during the partition"
      true
      (Tape.base tape > 0)
  | None -> Alcotest.fail "no tape");
  let fr = List.find (fun f -> f.Lifecycle.fr_idx = 2) r.Lifecycle.followers in
  (match fr.Lifecycle.fr_state with
  | Lifecycle.Healthy | Lifecycle.Catching_up ->
    (* The rejoin door worked: checkpoint + tape delta, exact digest. *)
    Alcotest.(check string) "rejoined with the native digest" out.H.natives.(0)
      out.H.digests.(2)
  | Lifecycle.Dead ->
    Alcotest.(check bool)
      (Printf.sprintf "died cleanly on truncation (reason: %s)"
         fr.Lifecycle.fr_reason)
      true
      (contains ~sub:"truncated" fr.Lifecycle.fr_reason)
  | Lifecycle.Unreachable ->
    (* The run ended before the heal probe got through — legal, but this
       directed case is tuned so it should not happen. *)
    Alcotest.fail "partition never healed inside the directed window"
  | s ->
    Alcotest.failf "unexpected terminal state %s" (Lifecycle.state_name s));
  Alcotest.(check bool) "never a wrong prefix" true
    (Array.for_all
       (fun i -> (not out.H.alive.(i)) || out.H.digests.(i) = out.H.natives.(0))
       [| 0; 1; 2 |])

(* ------------------------------------------------------------------ *)
(* The randomized distributed sweep                                    *)
(* ------------------------------------------------------------------ *)

(* 200 seeds of partition/delay/reorder/drop/duplicate plans over
   2–4 followers with 1..n-1 of them remote. Reproduce failures with
   `varan torture --net --seed N`. *)
let net_sweep_cases = 200

let test_net_sweep () =
  let kinds = Hashtbl.create 8 in
  let healed = ref 0 in
  sweep
    ~fingerprint:"ddd29484a3ee225074956664b6bc7741"
    ~flags:(fun _ -> "--net ")
    ~base:base_seed ~cases:net_sweep_cases H.gen_net_case
    (fun case out ->
      List.iter
        (fun inj ->
          let key =
            match inj with
            | Fault.Link_partition _ -> "partition"
            | Fault.Link_delay _ -> "delay"
            | Fault.Link_reorder _ -> "reorder"
            | Fault.Link_drop _ -> "drop"
            | Fault.Link_dup _ -> "dup"
            | _ -> "node-fault"
          in
          Hashtbl.replace kinds key ())
        case.H.plan;
      match out.H.stats.Nvx.bridge with
      | Some b -> healed := !healed + b.Bridge.heals
      | None -> ());
  (* The sweep must exercise every link-fault kind and actually heal
     partitions, or the lifecycle claims above are vacuous. *)
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "sweep covered %s" key)
        true (Hashtbl.mem kinds key))
    [ "partition"; "delay"; "reorder"; "drop"; "dup"; "node-fault" ];
  Alcotest.(check bool) "sweep healed partitions" true (!healed > 0)

(* ------------------------------------------------------------------ *)
(* Record/replay round trips under fault plans                         *)
(* ------------------------------------------------------------------ *)

(* Record tuple 0 of a faulted live run, replay the log into fresh
   clients, and require the replay stream's oracle digest to equal the
   live one — record/replay loses nothing, even across a failover. *)
let roundtrip seed =
  let case = H.gen_case seed in
  if Fault.fork_ops case.H.plan <> [] then None
  else begin
    let ops = H.build_program case in
    let n = case.H.followers + 1 in
    (* Live run, recorded. *)
    let eng = E.create () in
    let k = K.create ~seed eng in
    let obs = Array.init n (fun _ -> P.observations ()) in
    let variants =
      List.init n (fun i ->
          Variant.make
            (Printf.sprintf "v%d" i)
            (Variant.single (fun api ->
                 P.interpret ~obs:obs.(i) ~path:"0" ops api)))
    in
    let live_oracle = Oracle.create () in
    let config =
      {
        Config.default with
        Config.ring_size = case.H.ring_size;
        fault_plan = case.H.plan;
        oracle = Some live_oracle;
      }
    in
    Varan_kernel.Vfs.add_file k "/var/.keep" "";
    let session = Nvx.launch ~config k variants in
    let recorder = RR.record session k ~tuple:0 ~path:"/var/run.log" in
    E.run_until_quiescent eng;
    ignore (E.spawn eng (fun () -> RR.stop recorder));
    E.run_until_quiescent eng;
    let live_report = Oracle.report live_oracle in
    let log =
      match Varan_kernel.Vfs.read_file k "/var/run.log" with
      | Some l -> l
      | None -> Alcotest.failf "seed %d: no log recorded" seed
    in
    (* Replay into two fresh clients on a fresh kernel. *)
    let eng2 = E.create () in
    let k2 = K.create ~seed eng2 in
    Varan_kernel.Vfs.add_file k2 "/var/.keep" "";
    Varan_kernel.Vfs.add_file k2 "/var/run.log" log;
    let robs = Array.init 2 (fun _ -> P.observations ()) in
    let rvariants =
      List.init 2 (fun i ->
          Variant.make
            (Printf.sprintf "r%d" i)
            (Variant.single (fun api ->
                 P.interpret ~obs:robs.(i) ~path:"0" ops api)))
    in
    let rp = RR.replay k2 ~path:"/var/run.log" rvariants in
    let replay_oracle = Oracle.create () in
    Oracle.attach_ring replay_oracle ~tuple:0 (RR.replay_ring rp);
    E.run_until_quiescent eng2;
    let replay_report = Oracle.report replay_oracle in
    Some (case, live_report, replay_report, RR.replay_crashes rp)
  end

let test_record_replay_roundtrip () =
  let ran = ref 0 in
  let seed = ref 0x5EED in
  while !ran < 20 do
    (match roundtrip !seed with
    | None -> ()
    | Some (case, live, replay, replay_crashes) ->
      incr ran;
      if replay_crashes <> [] then
        Alcotest.failf "seed %d (%s): replay clients crashed: %s" !seed
          (H.describe_case case)
          (String.concat "; " (List.map snd replay_crashes));
      if not (Oracle.ok replay) then
        Alcotest.failf "seed %d (%s): replay oracle: %s" !seed
          (H.describe_case case)
          (String.concat "; " replay.Oracle.violations);
      let live_digest = List.assoc_opt 0 (List.map (fun (t, n, d) -> (t, (n, d))) live.Oracle.digests) in
      let replay_digest = List.assoc_opt 0 (List.map (fun (t, n, d) -> (t, (n, d))) replay.Oracle.digests) in
      if live_digest <> replay_digest then
        Alcotest.failf
          "seed %d (%s): tuple-0 stream digest changed across record/replay"
          !seed (H.describe_case case));
    incr seed
  done

let () =
  Alcotest.run "varan_fault"
    [
      ( "directed",
        [
          Alcotest.test_case "leader crash during publish" `Quick
            test_leader_crash_during_publish;
          Alcotest.test_case "follower stall at full ring" `Quick
            test_follower_stall_at_full_ring;
          Alcotest.test_case "fork then crash" `Quick test_fork_then_crash;
          Alcotest.test_case "cascading crashes in index order" `Quick
            test_cascading_crashes_in_index_order;
          Alcotest.test_case "all followers crash" `Quick
            test_all_followers_crash;
          Alcotest.test_case "zero followers pay no streaming costs" `Quick
            test_zero_followers_pay_no_streaming_costs;
          Alcotest.test_case "drop-payload negative control" `Quick
            test_drop_payload_negative_control;
          Alcotest.test_case "plan victims must exist" `Quick
            test_plan_meets_case;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "stall injection fires exactly once" `Quick
            test_stall_fires_once;
          Alcotest.test_case "respawn reuses the rewrite cache" `Quick
            test_respawn_uses_rewrite_cache;
          Alcotest.test_case "quarantine then rejoin" `Quick
            test_quarantine_then_rejoin;
          Alcotest.test_case "dead after restart budget" `Quick
            test_dead_after_restart_budget;
          Alcotest.test_case "quarantine kill dumps post-mortem" `Quick
            test_quarantine_kill_dumps_postmortem;
          Alcotest.test_case "all followers dead degrades" `Quick
            test_degrade_all_followers_dead;
          Alcotest.test_case "no leader remains degrades" `Quick
            test_degrade_no_leader_remains;
          Alcotest.test_case "200-seed lifecycle sweep" `Slow
            test_lifecycle_sweep;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "respawns reuse checkpoints" `Quick
            test_respawn_reuses_checkpoints;
          Alcotest.test_case "zero-checkpoint full-replay fallback" `Quick
            test_zero_checkpoint_full_replay;
          Alcotest.test_case "time-travel retention edges" `Quick
            test_time_travel_retention_edges;
          Alcotest.test_case "200-seed checkpoint sweep" `Slow
            test_checkpoint_sweep;
        ] );
      ( "sweep",
        [ Alcotest.test_case "200 random fault plans" `Slow test_torture_sweep ]
      );
      ( "shard",
        [
          Alcotest.test_case "200-seed sharded-pool sweep" `Slow
            test_shard_sweep;
        ] );
      ( "futex",
        [
          Alcotest.test_case "200-seed contended-futex sweep" `Slow
            test_futex_sweep;
          Alcotest.test_case "64-thread leader crash promotes" `Quick
            test_futex_leader_crash_promotes;
          Alcotest.test_case "composed with a bridge, lifecycle and faults"
            `Quick test_futex_composed_with_net_and_lifecycle;
          Alcotest.test_case "thread-grid-64 workload digest-clean" `Quick
            test_thread_grid_64_workload;
        ] );
      ( "net",
        [
          Alcotest.test_case "link plan print/parse round trip" `Quick
            test_link_plan_roundtrip;
          Alcotest.test_case "link delivers in order after latency" `Quick
            test_link_inorder_latency;
          Alcotest.test_case "partition window loses its frames" `Quick
            test_link_partition_window;
          Alcotest.test_case "duplicate and one-slot reorder" `Quick
            test_link_dup_and_reorder;
          Alcotest.test_case "partition parks unreachable then rejoins" `Quick
            test_net_partition_unreachable_then_rejoin;
          Alcotest.test_case "partition across the retention floor" `Quick
            test_net_partition_across_retention_floor;
          Alcotest.test_case "200-seed link-fault sweep" `Slow test_net_sweep;
        ] );
      ( "record-replay",
        [
          Alcotest.test_case "round trip under fault plans" `Slow
            test_record_replay_roundtrip;
        ] );
    ]
