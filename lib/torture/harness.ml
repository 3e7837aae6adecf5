module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Nvx = Varan_nvx.Session
module Shard = Varan_nvx.Shard
module Config = Varan_nvx.Config
module Variant = Varan_nvx.Variant
module Fault = Varan_fault.Plan
module Oracle = Varan_trace.Oracle
module Lifecycle = Varan_nvx.Lifecycle
module Checkpoint = Varan_nvx.Checkpoint
module Prng = Varan_util.Prng
module Stats = Varan_util.Stats
module Flight = Varan_obs.Flight
module P = Programs

(* A sweep launches hundreds of scoped sessions in one process; without
   this the stats and flight-recorder registries accumulate every dead
   case's entries (the registry-leak bug: dumps grew monotonically and
   showed shards from long-finished seeds). Called at the top of [run],
   so each case's registries hold that case alone. *)
let reset_registries () =
  Stats.clear_registry ();
  Flight.clear_registry ()

type futex = { threads : int; locks : int; rounds : int }

type workload = Program of int | Ops of P.op list | Futex of futex

type case = {
  seed : int;
  workload : workload;
  followers : int;
  shards : int;
  ring_size : int;
  plan : Fault.t;
  lifecycle : Lifecycle.policy option;
  net : Config.net option;
      (* distributed mode: the last [remote_followers] followers consume
         through the cross-node ring bridge *)
}

(* ------------------------------------------------------------------ *)
(* Presets: each draws from its own RNG stream, so extending one never  *)
(* reshuffles another's cases.                                          *)
(* ------------------------------------------------------------------ *)

let make_case ~seed ~workload ~followers ~ring_size plan =
  {
    seed;
    workload;
    followers;
    shards = 1;
    ring_size;
    plan;
    lifecycle = None;
    net = None;
  }

let gen_case seed =
  let rng = Prng.create seed in
  let followers = 1 + Prng.int rng 4 in
  let prog_len = 8 + Prng.int rng 53 in
  let plan =
    Fault.random rng ~variants:(followers + 1) ~max_seq:(prog_len * 3 / 2)
      ~max_op:prog_len
  in
  make_case ~seed ~workload:(Program prog_len) ~followers ~ring_size:8 plan

(* The lifecycle sweep's policy: aggressive enough that every injected
   stall (>= 300k cycles, see below) trips the watchdog long before the
   sleep ends, with backoffs short enough that two respawns still fit the
   cycle budget. [lag_threshold] sits below the ring size so a stalled
   consumer's (capacity-capped) live lag can exceed it. *)
let lifecycle_policy =
  {
    Lifecycle.lag_threshold = 4;
    stall_timeout = 150_000;
    max_restarts = 2;
    backoff = 50_000;
    min_followers = 1;
    watchdog_period = 20_000;
    (* Checkpointing stays off in the base policy so the long-standing
       sweeps exercise the full-tape rejoin path unchanged; checkpointed
       cases opt in per test. *)
    checkpoint_interval = 0;
  }

let gen_lifecycle_case seed =
  let rng = Prng.create (seed lxor 0x11FEC) in
  let followers = 1 + Prng.int rng 4 in
  let prog_len = 12 + Prng.int rng 49 in
  let max_seq = prog_len * 3 / 2 in
  let follower_idx () = 1 + Prng.int rng followers in
  (* Stalls an order of magnitude past [stall_timeout]: the watchdog must
     quarantine the sleeper, never wait it out. Leader (idx 0) is never a
     victim — lifecycle recovery is a follower affair. *)
  let stalls =
    List.init
      (1 + Prng.int rng 2)
      (fun _ ->
        Fault.Stall_follower
          {
            idx = follower_idx ();
            at_seq = 1 + Prng.int rng max_seq;
            delay = 300_000 + Prng.int rng 700_000;
          })
  in
  let plan =
    if Prng.int rng 3 = 0 then
      Fault.Crash_variant { idx = follower_idx (); at_seq = 1 + Prng.int rng max_seq }
      :: stalls
    else stalls
  in
  {
    (make_case ~seed ~workload:(Program prog_len) ~followers ~ring_size:8 plan)
    with
    lifecycle = Some lifecycle_policy;
  }

(* The distributed sweep: link faults (partitions, reorders, drops,
   dups, delays) against a session whose highest-indexed followers live
   behind the ring bridge, mixed with the single-node lifecycle faults
   so both machineries compose. At least one follower stays local, so a
   parked remote side degrades the session only when local followers die
   too. [unreachable_after] in {!Config.default_net} (300k) sits above
   [lifecycle_policy.stall_timeout] (150k) by construction. *)
let gen_net_case seed =
  let rng = Prng.create (seed lxor 0xD157) in
  let followers = 2 + Prng.int rng 3 in
  let remote = 1 + Prng.int rng (followers - 1) in
  let prog_len = 12 + Prng.int rng 49 in
  let max_seq = prog_len * 3 / 2 in
  let link = Fault.random_link rng ~max_frame:prog_len in
  let extra =
    match Prng.int rng 4 with
    | 0 ->
      [
        Fault.Stall_follower
          {
            idx = 1 + Prng.int rng followers;
            at_seq = 1 + Prng.int rng max_seq;
            delay = 300_000 + Prng.int rng 700_000;
          };
      ]
    | 1 ->
      [
        Fault.Crash_variant
          {
            idx = 1 + Prng.int rng followers;
            at_seq = 1 + Prng.int rng max_seq;
          };
      ]
    | _ -> []
  in
  let policy =
    {
      lifecycle_policy with
      Lifecycle.checkpoint_interval = (if seed mod 3 = 0 then 60_000 else 0);
    }
  in
  let net =
    {
      Config.default_net with
      Config.remote_followers = remote;
      link_latency = 500 + Prng.int rng 3_500;
    }
  in
  {
    (make_case ~seed ~workload:(Program prog_len) ~followers ~ring_size:8
       (link @ extra))
    with
    lifecycle = Some policy;
    net = Some net;
  }

(* Thread counts deliberately include 64: with per-tid lanes the whole
   variant must stay digest-clean at that scale. Crashes are
   follower-only here; leader-crash promotion at scale has a directed
   test. *)
let gen_futex_case seed =
  let rng = Prng.create (seed lxor 0xF07EC) in
  let threads = [| 4; 8; 16; 64 |].(Prng.int rng 4) in
  let locks = 1 + Prng.int rng 4 in
  let rounds = 3 + Prng.int rng 10 in
  let followers = 1 + Prng.int rng 2 in
  let plan =
    if Prng.int rng 2 = 0 then
      [
        Fault.Crash_variant
          {
            idx = 1 + Prng.int rng followers;
            at_seq = 1 + Prng.int rng (threads * rounds);
          };
      ]
    else []
  in
  make_case ~seed ~workload:(Futex { threads; locks; rounds }) ~followers
    ~ring_size:16 plan

let gen_shard_case seed =
  let rng = Prng.create (seed lxor 0x5AADED) in
  (* Drawn in this order so every seed keeps the case it always had. *)
  let prog_len = 8 + Prng.int rng 25 in
  let followers = 1 + Prng.int rng 2 in
  let shards = 2 + Prng.int rng 3 in
  {
    (make_case ~seed ~workload:(Program prog_len) ~followers
       ~ring_size:Config.default.Config.ring_size [])
    with
    shards;
  }

let with_followers case followers =
  {
    case with
    followers;
    net =
      Option.map
        (fun n ->
          {
            n with
            Config.remote_followers =
              min n.Config.remote_followers (followers - 1);
          })
        case.net;
  }

(* The one place a plan meets a case: every injection must be able to
   fire on the topology and workload it is aimed at. *)
let validate c =
  let n = c.followers + 1 in
  let victim = function
    | Fault.Crash_variant { idx; _ }
    | Fault.Stall_follower { idx; _ }
    | Fault.Drop_payload_grant { idx; _ } ->
      Some idx
    | _ -> None
  in
  let outside inj =
    match victim inj with Some i -> i < 0 || i >= n | None -> false
  in
  let is_fork = function Fault.Fork_at _ -> true | _ -> false in
  let generated = match c.workload with Program _ -> true | _ -> false in
  let error fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if c.followers < 0 || c.shards < 1 then
    error "a case needs followers >= 0 and shards >= 1"
  else
    match List.find_opt outside c.plan with
    | Some inj ->
      error "plan injection %s aims at a variant outside 0..%d"
        (Fault.describe inj) (n - 1)
    | None -> (
      if List.exists is_fork c.plan && not generated then
        error "fork splices need a generated op program"
      else if Fault.has_link_faults c.plan && c.net = None then
        error "link faults need remote followers (--net)"
      else if
        c.shards > 1
        && (c.plan <> [] || c.lifecycle <> None || c.net <> None
           || not generated)
      then
        error
          "a sharded case runs generated op programs without a fault plan, \
           lifecycle policy or link"
      else
        match c.net with
        | Some net
          when net.Config.remote_followers < 1
               || net.Config.remote_followers > c.followers - 1 ->
          error
            "a distributed case needs 1..followers-1 remote followers and at \
             least one local one (followers=%d, remote=%d)"
            c.followers net.Config.remote_followers
        | _ -> Ok ())

let describe_workload = function
  | Program len -> Printf.sprintf "len=%d" len
  | Ops ops -> Printf.sprintf "ops=%d" (List.length ops)
  | Futex f ->
    Printf.sprintf "threads=%d locks=%d rounds=%d" f.threads f.locks f.rounds

let describe_case c =
  Printf.sprintf "seed=%d followers=%d %s%s ring=%d%s%s plan=[%s]" c.seed
    c.followers
    (describe_workload c.workload)
    (if c.shards > 1 then Printf.sprintf " shards=%d" c.shards else "")
    c.ring_size
    (if c.lifecycle = None then "" else " lifecycle")
    (match c.net with
    | None -> ""
    | Some n -> Printf.sprintf " net(remote=%d)" n.Config.remote_followers)
    (Fault.to_string c.plan)

(* Shard [shard]'s op program. A single session runs the generated ops
   plus a handler install when the plan posts signals, with forks spliced
   at the plan's positions; the stream is independent of the preset's,
   so extending a plan generator never reshuffles workloads. In a pool
   each shard runs its own program from a stream salted with the shard
   id, with entropy ops sanitized away: the pooled shards share one
   kernel, so their [Getrandom] draws would interleave — differently
   than each shard's solo native run — for reasons that have nothing to
   do with the monitor. *)
let shard_program case shard =
  match case.workload with
  | Futex _ ->
    invalid_arg "Harness.build_program: a futex case has no op program"
  | Ops ops -> ops
  | Program len when case.shards > 1 ->
    let rng =
      Prng.create (case.seed lxor 0x5AADED lxor ((shard + 1) * 0x9E3779))
    in
    List.map P.sanitize_for_fork (P.gen_ops rng len)
  | Program len ->
    let rng = Prng.create (case.seed lxor 0x7A57E5) in
    let ops = P.gen_ops rng len in
    let ops =
      if
        List.exists
          (function Fault.Signal_burst _ -> true | _ -> false)
          case.plan
      then P.Install_handler :: ops
      else ops
    in
    P.splice_forks rng ops ~at:(Fault.fork_ops case.plan)

let build_program case = shard_program case 0

type outcome = {
  natives : string array;
  digests : string array;
  alive : bool array;
  leader_idx : int;
  crashes : (int * string) list;
  report : Oracle.report option;
  stats : Nvx.stats;
  lifecycle : Lifecycle.report option;
  degraded : string option;
  zygote_forks : int;
  budget_blown : bool;
  session : Nvx.t;
      (* the finished session, for post-run probes (time travel, tape and
         checkpoint introspection) *)
}

(* Generous: a healthy case finishes in well under a billion cycles, so
   only a genuine livelock (e.g. a spin that never observes progress)
   trips it. Deadlocks park tasks instead and surface as incomplete
   digests. *)
let cycle_budget = 50_000_000_000L

(* The path a shard's units record under: the digest embeds it, so a
   pooled shard's native run must use the same one. *)
let unit_path (case : case) shard =
  if case.shards > 1 then Printf.sprintf "s%d" shard else "0"

(* One variant's program and the digest of what it observed. A variant
   respawned by the lifecycle manager re-runs its whole program, so its
   observations restart at body entry: the digest must reflect exactly
   one complete execution. *)
let observed_program (case : case) programs ~shard =
  let fresh = case.lifecycle <> None in
  match case.workload with
  | Futex f ->
    (* Every thread loops lock → streamed getpid inside the critical
       section → unlock over a shared lock set, logging the acquisition
       index each lock returns. The digest is the per-thread logs
       concatenated in tid order: equal digests mean the variant
       reproduced the leader's global lock-acquisition order, thread by
       thread. *)
    let logs = Array.init f.threads (fun _ -> Buffer.create 64) in
    let body ~unit_idx api =
      let b = logs.(unit_idx) in
      if fresh then Buffer.clear b;
      for r = 0 to f.rounds - 1 do
        let l = (unit_idx + r) mod f.locks in
        let acq = Api.futex_lock api (0x2000 + l) in
        Buffer.add_string b (Printf.sprintf "%d:%d=%d;" r l acq);
        (* A streamed, non-ordering call inside the critical section: with
           lanes it replays concurrently, between the lock barriers. *)
        ignore (Api.getpid api);
        Api.compute api 150;
        ignore (Api.futex_unlock api (0x2000 + l))
      done
    in
    let digest () =
      let all = Buffer.create 256 in
      Array.iter
        (fun b ->
          Buffer.add_buffer all b;
          Buffer.add_char all '|')
        logs;
      Digest.to_hex (Digest.string (Buffer.contents all))
    in
    ({ Variant.units = f.threads; unit_kind = Variant.Thread; body }, digest)
  | Program _ | Ops _ ->
    let obs = P.observations () in
    let path = unit_path case shard in
    ( Variant.single (fun api ->
          if fresh then P.reset obs;
          P.interpret ~obs ~path programs.(shard) api),
      fun () -> P.digest obs )

let run (case : case) =
  (match validate case with
  | Ok () -> ()
  | Error e -> invalid_arg ("Harness.run: " ^ e));
  reset_registries ();
  let programs =
    match case.workload with
    | Futex _ -> [||]
    | Program _ | Ops _ -> Array.init case.shards (shard_program case)
  in
  let natives =
    Array.mapi
      (fun s ops ->
        P.run_native ~path:(unit_path case s) ~kernel_seed:case.seed ops)
      programs
  in
  let eng = E.create () in
  let k = K.create ~seed:case.seed eng in
  let n = case.followers + 1 in
  let observed =
    Array.init (case.shards * n) (fun g ->
        observed_program case programs ~shard:(g / n))
  in
  let variants_of s =
    List.init n (fun i ->
        let name =
          if case.shards > 1 then Printf.sprintf "s%d.v%d" s i
          else Printf.sprintf "v%d" i
        in
        Variant.make name (fst observed.((s * n) + i)))
  in
  (* Pools run without the oracle: its per-ring registrations would
     collide across co-resident shards. *)
  let oracle = if case.shards = 1 then Some (Oracle.create ()) else None in
  let config =
    {
      Config.default with
      Config.ring_size = case.ring_size;
      fault_plan = case.plan;
      oracle;
      lifecycle = case.lifecycle;
      net = case.net;
    }
  in
  let pool, sessions =
    if case.shards = 1 then (None, [| Nvx.launch ~config k (variants_of 0) |])
    else
      let pool = Shard.launch ~config k ~shards:case.shards ~variants_of in
      (Some pool, Array.init case.shards (Shard.session pool))
  in
  let budget_blown =
    try
      E.run_until_quiescent ~cycle_budget eng;
      false
    with E.Budget_exceeded _ -> true
  in
  let session = sessions.(0) in
  {
    natives;
    digests = Array.map (fun (_, digest) -> digest ()) observed;
    alive =
      Array.init (case.shards * n) (fun g ->
          Nvx.is_alive sessions.(g / n) (g mod n));
    leader_idx = Nvx.leader_index session;
    crashes =
      List.concat
        (List.mapi
           (fun s sess ->
             List.map (fun (i, msg) -> ((s * n) + i, msg)) (Nvx.crashes sess))
           (Array.to_list sessions));
    report = Option.map Oracle.report oracle;
    stats = Nvx.stats session;
    lifecycle = Nvx.lifecycle_report session;
    degraded = Nvx.degraded session;
    zygote_forks = Option.fold ~none:0 ~some:Shard.zygote_forks pool;
    budget_blown;
    session;
  }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* The lifecycle verdicts: every follower settles — caught back up on
   the yardstick digest, or declared dead after exactly its respawn
   budget (fewer only when the whole session degraded and cancelled the
   remaining respawns) — and the leader's gate never waited on a
   quarantined consumer. *)
let check_lifecycle add policy ~yardstick out =
  let fail fmt = Printf.ksprintf add fmt in
  (match out.lifecycle with
  | None -> fail "lifecycle: no report despite policy"
  | Some r ->
    if r.Lifecycle.illegal_transitions > 0 then
      fail "lifecycle: %d illegal transition(s)" r.Lifecycle.illegal_transitions;
    List.iter
      (fun fr ->
        let idx = fr.Lifecycle.fr_idx in
        match fr.Lifecycle.fr_state with
        | Lifecycle.Healthy | Lifecycle.Lagging ->
          if out.digests.(idx) <> yardstick idx then
            fail "follower %d ended %s but diverged: %S <> %S" idx
              (Lifecycle.state_name fr.Lifecycle.fr_state)
              out.digests.(idx) (yardstick idx)
        | Lifecycle.Dead ->
          if
            fr.Lifecycle.fr_restarts <> policy.Lifecycle.max_restarts
            && out.degraded = None
            (* A follower parked across a retention-floor advance dies
               clean rather than replaying a wrong prefix — restart
               budget untouched. *)
            && not (contains ~sub:"truncated" fr.Lifecycle.fr_reason)
          then begin
            (* An unexpected death is exactly what the black box is for:
               dump it and hand the investigator the bundle path, so the
               failure message alone localizes the run. *)
            let pm =
              try
                let fl = Nvx.flight out.session in
                let at =
                  match List.rev (Flight.entries fl) with
                  | e :: _ -> e.Flight.ev_at
                  | [] -> 0L
                in
                Flight.dump fl ~at
                  ~reason:
                    (Printf.sprintf "unexpected Dead of follower %d: %s" idx
                       fr.Lifecycle.fr_reason)
              with Sys_error e -> "unwritable: " ^ e
            in
            fail
              "follower %d dead after %d respawn(s), budget %d, and no \
               degradation to excuse it (post-mortem: %s)"
              idx fr.Lifecycle.fr_restarts policy.Lifecycle.max_restarts pm
          end
        | Lifecycle.Unreachable ->
          (* A terminal park is legal: the partition simply never healed
             before the program ended (or the session degraded). Its
             digest is void — the variant was killed mid-run. *)
          ()
        | (Lifecycle.Quarantined | Lifecycle.Respawning | Lifecycle.Catching_up)
          as st ->
          fail "follower %d never settled: stuck %s (%s)" idx
            (Lifecycle.state_name st) fr.Lifecycle.fr_reason)
      r.Lifecycle.followers);
  match out.report with
  | Some rep when rep.Oracle.gate_waits_on_quarantined > 0 ->
    fail "leader gate waited on a quarantined consumer %d time(s)"
      rep.Oracle.gate_waits_on_quarantined
  | _ -> ()

(* The bridge verdicts: the bridge ran (stats exist), link faults never
   corrupted a frame the checksum accepted, an [Unreachable] park needs a
   link fault to blame, and a session with events to mirror moved at
   least one batch. *)
let check_net add (case : case) out =
  let fail fmt = Printf.ksprintf add fmt in
  (match out.stats.Nvx.bridge with
  | None -> fail "net: no bridge stats despite net config"
  | Some b ->
    if b.Varan_net.Bridge.checksum_failures > 0 then
      fail "net: %d frame(s) passed to the mirror with a bad checksum"
        b.Varan_net.Bridge.checksum_failures;
    if
      b.Varan_net.Bridge.batches = 0
      && out.stats.Nvx.rings.(0).Varan_ringbuf.Ring.publishes > 0
      && b.Varan_net.Bridge.detaches = 0
    then
      fail "net: leader published %d events but the bridge shipped nothing"
        out.stats.Nvx.rings.(0).Varan_ringbuf.Ring.publishes);
  match out.lifecycle with
  | Some r ->
    List.iter
      (fun fr ->
        if
          fr.Lifecycle.fr_state = Lifecycle.Unreachable
          && not (Fault.has_link_faults case.plan)
        then
          fail "net: follower %d unreachable without a link fault (%s)"
            fr.Lifecycle.fr_idx fr.Lifecycle.fr_reason)
      r.Lifecycle.followers
  | None -> ()

let check (case : case) out =
  let fails = ref [] in
  let add s = fails := s :: !fails in
  let fail fmt = Printf.ksprintf add fmt in
  let n = case.followers + 1 in
  (* Op programs answer to their native run. Futex cases answer to the
     (current) leader: the monitor's costs reshuffle the native lock
     order, so only the leader's order is the reference. *)
  let yardstick i =
    match case.workload with
    | Futex _ -> out.digests.(out.leader_idx)
    | Program _ | Ops _ -> out.natives.(i / n)
  in
  if out.budget_blown then fail "liveness: cycle budget exceeded";
  let planned_crash idx =
    List.exists
      (function Fault.Crash_variant c -> c.idx = idx | _ -> false)
      case.plan
  in
  List.iter
    (fun (idx, msg) ->
      if not (planned_crash idx) then
        fail "unplanned crash of variant %d: %s" idx msg
      else if not (contains ~sub:"fault:" msg) then
        fail "variant %d died of %s, not its injection" idx msg)
    out.crashes;
  Array.iteri
    (fun i alive ->
      if alive && out.digests.(i) <> yardstick i then
        fail "variant %d survived but diverged: %S <> %S" i out.digests.(i)
          (yardstick i)
      else if (not alive) && case.shards > 1 then
        fail "shard %d variant %d died without a fault plan" (i / n) (i mod n))
    out.alive;
  if Array.exists Fun.id out.alive && not out.alive.(out.leader_idx) then
    fail "leader role held by dead variant %d" out.leader_idx;
  (match out.report with
  | Some r when not (Oracle.ok r) ->
    List.iter (fail "oracle: %s") r.Oracle.violations
  | _ -> ());
  Option.iter (fun p -> check_lifecycle add p ~yardstick out) case.lifecycle;
  if case.net <> None then check_net add case out;
  (* Co-residency on one kernel, one zygote and one rewrite cache: the
     pool must really spawn everything through the one shared zygote. *)
  if case.shards > 1 && out.zygote_forks <> case.shards * n then
    fail "shared zygote served %d fork(s), expected %d" out.zygote_forks
      (case.shards * n);
  List.rev !fails

(* One machine-readable object per finished case: the digests and the
   counters a sweep dashboard wants, without parsing prose. *)
let json_of_outcome ~fails case (out : outcome) =
  let esc = Flight.json_escape in
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let strings a =
    String.concat ", "
      (Array.to_list (Array.map (fun d -> "\"" ^ esc d ^ "\"") a))
  in
  add "{\"seed\": %d, \"followers\": %d, \"shards\": %d" case.seed
    case.followers case.shards;
  (match case.workload with
  | Program len -> add ", \"prog_len\": %d" len
  | Ops ops -> add ", \"ops\": %d" (List.length ops)
  | Futex f ->
    add ", \"threads\": %d, \"locks\": %d, \"rounds\": %d" f.threads f.locks
      f.rounds);
  add ", \"lifecycle\": %b" (case.lifecycle <> None);
  add ", \"remote_followers\": %d"
    (match case.net with None -> 0 | Some n -> n.Config.remote_followers);
  add ", \"pass\": %b" (fails = []);
  add ", \"natives\": [%s]" (strings out.natives);
  add ", \"digests\": [%s]" (strings out.digests);
  add ", \"alive\": [%s]"
    (String.concat ", "
       (Array.to_list (Array.map string_of_bool out.alive)));
  add ", \"leader_idx\": %d, \"budget_blown\": %b" out.leader_idx
    out.budget_blown;
  add ", \"degraded\": %s"
    (match out.degraded with
    | None -> "null"
    | Some r -> "\"" ^ esc r ^ "\"");
  add ", \"crashes\": [%s]"
    (String.concat ", "
       (List.map
          (fun (idx, msg) ->
            Printf.sprintf "{\"idx\": %d, \"msg\": \"%s\"}" idx (esc msg))
          out.crashes));
  (match out.lifecycle with
  | None -> ()
  | Some r ->
    add
      ", \"lifecycle_report\": {\"lagging\": %d, \"recovered\": %d, \
       \"quarantines\": %d, \"respawns\": %d, \"rejoins\": %d, \
       \"unreachable\": %d, \"deaths\": %d, \"illegal_transitions\": %d}"
      r.Lifecycle.lagging r.Lifecycle.recovered r.Lifecycle.quarantines
      r.Lifecycle.respawns r.Lifecycle.rejoins r.Lifecycle.unreachable
      r.Lifecycle.deaths r.Lifecycle.illegal_transitions);
  (match out.stats.Nvx.bridge with
  | None -> ()
  | Some br ->
    add
      ", \"bridge\": {\"batches\": %d, \"events_forwarded\": %d, \
       \"retransmits\": %d, \"checksum_failures\": %d, \"bytes_on_wire\": \
       %d, \"bytes_saved\": %d, \"detaches\": %d, \"heals\": %d}"
      br.Varan_net.Bridge.batches br.Varan_net.Bridge.events_forwarded
      br.Varan_net.Bridge.retransmits br.Varan_net.Bridge.checksum_failures
      br.Varan_net.Bridge.bytes_on_wire br.Varan_net.Bridge.bytes_saved
      br.Varan_net.Bridge.detaches br.Varan_net.Bridge.heals);
  let rc = out.stats.Nvx.rewrite_cache in
  add
    ", \"rewrite_cache\": {\"hits\": %d, \"misses\": %d, \"rebases\": %d}"
    rc.Varan_binary.Rewrite_cache.hits rc.Varan_binary.Rewrite_cache.misses
    rc.Varan_binary.Rewrite_cache.rebases;
  if case.shards > 1 then add ", \"zygote_forks\": %d" out.zygote_forks;
  let cp = out.stats.Nvx.checkpoints in
  add ", \"checkpoints\": {\"taken\": %d, \"restores\": %d, \"delta_events\": %d}"
    cp.Checkpoint.taken cp.Checkpoint.restores cp.Checkpoint.delta_events;
  add ", \"max_observed_lag\": %d" out.stats.Nvx.max_observed_lag;
  add ", \"fails\": [%s]"
    (String.concat ", " (List.map (fun f -> "\"" ^ esc f ^ "\"") fails));
  add "}";
  Buffer.contents b
