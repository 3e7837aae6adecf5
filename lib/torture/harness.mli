(** The torture harness: one seed → one fully determined case.

    A case is a workload, a fault plan, a topology and a lifecycle
    policy, all derived from a single integer seed by a preset. The
    workload is a random syscall program or a contended-futex thread
    body; the topology is the follower count, the followers behind the
    cross-node ring bridge and the shard count. {!run} executes it —
    one session under the trace oracle, or a pool of co-resident shards
    — and {!check} applies every invariant the case's own shape calls
    for:

    - each surviving variant's digest equals the yardstick: the native
      run for op programs (per shard in a pool), the current leader's
      digest for futex cases, whose native lock order the monitor's
      costs reshuffle;
    - every crash was planned (an {!Varan_fault.Plan.Injected} raise on a
      victim the plan names);
    - the oracle's report is clean (clocks, prefix delivery, payload
      balance, promotion accounting, fork rendezvous);
    - when survivors remain, exactly one of them holds the leader role;
    - the run stays inside the cycle budget (liveness under faults);
    - with a lifecycle policy: every follower settles and the leader never
      gates on a quarantined consumer;
    - with remote followers: the bridge shipped checksummed batches and
      an unreachable park has a link fault to blame;
    - with more than one shard: every variant of every shard is alive and
      the pool spawned everything through its one shared zygote.

    Any failure reproduces from the seed alone — the [varan torture]
    subcommand re-runs it from the command line. *)

type futex = {
  threads : int;  (** sibling threads per variant (up to 64) *)
  locks : int;  (** contended futex words *)
  rounds : int;  (** lock/unlock rounds per thread *)
}

type workload =
  | Program of int
      (** a random op program of this length, drawn from the seed *)
  | Ops of Programs.op list  (** an explicit op program *)
  | Futex of futex
      (** every thread loops futex_lock → streamed getpid →
          futex_unlock over the shared lock set, logging each
          acquisition index *)

type case = {
  seed : int;
  workload : workload;
  followers : int;  (** per shard *)
  shards : int;
      (** 1 runs one session under the oracle; more run a
          {!Varan_nvx.Shard} pool on one kernel, without the oracle *)
  ring_size : int;  (** before any [Ring_pressure] shrink *)
  plan : Varan_fault.Plan.t;
  lifecycle : Varan_nvx.Lifecycle.policy option;
      (** run the session with the follower lifecycle manager *)
  net : Varan_nvx.Config.net option;
      (** distributed mode: the last [remote_followers] followers
          consume tuple 0 through the cross-node ring bridge *)
}

(** {1 Presets} *)

val gen_case : int -> case
(** A random op program under a random fault plan (crashes, stalls, ring
    pressure, signal bursts, fork splices) with 1–4 followers. *)

val lifecycle_policy : Varan_nvx.Lifecycle.policy
(** The lifecycle sweep's policy: stall timeout well under the injected
    delays (every stall trips the watchdog), short backoffs, a respawn
    budget of 2. *)

val gen_lifecycle_case : int -> case
(** A case aimed at the lifecycle manager: follower-only stalls long
    enough (300k–1M cycles) that the watchdog must quarantine the sleeper
    rather than wait it out, sometimes a follower crash, never a leader
    fault. Uses {!lifecycle_policy}. *)

val gen_net_case : int -> case
(** A distributed case: 2–4 followers with 1..followers-1 of them behind
    the ring bridge on a simulated remote node, a link-fault plan
    (partitions, delays, reorders, drops, duplicates) and occasionally a
    single-node lifecycle fault mixed in, checkpointing on every third
    seed. At least one follower stays local. *)

val gen_futex_case : int -> case
(** A contended-futex case: 4, 8, 16 or 64 threads, 1–4 locks, 1–2
    followers and sometimes a follower crash. *)

val gen_shard_case : int -> case
(** A pool of 2–4 shards with 1–2 followers each, every shard running
    its own program: an op stream salted with the shard id, entropy ops
    sanitized away (pooled shards share one kernel, so their entropy
    draws would interleave differently than each shard's solo native
    run). No fault plan. *)

val with_followers : case -> int -> case
(** Override the follower count, keeping the plan. Remote followers are
    clamped to [followers - 1], so at least one follower stays local. *)

val validate : case -> (unit, string) result
(** The one place a plan meets a case. [Error] when an injection names a
    victim outside the case's variants, a fork splice meets a workload
    that is not a generated program, link faults meet a case without
    remote followers, a pool carries a plan, policy, link or futex
    workload, or the remote followers leave no local one. {!run} raises
    [Invalid_argument] on such a case. *)

val describe_case : case -> string

val build_program : case -> Programs.op list
(** The case's (first shard's) op program. A single session runs the
    generated ops plus a handler install when the plan posts signals,
    with forks spliced at the plan's positions. Raises
    [Invalid_argument] on a futex case. *)

(** {1 Running and checking} *)

type outcome = {
  natives : string array;
      (** per shard: the op program's digest run alone on a fresh kernel;
          empty for a futex case *)
  digests : string array;
      (** per variant; shard [s]'s variant [i] sits at
          [s * (followers + 1) + i]. A futex variant's digest covers its
          per-thread lock-acquisition logs in tid order. *)
  alive : bool array;  (** indexed like [digests] *)
  leader_idx : int;
  crashes : (int * string) list;  (** indexed like [digests] *)
  report : Varan_trace.Oracle.report option;  (** [None] for a pool *)
  stats : Varan_nvx.Session.stats;
  lifecycle : Varan_nvx.Lifecycle.report option;
  degraded : string option;
  zygote_forks : int;
      (** forks the pool's shared zygote served; 0 for a single session *)
  budget_blown : bool;
  session : Varan_nvx.Session.t;
      (** the finished session, for post-run probes — time travel, tape
          and checkpoint introspection. [leader_idx], [stats],
          [lifecycle] and [degraded] describe it; in a pool it is shard
          0's. *)
}

val run : case -> outcome
(** Execute the native runs and the monitored run. Deterministic in the
    case. *)

val check : case -> outcome -> string list
(** Every invariant the case's shape calls for (see above); empty means
    the case passed. *)

val json_of_outcome : fails:string list -> case -> outcome -> string
(** One JSON object (single line, no trailing newline) summarizing a
    finished case: seed and shape, per-variant digests against the
    natives, aliveness, crashes, degradation, the lifecycle/bridge/
    rewrite-cache/zygote/checkpoint counters and the check verdicts in
    [fails]. The [varan torture --json] report emits one of these per
    seed. *)
