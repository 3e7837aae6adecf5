(** An N-version execution session — VARAN's core (§2, §3).

    [launch] plays the coordinator's role from Figure 2: it creates the
    shared-memory pool and ring buffers, spawns the {e zygote}, asks it to
    fork one process per variant, builds each variant's synthetic text
    segment and runs the {e selective binary rewriter} over it (recording
    the jump/INT3 dispatch mix that interception costs draw from), patches
    the vDSO, and finally starts every variant's execution units under a
    monitor-interposed syscall API.

    At run time the leader executes system calls against the simulated
    kernel and streams events into the per-tuple ring buffers; followers
    replay them, with Lamport-clock ordering across threads, BPF rewrite
    rules on divergence, descriptor grants over the data channel, and
    transparent failover when a variant crashes. *)

type t

type role = Leader | Follower

exception Divergence_kill of string
(** Raised inside a follower whose divergence was not permitted by its
    rewrite rules; the monitor turns it into a crash notification. *)

type shared_spawn
(** A spawn hub: one zygote process, one content-addressed rewrite cache
    and one pristine image per code profile. Every session forks its
    variants through one — its own, or one several sessions share (the
    sharded serving layer), so the spawn fast path is paid once per hub
    rather than per session. Fork requests dispatch to the owning session
    by variant name, which must therefore be unique across the sessions
    sharing a hub. *)

val shared_spawn : unit -> shared_spawn
(** Fresh hub; the zygote process itself is created lazily by the first
    session coordinator that runs. *)

val shared_zygote : shared_spawn -> Zygote.t option
(** The hub's resident zygote, once some session's coordinator created
    it ([None] before the engine has run). *)

val shared_cache : shared_spawn -> Varan_binary.Rewrite_cache.t
(** The hub's shared rewrite cache. *)

val launch :
  ?config:Config.t ->
  ?scope:string ->
  ?shared:shared_spawn ->
  Varan_kernel.Types.t ->
  Variant.t list ->
  t
(** Set up and start the session. All variants' tasks are scheduled; the
    caller then runs the engine. The first variant is the initial leader.

    [scope] names the session: its post-mortem bundle files
    (["postmortem-shard2-N.json"] for scope ["shard2"]) and its trace
    track. Without it the bundles are named ["session"].

    The session spawns through [shared] when given, and otherwise through
    a private {!shared_spawn} hub of its own. A private hub's zygote is
    shut down once the variants are forked, unless the lifecycle manager
    keeps it resident for respawns; a shared hub's zygote always stays
    resident, since sibling sessions and their respawns keep using it.
    The checkpoint store remains per-session — snapshots are keyed by
    variant index, which is only unique within a session.

    @raise Invalid_argument on an empty variant list, inconsistent unit
    shapes, two variants of one name, or a variant name already
    registered with [shared]. *)

val leader_index : t -> int
val role_of : t -> int -> role
val is_alive : t -> int -> bool
val alive_count : t -> int

val crashes : t -> (int * string) list
(** Variants that crashed, oldest first, with the exception text. The
    list is bounded (64 entries); {!crash_count} has the true total. *)

val crash_count : t -> int
(** Total crashes ever, including those beyond the bounded list. *)

val degraded : t -> string option
(** When the session fell back to native-speed leader-only execution
    (all followers dead, no leader left to elect, or the lifecycle
    manager's [min_followers] floor), the reported reason. [None] while
    N-version execution is still in force. *)

(** {1 Statistics} *)

type variant_stats = {
  vs_name : string;
  vs_role : role;
  vs_alive : bool;
  vs_syscalls : int;  (** calls through the interposed entry point *)
  vs_local_calls : int;
  vs_events_published : int;
  vs_events_consumed : int;
  vs_stall_blocks : int;  (** times a follower found the ring empty *)
  vs_stall_cycles : int64;  (** virtual time spent waiting for events *)
  vs_wait_charge_cycles : int64;
      (** cycles charged by the waiting machinery itself (waitlock
          block/wake, spin checks) *)
  vs_sys_cycles : int64;  (** virtual time inside the syscall layer *)
  vs_divergences_executed : int;  (** BPF verdict: follower-local call *)
  vs_divergences_skipped : int;  (** BPF verdict: leader event dropped *)
  vs_divergences_coalesced : int;
      (** smaller follower writes served as slices of one buffered leader
          write — the coalescing pattern of §2.3 *)
  vs_bpf_steps : int;
  vs_jump_dispatches : int;
  vs_trap_dispatches : int;
  vs_vdso_dispatches : int;
  vs_injected_stalls : int;
      (** [Stall_follower] injections that actually fired on this
          variant — each armed injection fires at most once *)
  vs_sibling_waits : int;
      (** times one of its units, elected leader, waited for sibling
          threads to replay the events already routed to them *)
  vs_incarnation : int;
      (** times this variant was respawned by the lifecycle manager *)
  vs_rewrite : Varan_binary.Rewriter.stats option;
  vs_spawn_ns : float;
      (** wall-clock nanoseconds spent preparing this variant's image
          across all incarnations (spawn fast path latency) *)
  vs_spawn_preps : int;  (** image preparations: 1 cold + one per respawn *)
  vs_lanes : Varan_ringbuf.Lanes.stats option;  (** while it has lanes *)
}

type stats = {
  variants : variant_stats array;
  rings : Varan_ringbuf.Ring.stats array;
  pool : Varan_shmem.Pool.stats;
  max_observed_lag : int;
  rewrite_cache : Varan_binary.Rewrite_cache.stats;
      (** the resident zygote cache's hit/miss/rebase tallies — the
          spawn fast path's effectiveness ([misses] = distinct images
          rewritten cold, [rebases] = launches served by rebase) *)
  pristine_generations : int;
      (** pristine text images generated, one per distinct code profile
          the zygote has mapped (shared with the hub's other sessions) *)
  checkpoints : Checkpoint.stats;
      (** rr-style fast-rejoin tallies: snapshots taken, respawns served
          by a restore, and the tape delta replayed instead of the full
          stream *)
  tapes : Tape.stats array;
      (** per-tuple recorder footprint — with checkpointing enabled the
          retention policy keeps [resident_bytes] bounded regardless of
          stream length *)
  bridge : Varan_net.Bridge.stats option;
      (** cross-node ring bridge tallies (distributed mode only):
          batches shipped, retransmits, acks, selective-replication
          bytes saved *)
  link : Varan_net.Link.stats option;
      (** the underlying link's frame accounting, fault injections
          included *)
  lifecycle : Lifecycle.report option;
      (** per-follower lifecycle states and transition counters, with
          the session's {!degraded} reason; [None] when
          {!Config.t.lifecycle} was not set *)
}

val stats : t -> stats
(** The one snapshot of the session: every per-variant, ring, pool,
    spawn, checkpoint, tape, bridge and lifecycle tally, taken at the
    call. A finished session's snapshot no longer changes. *)

val sample_lag : t -> int -> int
(** Current event lag of variant [idx] on its tuple-0 ring: the "distance
    between the leader and the follower" measured in §5.3. *)

val observe_lags : t -> unit
(** Record the current lags into the running maximum (benchmarks call
    this periodically). *)

val trace_lines : t -> string list
(** With {!Config.t.trace_first_variant} set: the strace-style trace of
    variant 0's main unit, as observed {e through} the monitor. *)

(** {1 Hooks for the record-replay clients (§5.4)} *)

val tuple_ring : t -> int -> Varan_ringbuf.Event.t Varan_ringbuf.Ring.t
(** The shared ring of the given tuple (shared-ring mode). A recorder
    registers as an extra consumer on it. *)

val tuple_tape : t -> int -> Tape.t option
(** The lifecycle manager's per-tuple catch-up tape; [None] without a
    lifecycle policy (no tape is recorded) or for an unknown tuple. The
    time-travel replay entry point reads it together with
    {!checkpoint_store}. *)

val checkpoint_store : t -> Checkpoint.t
(** The session's follower checkpoint store. The session owns it, so
    snapshots outlive the incarnation they captured. *)

val pristine_image : t -> Variant.code_profile -> Bytes.t option
(** The zygote's pristine text for a code profile, once some variant of
    this session (or of its hub) has mapped it. The bytes are the store's
    own: read them, do not write them. *)

val flight : t -> Varan_obs.Flight.t
(** The session's flight recorder — the black box dumped as a post-mortem
    bundle on divergence, quarantine-kill or degradation. Each session
    creates its own at launch; no other session writes to it. *)

val bundle_counters : t -> (string * int) list
(** The ["counters"] object of this session's post-mortem bundles: its
    own lifecycle and checkpoint tallies, sorted by name
    (["checkpoint.taken"], ["lifecycle.quarantines"], ...). *)

val materialize_payload : t -> Varan_ringbuf.Event.t -> Varan_ringbuf.Event.t
(** The event with its shared-memory payload copied into [inline_out];
    drops one reader's reference to the chunk, freeing it when every
    reader has passed it. An event without a payload comes back as is. *)
