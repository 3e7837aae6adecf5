(** Per-follower health state machine for the self-healing session.

    VARAN's original answer to a slow or crashed follower is terminal:
    the variant is removed and never comes back, and until it is removed
    a stalled follower back-pressures the leader through the ring's
    gating sequence. The lifecycle manager replaces that with a watchdog
    driven cycle

    {v Healthy <-> Lagging -> Quarantined -> Respawning -> Catching_up -> Healthy
                                  |
                                  +-> Dead (restart budget exhausted) v}

    Crashes add two shortcuts: a crashed follower enters [Quarantined]
    straight from [Healthy] or [Catching_up] (no lag preceded it), and a
    variant that crashes while {e leading} goes straight to [Dead] — a
    dead leader never rejoins.

    Distributed sessions add [Unreachable], the link-degraded sibling of
    [Quarantined]: when the cross-node bridge reports the remote node
    partitioned away, its followers park there — the bridge detaches so
    the leader's gate is freed, exactly the quarantine invariant — but
    no restart budget burns, because the follower is presumed healthy
    behind a broken wire. A healed partition re-enters through the same
    [Respawning -> Catching_up] checkpoint + tape-delta door; a retired
    tape prefix or a degraded session ends it at [Dead] instead.

    A watchdog in the engine tick measures each follower's ring lag and
    cycles-since-progress against the {!policy}; a tripped follower is
    {e quarantined} (its ring consumers removed so the leader's gate can
    never again wait on it) while the session's tape retains the stream,
    then respawned from the zygote after an exponential backoff, replays
    the recorded prefix, and splices back into the live ring. The state
    machine itself is pure bookkeeping — {!Session} drives it. *)

type policy = {
  lag_threshold : int;
      (** events of tuple-0 ring lag before a follower counts as lagging *)
  stall_timeout : int;
      (** cycles without consumer progress before a lagging follower is
          quarantined *)
  max_restarts : int;
      (** respawns allowed per follower; the next trip after the budget
          is exhausted is terminal ([Dead]) *)
  backoff : int;
      (** base respawn delay in cycles; attempt [n] waits
          [backoff * 2^(n-1)] *)
  min_followers : int;
      (** when fewer than this many followers remain recoverable, the
          session degrades to native-speed leader-only execution *)
  watchdog_period : int;  (** watchdog tick period in cycles *)
  checkpoint_interval : int;
      (** cycles between follower checkpoints (rr-style fast rejoin);
          the watchdog arms a capture every interval and the follower
          snapshots at its next syscall boundary. [0] disables
          checkpointing — respawns then replay the full tape. *)
}

val default_policy : policy

val backoff_delay : policy -> restarts:int -> int
(** Delay before the next respawn of a follower already respawned
    [restarts] times. *)

type state =
  | Healthy
  | Lagging
  | Quarantined
  | Respawning
  | Catching_up
  | Unreachable
  | Dead

val state_name : state -> string

type entry = {
  e_idx : int;
  mutable e_state : state;
  mutable e_restarts : int;
  mutable e_last_cursor : int;
  mutable e_last_progress : int64;
  mutable e_quarantine_seq : int;
  mutable e_respawn_due : int64;
  mutable e_reason : string;
}
(** Mutable per-follower ledger; the session reads and writes the fields
    directly from the watchdog and the quarantine/respawn agents. *)

type t

val create : policy -> variants:int -> t
(** One ledger per session: its transition counters live here and
    nowhere else ({!report} reads them). *)

val entry : t -> int -> entry
val state : entry -> state
val policy : t -> policy

val transition : t -> entry -> state -> unit
(** Move the entry to a new state, updating the transition counters.
    Illegal transitions are counted rather than raised — the report
    surfaces them as a lifecycle-manager bug. *)

val set_on_transition :
  t -> (idx:int -> from_:string -> to_:string -> reason:string -> unit) -> unit
(** Observability tap: [f] is called on every {!transition}, before the
    entry mutates, with the entry's current reason string. The session
    wires this to its flight recorder. The watchdog transitions from
    scheduler context, so [f] must not perform engine effects. *)

val recoverable_followers : t -> leader_idx:int -> int
(** Followers neither permanently [Dead] nor parked [Unreachable] — the
    count compared against [min_followers]. A partition has no deadline,
    so unreachable followers don't keep the session hopeful. *)

(** {1 Report} *)

type follower_report = {
  fr_idx : int;
  fr_state : state;
  fr_restarts : int;
  fr_reason : string;
}

type report = {
  followers : follower_report list;
  lagging : int;  (** Healthy -> Lagging transitions *)
  recovered : int;  (** Lagging -> Healthy transitions *)
  quarantines : int;
  respawns : int;
  rejoins : int;  (** Catching_up -> Healthy transitions *)
  unreachable : int;  (** transitions into [Unreachable] *)
  deaths : int;
  illegal_transitions : int;  (** nonzero means a lifecycle bug *)
  degraded_reason : string option;  (** the session's, as given to {!report} *)
}

val report : t -> leader_idx:int -> degraded:string option -> report
(** The ledger's counters and every non-leader entry, with the
    degradation reason the session owns ({!Session.degraded}). *)

val pp_report : Format.formatter -> report -> unit
