(** Follower checkpoint store (rr-style fast rejoin).

    A checkpoint freezes everything a respawned follower needs to resume
    mid-stream instead of replaying its whole history: the follower's
    tuple-0 stream cursor and Lamport clock, its descriptor table
    ({!Varan_kernel.Kernel.fd_snapshot} — shared open-file descriptions
    by identity, like a grant), and the program's own resumable state as
    an opaque byte blob produced through
    {!Varan_kernel.Api.t.checkpoint_hook}. The watchdog arms a capture
    every [checkpoint_interval] cycles ({!Lifecycle.policy}); the
    follower snapshots at its next syscall boundary; {!Session} then
    restores the nearest checkpoint at or below the splice point on
    respawn and replays only the tape delta — rejoin latency is bounded
    by the checkpoint interval, not by session length.

    The session owns the store ({!Session.checkpoint_store}), so
    snapshots outlive the incarnation they captured. It is
    content-addressed: state blobs are interned by digest, so identical
    deterministic state captured by several followers — or successive
    incarnations of one — is stored once. *)

type snapshot = {
  cp_idx : int;  (** variant the checkpoint was captured from *)
  cp_seq : int;  (** tuple-0 stream cursor: next event to consume *)
  cp_clock : int;  (** tuple-0 Lamport clock at capture (= [cp_seq]) *)
  cp_fds : Varan_kernel.Kernel.fd_snapshot;
  cp_state : Bytes.t;  (** opaque program state; aliases the interned
                           blob — treat as read-only *)
}

type t

val create : unit -> t
(** An empty store. Four checkpoints are retained per variant, newest
    first; older ones are evicted and their blobs dropped when no other
    snapshot shares them. *)

val store : t -> snapshot -> unit
(** File a capture. A same-variant, same-seq predecessor is replaced.
    Counts toward {!stats}' [taken] and [dedup_hits]. *)

val latest_at_most : t -> idx:int -> seq:int -> snapshot option
(** The newest checkpoint of variant [idx] at or below stream position
    [seq] — what a respawn restores before replaying the tape delta. *)

val latest_seq : t -> idx:int -> int option
(** Newest checkpoint position of variant [idx]; the tape retention
    floor is the minimum of these over recoverable followers. *)

val nearest_any : t -> seq:int -> snapshot option
(** Newest checkpoint at or below [seq] across all variants — the
    time-travel entry point ([varan replay --at]) doesn't care whose
    state it restores; the stream position fully determines it. A tie
    on position goes to the lowest variant index. *)

val note_restore : t -> delta:int -> unit
(** Account one restore that replayed [delta] tape events. *)

type stats = {
  taken : int;
  restores : int;
  delta_events : int;  (** tape events replayed after restores, total *)
  dedup_hits : int;
  resident_blobs : int;  (** distinct state blobs currently held *)
  resident_bytes : int;
}

val stats : t -> stats
