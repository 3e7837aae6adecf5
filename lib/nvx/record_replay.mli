(** Record-replay on top of event streaming (§5.4).

    Two artificial clients extend VARAN into a full record-replay system:

    - the {e recorder} acts as one more follower whose only job is to
      drain the ring buffer and append events to persistent storage
      (batched into page-sized writes), decoupling logging from the
      application;
    - the {e replayer} acts as the leader during replay, reading the log
      and publishing events into a ring consumed by any number of replay
      clients — which is how several versions can be replayed at once
      against one recorded execution.

    A cost model of {e Scribe} (kernel-based record-replay) is provided
    for the paper's comparison: it charges the recording overhead inline
    on every syscall of the recorded process. *)

type recorder

val record :
  Session.t -> Varan_kernel.Types.t -> tuple:int -> path:string -> recorder
(** Attach a recorder to the session's ring for [tuple], writing the
    binary log to [path] in the simulated filesystem. Must be called
    before the workload starts publishing (the recorder only sees events
    published after it attaches). *)

val stop : recorder -> unit
(** Flush buffered events, close the log and stop the recorder task.
    Must be called from inside an engine task (it wakes the ring). *)

val recorded_events : recorder -> int

val serialize_tape : Tape.t -> Bytes.t
(** Encode a lifecycle catch-up {!Tape} in the recorder's on-disk log
    format. Writing the result to a file yields a log {!replay} accepts —
    how a degraded session's retained stream provisions fresh followers
    offline. Only the retained window [{!Tape.base}, {!Tape.length}) is
    encoded: segments retired by the checkpoint retention policy are
    gone. *)

(** {2 Log decoding} *)

type cursor = { data : Bytes.t; mutable pos : int }

val deserialize :
  cursor ->
  (Varan_ringbuf.Event.kind * int * int * int * int * int array * Bytes.t)
  option
(** Decode one record ([kind, tid, sysno, clock, ret, args, out]) and
    advance the cursor. [None] at a clean end of data — and also on a
    torn tail record (cut off mid-header or mid-payload), a record
    whose kind byte is not an event kind, or one whose [ret] or argument
    does not fit OCaml's 63-bit [int], in which case the cursor is
    left {e before} the bad record so callers can tell the two apart by
    comparing [pos] against the data length. *)

(** {1 Time travel} *)

type time_travel = {
  tt_at : int;  (** the requested stream position *)
  tt_base : int;  (** oldest retained tape index at lookup time *)
  tt_checkpoint : Checkpoint.snapshot option;
      (** the snapshot a restore would start from; [None] = cold start *)
  tt_delta : Varan_ringbuf.Event.t list;
      (** the tape events replayed after it, in stream order *)
}

val time_travel : Session.t -> at:int -> (time_travel, string) result
(** [varan replay --at <seq>]'s engine: reconstruct how a checkpointed
    rejoin would reach tuple-0 stream position [at] — the nearest retained
    checkpoint at or below it plus the tape delta behind it. [Error]
    (never an exception) when the session has no tape, [at] is out of
    range, or [at] predates the oldest retained segment with no
    checkpoint covering it. *)

(** {1 Replay} *)

type replayer

val replay :
  Varan_kernel.Types.t ->
  path:string ->
  Variant.t list ->
  replayer
(** Launch the given variants as pure replay clients fed from the log:
    every streamed syscall returns the recorded result; nothing touches
    the outside world. Several variants replay the same log at once,
    through a ring of {!Config.default}'s size. *)

val replayed_events : replayer -> int

val replay_ring : replayer -> Varan_ringbuf.Event.t Varan_ringbuf.Ring.t
(** The ring the replay leader republishes the log into — exposed so a
    {!Varan_trace.Oracle} can be attached to a replayed execution and its
    report compared against the live run's. *)

val replay_crashes : replayer -> (int * string) list
(** Replay clients that diverged from the log or crashed — the
    "which versions are susceptible to this crash" use case. *)

(** {1 The Scribe baseline} *)

val scribe_api :
  Varan_kernel.Types.t ->
  Varan_kernel.Types.proc ->
  Varan_kernel.Api.t
(** A syscall API that models Scribe: native execution plus the in-kernel
    recording charge on every call (per-syscall cost and per-byte copy of
    the payloads). *)
