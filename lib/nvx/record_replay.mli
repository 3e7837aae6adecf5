(** Record-replay on top of event streaming (§5.4).

    Two artificial clients extend VARAN into a full record-replay system:

    - the {e recorder} acts as one more follower whose only job is to
      drain the ring buffer into persistent storage, decoupling logging
      from the application: it appends each event to a {!Tape} of its
      own and writes each full segment, and the short last one at
      {!stop}, as one frame;
    - the {e replayer} acts as the leader during replay, streaming the
      log a frame at a time into a ring consumed by any number of
      replay clients — which is how several versions can be replayed at
      once against one recorded execution. It holds one frame of the
      log at a time, not the whole file.

    The log is a sequence of frames: a u32 little-endian length, then
    one tape segment's image ({!Tape.images}): {!Tape.segment_events}
    events, fewer in the last frame only. The events are encoded by
    {!Tape.append} alone, in the same format as the lifecycle catch-up
    tape; this module only frames them, and {!read_log} and the replayer
    decode frames with the same code.

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
(** Write the partial last frame, close the log and stop the recorder task.
    Must be called from inside an engine task (it wakes the ring). *)

val recorded_events : recorder -> int

val serialize_tape : Tape.t -> Bytes.t
(** Frame a lifecycle catch-up {!Tape} as a record/replay log. Writing
    the result to a file yields a log {!replay} accepts — how a degraded
    session's retained stream provisions fresh followers offline. Only
    the retained window [{!Tape.base}, {!Tape.length}) is framed:
    segments retired by the checkpoint retention policy are gone. *)

val read_log : Bytes.t -> Varan_ringbuf.Event.t list * string option
(** The events of every whole frame, in order, and [None] at a clean
    end; or, where decoding stopped early, the reason, naming the
    frame's byte offset: a truncated length, a length past the end, an
    image {!Tape.of_image} rejects, or a frame of fewer than
    {!Tape.segment_events} events that is not the last (or of none).
    Never raises, and never yields an event the log does not hold.
    Events carry their result buffer in [inline_out] and no grant. *)

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
    through a ring of {!Config.default}'s size. The replay leader reads
    the log a frame at a time and publishes each frame before it reads
    the next; it publishes exactly the events {!read_log} yields for the
    same bytes, so a short frame waits until the leader has seen that
    nothing follows it. *)

val replayed_events : replayer -> int

val replay_ring : replayer -> Varan_ringbuf.Event.t Varan_ringbuf.Ring.t
(** The ring the replay leader republishes the log into — exposed so a
    {!Varan_trace.Oracle} can be attached to a replayed execution and its
    report compared against the live run's. *)

val replay_crashes : replayer -> (int * string) list
(** Replay clients that diverged from the log or crashed — the
    "which versions are susceptible to this crash" use case. *)

val replay_stopped : replayer -> string option
(** Why the log ended before its end ({!read_log}'s reason for the same
    bytes), once the replay leader has reached it; [None] for a whole
    log, or while the leader is still reading. A torn or corrupt log
    replays its whole-frame prefix, so a replay that stopped early is a
    shorter run, and this says so. *)

(** {1 The Scribe baseline} *)

val scribe_api :
  Varan_kernel.Types.t ->
  Varan_kernel.Types.proc ->
  Varan_kernel.Api.t
(** A syscall API that models Scribe: native execution plus the in-kernel
    recording charge on every call (per-syscall cost and per-byte copy of
    the payloads). *)
