(** Bounded in-memory stream tape for follower rejoin (rr-style
    catch-up).

    When the lifecycle manager is enabled, the session appends every
    published event to a per-tuple tape, flattened: shared-memory
    payloads are copied to inline bytes at capture time (before the pool
    chunk can be recycled), while tid, args, return value, Lamport stamp
    and descriptor grant are kept verbatim. A follower respawned from
    the zygote replays tape events [restore, splice) through the
    ordinary replay path and then switches to the live ring at sequence
    [splice] — the recorded window is exactly what it missed.

    The tape holds bytes, not records, so recorder memory stays bounded
    on million-event streams. {!append} encodes each event once, into
    the open segment's reused buffer: a header byte (kind and whether a
    result buffer follows), LEB128 tid, argument count and syscall
    number, zigzag LEB128 clock step from the previous event, return
    value and arguments, then the result buffer's length and bytes. The
    result buffer is copied, never kept. A full segment (256 events) is
    sealed by run-length packing its buffer (PackBits); sealed segments
    below the retention floor (the oldest live checkpoint, see
    {!Checkpoint}) are retired with {!retire}. Grants are opaque runtime
    handles and ride beside the bytes. Absolute indices never shift —
    event [i] is event [i] forever, and a read below {!base} raises
    {!Truncated}.

    {!append} is the only event encoder and this the only event byte
    format. The record/replay log ({!Record_replay}) is a sequence of
    frames, each one segment's image (see {!images}): the recorder
    appends to a tape of its own and writes each segment out, and
    {!Record_replay.serialize_tape} writes a degraded session's retained
    stream as a log that can later provision fresh followers. *)

type t

exception Truncated of { requested : int; base : int }
(** Read below the oldest retained event: the segment holding
    [requested] was retired; [base] is the oldest index still
    replayable. *)

val segment_events : int
(** Events per segment, 256: a segment seals — and can later be retired
    — only as a whole, and a record/replay log frame holds one segment. *)

val create : unit -> t
(** An empty tape. *)

val length : t -> int
(** Events ever appended; also the next index to be written. *)

val base : t -> int
(** Oldest retained index. [0] until {!retire} drops a segment. *)

val append : t -> Varan_ringbuf.Event.t -> out:Bytes.t option -> unit
(** Capture one published event. [out] is the event's full result buffer
    (pool payload or inline), already materialized by the publisher.
    Pure — callable from inside {!Varan_ringbuf.Ring.publish_k}. *)

val get : t -> int -> Varan_ringbuf.Event.t
(** Event [i] as appended, with its grant, except that its result buffer
    travels in [inline_out] whatever its size ([payload] is [None]: the
    pool chunk is long gone). O(1) in the open segment, where each call
    decodes afresh; a sealed segment is decoded whole on first touch and
    cached, so sequential scans are cheap.
    @raise Invalid_argument outside [0, length).
    @raise Truncated below {!base}. *)

val retire : t -> keep_from:int -> unit
(** Drop whole sealed segments strictly below [keep_from]; afterwards
    {!base} is the first index of the oldest surviving segment (so it
    may round down below [keep_from] — truncation happens exactly at a
    segment boundary, never mid-segment). Monotone: never re-grows the
    window, never touches the open segment. *)

val images : t -> Bytes.t list
(** The image of each retained segment, oldest first: the encoding of
    its events, run-length packed, exactly as a seal stores it. They
    cover events [\[base, length)] in runs of {!segment_events}, since
    {!retire} drops whole segments. Grants are not part of an image. A
    sealed segment's image is its stored bytes, shared and not to be
    modified; only the open segment, if it holds events, is packed
    afresh. Nothing is decoded. *)

val of_image : Bytes.t -> (Varan_ringbuf.Event.t array, string) result
(** The events of one segment's image, in order, each as {!get} returns
    it but with no grant. Any byte string that no segment packs to is an
    [Error] naming what is wrong — a bad PackBits control or a cut-off
    run, a truncated entry, a varint that is over-long or wider than 63
    bits, an out length past the end, a bad kind code, more events than
    a segment holds — never an exception or a phantom event. *)

val resident_bytes : t -> int
(** Bytes currently held: packed sealed segments plus the open
    segment's encoded bytes. Bounded by retention, not by stream
    length. *)

type stats = {
  segments_sealed : int;
  segments_retired : int;
  resident_bytes : int;
  packed_bytes : int;  (** resident compressed bytes (sealed only) *)
  raw_bytes : int;  (** same segments before packing, for the ratio *)
}

val stats : t -> stats
