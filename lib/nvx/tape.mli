(** Bounded in-memory stream tape for follower rejoin (rr-style
    catch-up).

    When the lifecycle manager is enabled, the session appends every
    published event to a per-tuple tape, flattened: shared-memory
    payloads are copied to inline bytes at capture time (before the pool
    chunk can be recycled), while tid, args, return value, Lamport stamp
    and descriptor grant are kept verbatim. A follower respawned from
    the zygote replays tape entries [restore, splice) through the
    ordinary replay path and then switches to the live ring at sequence
    [splice] — the recorded window is exactly what it missed.

    The tape holds bytes, not records, so recorder memory stays bounded
    on million-event streams. {!append} encodes each entry once, into
    the open segment's reused buffer: a header byte (kind and whether a
    result buffer follows), LEB128 tid, argument count and syscall
    number, zigzag LEB128 clock step from the previous entry, return
    value and arguments, then the result buffer's length and bytes. The
    result buffer is copied, never kept. A full segment (256 entries) is
    sealed by run-length packing its buffer (PackBits); sealed segments
    below the retention floor (the oldest live checkpoint, see
    {!Checkpoint}) are retired with {!retire}. Grants are opaque runtime
    handles and ride beside the bytes. Absolute indices never shift —
    entry [i] is entry [i] forever, and a read below {!base} raises
    {!Truncated}.

    {!Record_replay.serialize_tape} bridges a tape into the on-disk
    record/replay log format, which is how a degraded session's retained
    stream can later provision fresh followers. *)

type entry = {
  t_kind : Varan_ringbuf.Event.kind;
  t_sysno : int;
  t_tid : int;
  t_args : int array;
  t_ret : int;
  t_clock : int;
  t_out : Bytes.t option;
  t_grant : Obj.t option;
}

type t

exception Truncated of { requested : int; base : int }
(** Read below the oldest retained entry: the segment holding
    [requested] was retired; [base] is the oldest index still
    replayable. *)

val create : unit -> t
(** An empty tape. Entries seal in segments of 256: a segment seals —
    and can later be retired — only as a whole. *)

val length : t -> int
(** Events ever appended; also the next index to be written. *)

val base : t -> int
(** Oldest retained index. [0] until {!retire} drops a segment. *)

val append : t -> Varan_ringbuf.Event.t -> out:Bytes.t option -> unit
(** Capture one published event. [out] is the event's full result buffer
    (pool payload or inline), already materialized by the publisher.
    Pure — callable from inside {!Varan_ringbuf.Ring.publish_k}. *)

val get : t -> int -> entry
(** O(1) in the open segment, where each call decodes a fresh record;
    a sealed segment is decoded whole on first touch and cached.
    @raise Invalid_argument outside [0, length).
    @raise Truncated below {!base}. *)

val event_of_entry : entry -> Varan_ringbuf.Event.t
(** Reconstruct a stream event; the payload travels inline regardless of
    size (the pool chunk is long gone). *)

val event_at : t -> int -> Varan_ringbuf.Event.t
(** [event_of_entry (get t i)]. Sequential scans are cheap: the last
    decoded segment is cached. *)

val iter : (entry -> unit) -> t -> unit
(** Iterate the retained window [{!base}, {!length}) in order. *)

val retire : t -> keep_from:int -> unit
(** Drop whole sealed segments strictly below [keep_from]; afterwards
    {!base} is the first index of the oldest surviving segment (so it
    may round down below [keep_from] — truncation happens exactly at a
    segment boundary, never mid-segment). Monotone: never re-grows the
    window, never touches the open segment. *)

val kind_code : Varan_ringbuf.Event.kind -> int
(** The number that encodes an event kind, in the segment header byte
    and in the record/replay log ({!Record_replay}) alike. *)

val kind_of_code : int -> Varan_ringbuf.Event.kind option
(** The inverse of {!kind_code}; [None] for a byte that names no kind. *)

val image : entry array -> Bytes.t
(** The sealed image of a segment holding [entries]: their encoding,
    run-length packed, exactly as a seal stores it (grants are not
    part of it). Exposed so the format can be checked byte for byte. *)

val of_image : Bytes.t -> (entry array, string) result
(** The inverse of {!image}, with every [t_grant] [None]. Any byte
    string that {!image} cannot produce is an [Error] naming what is
    wrong — a bad PackBits control or a cut-off run, a truncated entry,
    a varint that is over-long or wider than 63 bits, an out length past
    the end, a bad kind code — never an exception or a phantom entry. *)

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
