(** Shared-memory pool allocator (§3.3.4 of the paper).

    The allocator has {e buckets} for different allocation sizes; each
    bucket holds a list of {e segments}, each segment is divided into
    equal-size {e chunks}, and each bucket keeps a free list of chunks.
    When a bucket runs out, it requests a fresh segment from the memory
    pool and splits it. A per-bucket lock must be held for each
    allocation — in the simulation the lock is uncontended (the engine is
    cooperative) but acquisitions are counted so the cost model can charge
    for them.

    Chunks carry a real [Bytes.t] buffer: the NVX event streamer uses them
    to move out-buffer syscall results from the leader to its followers. *)

type t

type chunk = {
  addr : int;  (** simulated shared-space address, stable for the chunk *)
  bucket : int;  (** bucket index *)
  data : Bytes.t;  (** chunk-size buffer backing the allocation *)
  mutable live : bool;
}

exception Out_of_memory

val create : ?capacity:int -> ?segment_bytes:int -> unit -> t
(** Pool with the given total [capacity] in bytes (default 16 MiB)
    split into segments (default 64 KiB). Bucket chunk sizes are powers
    of two from 64 B to the segment size. *)

val alloc : t -> int -> chunk
(** [alloc pool size] returns a chunk of at least [size] bytes.
    @raise Out_of_memory when the pool is exhausted.
    @raise Invalid_argument if [size] exceeds the segment size. *)

val free : t -> chunk -> unit
(** Return a chunk to its bucket's free list. Freeing a dead chunk is a
    programming error and raises [Invalid_argument]. *)

val write : chunk -> Bytes.t -> unit
(** Copy payload into the chunk. @raise Invalid_argument on overflow. *)

val read : chunk -> int -> Bytes.t
(** [read chunk len] copies [len] bytes back out into a fresh buffer.
    Prefer {!read_into} (caller-owned destination, no allocation) or
    {!view} (no copy at all) on hot paths. *)

val size : chunk -> int
(** Length of the chunk's backing buffer — the zero-alloc length check:
    callers clamp or validate a payload length against it without
    materialising the bytes. *)

val read_into : chunk -> ?pos:int -> Bytes.t -> len:int -> int
(** [read_into chunk dst ~len] copies [min len (size chunk)] bytes into
    [dst] starting at [pos] (default 0) and returns the count copied.
    The single copy of the follower-replay payload path: no intermediate
    buffer is allocated. *)

val view : chunk -> len:int -> (Bytes.t -> int -> int -> 'a) -> 'a
(** [view chunk ~len f] calls [f buf off n] with a zero-copy borrow of
    the chunk's backing buffer, where [n = min len (size chunk)] and
    [buf.[off..off+n-1]] are the payload bytes. The borrow is only valid
    during the callback and only while the chunk is live: [f] must not
    retain [buf], mutate it, or free the chunk — a freed chunk's buffer
    is recycled by the next allocation. Used by consumers that fold over
    the payload (digests, serializers) without owning a copy. *)

type stats = {
  allocs : int;
  frees : int;
  segments_in_use : int;
  bytes_reserved : int;  (** capacity handed to buckets *)
  live_chunks : int;
  lock_acquisitions : int;
}

val stats : t -> stats
val chunk_capacity : t -> chunk -> int
