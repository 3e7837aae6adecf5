(** FIFO byte queue used for pipe and socket buffers.

    Semantically a TCP-style byte stream: writers append chunks, readers
    consume any available prefix; chunk boundaries are not preserved.

    The queue owns what it holds. {!write} keeps the buffer it is given
    rather than copying it, so the caller (the kernel, which copies the
    accepted prefix of the user's buffer once at the system-call
    boundary) must not touch that buffer again. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the number of buffered bytes (default 1 MiB);
    {!write} refuses to exceed it. *)

val length : t -> int
val is_empty : t -> bool
val space : t -> int

val write : t -> Bytes.t -> unit
(** [write q b] appends all of [b] and takes ownership of it: the caller
    must not mutate [b] afterwards. The caller clips [b] to {!space}.
    @raise Invalid_argument if [b] is longer than {!space}. *)

val read : t -> int -> Bytes.t
(** [read q n] removes and returns up to [n] buffered bytes (an empty
    result iff the queue is empty), always in a fresh buffer. *)

val peek : t -> int -> Bytes.t
(** Like {!read} without removing. *)
