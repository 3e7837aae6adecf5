(** Framed messages over the simulated TCP streams.

    All benchmark protocols (HTTP-ish requests, Redis-ish commands,
    memcached-ish gets) are carried as length-prefixed frames: a 4-byte
    little-endian length followed by the payload. Helpers here loop until
    a whole frame has been sent or received, so servers and clients stay
    correct even when the byte stream fragments.

    {b Buffer ownership} (as in {!Varan_kernel.Api}). A buffer handed to a
    send stays the sender's: the kernel copies it before the call
    returns, so a frame may be built once and sent any number of times. A
    message returned by {!recv_msg} is read-only: it may be the buffer a
    single read returned, which under NVX is a result buffer the
    recorder's tape and sibling followers share. *)

open Varan_kernel

val header_len : int
(** Bytes of the length prefix (4); a frame's payload starts here. *)

val frame_alloc : int -> Bytes.t
(** [frame_alloc n] is a frame for an [n]-byte payload with its header
    written and the payload bytes at [header_len] left for the caller to
    fill: a reply built straight into its frame costs one allocation. *)

val frame : Bytes.t -> Bytes.t
(** The payload copied behind a header. A whole frame is sent with
    {!Varan_kernel.Api.write_all}. *)

val frame_of_string : string -> Bytes.t

val send_msg : Api.t -> int -> Bytes.t -> (unit, Varan_syscall.Errno.t) result
(** [Api.write_all] of [frame payload]. *)

val recv_msg : Api.t -> int -> (Bytes.t option, Varan_syscall.Errno.t) result
(** [Ok None] on clean EOF before a new frame starts. The payload is
    read-only (see above). *)
