(** The byte layouts of the kernel's structured arguments and results.

    Under NVX the leader records each call's result bytes and followers
    hand the same bytes back to their programs (§3.3 of the paper), so
    these layouts are the contract between {!Kernel}, which encodes, and
    {!Api}, which decodes. Every integer is little-endian, as on
    x86-64. A decoder reads what a buffer holds and ignores a trailing
    partial record. *)

val encode_pairs : (int * int) list -> Bytes.t
(** Int32 pairs, 8 bytes each: the [(fd, events)] of a poll spec and of
    poll, select and epoll_wait results, and the two fds pipe and
    socketpair return. *)

val decode_pairs : Bytes.t -> (int * int) list

val decode_fd_pair : Bytes.t -> (int * int) option
(** The two fds of a pipe or socketpair result: [None] unless the buffer
    holds exactly one pair. *)

val encode_fd_set : int list -> Bytes.t
(** One int32 per fd: a select read or write set. *)

val decode_fd_set : Bytes.t -> int list

val encode_word : int -> Bytes.t
(** One int32: wait4's status, and getsockname's stub address. *)

val decode_word : Bytes.t -> int

val stat_size : int
(** Bytes of a [struct stat]: 144, as x86-64 glibc's. *)

val encode_stat : size:int -> is_dir:bool -> Bytes.t
(** [st_mode] (0o040755 or 0o100644) at byte 24 and [st_size] at 48,
    every other byte zero. *)

val decode_stat : Bytes.t -> int * bool
(** [(st_size, is a directory)]. *)

val timespec_size : int
(** Bytes of a [struct timespec]: 16. *)

val encode_timespec : int64 -> Bytes.t
(** Nanoseconds as seconds at byte 0 and the remainder at byte 8. *)

val decode_timespec : Bytes.t -> int64
(** [0L] for a buffer shorter than {!timespec_size}. *)
