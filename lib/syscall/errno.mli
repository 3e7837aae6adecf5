(** Error numbers returned by the simulated kernel.

    Values and names follow Linux/x86-64. [ERESTARTSYS] is the in-kernel
    "restart this call" code that VARAN's syscall entry point understands
    for transparent failover (§3.2, §5.1). *)

type t =
  | EPERM
  | ENOENT
  | EINTR
  | EIO
  | EBADF
  | EAGAIN
  | ENOMEM
  | EACCES
  | EFAULT
  | EBUSY
  | EEXIST
  | ENOTDIR
  | EISDIR
  | EINVAL
  | ENFILE
  | EMFILE
  | ENOSPC
  | ESPIPE
  | EROFS
  | EPIPE
  | ENOSYS
  | ENOTEMPTY
  | ELOOP
  | ENOTSOCK
  | EDESTADDRREQ
  | EMSGSIZE
  | EPROTONOSUPPORT
  | EOPNOTSUPP
  | EADDRINUSE
  | EADDRNOTAVAIL
  | ENETUNREACH
  | ECONNABORTED
  | ECONNRESET
  | ENOBUFS
  | EISCONN
  | ENOTCONN
  | ETIMEDOUT
  | ECONNREFUSED
  | EINPROGRESS
  | ERESTARTSYS

val to_int : t -> int
(** Positive errno value (ERESTARTSYS = 512, as in the kernel). *)

val of_int : int -> t option
val name : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
