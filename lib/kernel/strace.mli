(** strace-style system call tracing.

    One of VARAN's selling points over ptrace-based monitors is that the
    traced application can still be inspected with ptrace-based tools like
    strace and GDB (§3.1) — the monitor does not occupy the ptrace slot.
    This module provides the equivalent facility for simulated programs:
    wrap any {!Api.t} and every call through it is appended to an
    in-memory trace in strace's familiar rendering, e.g.

    {v
    open("/www/index.html", 0) = 3
    read(3, <out:4096B>) = 4096
    close(3) = 0
    time(0) = 1700000000
    write(4, <in:18B>) = 18
    epoll_wait(5, 64, -1) = 1 <out:8B>
    v} *)

type t

val attach : ?limit:int -> Api.t -> Api.t * t
(** [attach api] returns a tracing wrapper of [api] and the trace handle.
    At most [limit] lines are kept (default 10_000); later calls still
    execute but are only counted. *)

val lines : t -> string list
(** Trace lines, oldest first. *)

val calls : t -> int
(** Total calls traced (including those beyond the line limit). *)
