(** Typed system-call API for simulated programs.

    A program receives an {!t} whose [sys] function is its only gateway to
    the outside world — exactly the system-call boundary VARAN interposes
    on. Under native execution [sys] goes straight to {!Kernel.exec}; under
    NVX it goes through a monitor's system call table, which may execute,
    record, or replay the call (§3.2–3.3 of the paper).

    All wrappers construct the marshalled {!Varan_syscall.Args.t} form, so
    a monitor observes realistic argument payloads.

    {b Buffer ownership.} A buffer passed to a write ({!write},
    {!write_all}, {!send}) stays the caller's: the kernel copies what it
    accepts before the call returns, so the caller may reuse or mutate it
    at once. A buffer returned by a read ({!read}, {!recv}) is read-only
    to the program. Under NVX it may be the leader's result buffer,
    which the recorder's tape keeps and sibling followers (remote ones
    included) receive too. A program that needs to edit received bytes copies
    them first. *)

open Varan_syscall

type t = {
  proc : Types.proc;
  sys : Sysno.t -> Args.t -> Args.result;
  mutable compute_scale_c1000 : int;
      (** multiplier (in 1/1000 units) applied to {!compute} charges; the
          NVX layer uses it for sanitizer instrumentation overhead and
          memory-pressure slowdowns. 1000 = no scaling. *)
  mutable fork_child : ((t -> unit) -> int) option;
      (** how [fork] is implemented in this execution environment: plain
          process creation natively, the Ev_fork streaming protocol under
          NVX (installed by the runtime, not by programs). *)
  mutable checkpoint_hook : ((unit -> Bytes.t) -> unit) option;
      (** cooperative checkpointing: a program that supports snapshots
          calls the hook at every syscall boundary, passing an encoder
          for its own resumable state. The runtime (when a checkpoint is
          due) invokes the encoder and files the snapshot; otherwise the
          call is a cheap no-op. [None] natively. *)
  mutable resume_state : Bytes.t option;
      (** set by the runtime before a respawned program body starts: the
          program-state blob of the checkpoint being restored. A
          cooperative program decodes it, fast-forwards past the work
          already covered, and clears the field. *)
}

val direct : Types.t -> Types.proc -> t
(** Native (un-monitored) execution: straight into the kernel. *)

val with_sys : Types.proc -> (Sysno.t -> Args.t -> Args.result) -> t
(** An API whose gateway is the given interposed function — how a monitor
    wraps a program. *)

(** {1 Files} *)

val openf : t -> string -> int -> (int, Errno.t) result
val close : t -> int -> (int, Errno.t) result
val read : t -> int -> int -> (Bytes.t, Errno.t) result
(** [read api fd len]; [Bytes.empty] result means EOF. *)

val write : t -> int -> Bytes.t -> (int, Errno.t) result
val write_str : t -> int -> string -> (int, Errno.t) result
val write_all : t -> int -> Bytes.t -> (unit, Errno.t) result
(** Loop until every byte is accepted (blocking descriptors only). *)

val lseek : t -> int -> int -> int -> (int, Errno.t) result
val stat_size : t -> string -> (int, Errno.t) result
val fstat_size : t -> int -> (int, Errno.t) result
val unlink : t -> string -> (unit, Errno.t) result
val mkdir : t -> string -> (unit, Errno.t) result
val rename : t -> string -> string -> (unit, Errno.t) result
val access : t -> string -> (unit, Errno.t) result
val fcntl : t -> int -> int -> int -> (int, Errno.t) result
val dup : t -> int -> (int, Errno.t) result
val pipe : t -> (int * int, Errno.t) result

(** {1 Sockets} *)

val socket : t -> (int, Errno.t) result
val bind : t -> int -> int -> (unit, Errno.t) result
val listen : t -> int -> (unit, Errno.t) result
val accept : t -> int -> (int, Errno.t) result
val connect : t -> int -> int -> (unit, Errno.t) result
val send : t -> int -> Bytes.t -> (int, Errno.t) result
val recv : t -> int -> int -> (Bytes.t, Errno.t) result
val shutdown : t -> int -> int -> (unit, Errno.t) result
val socketpair : t -> (int * int, Errno.t) result
(** A connected pair of UNIX-domain-style sockets. *)

val poll :
  t -> (int * int) list -> timeout_ms:int -> ((int * int) list, Errno.t) result
(** [poll api [(fd, events); ...] ~timeout_ms] returns the ready
    [(fd, revents)] pairs. *)

val select :
  t -> read:int list -> write:int list -> timeout_ms:int ->
  ((int * int) list, Errno.t) result
(** select(2) over explicit read/write descriptor sets; the result pairs
    carry poll-style event masks. *)

(** {1 Event polling} *)

val epoll_create : t -> (int, Errno.t) result
val epoll_ctl : t -> int -> int -> int -> int -> (unit, Errno.t) result
val epoll_wait :
  t -> int -> max_events:int -> timeout_ms:int ->
  ((int * int) list, Errno.t) result
(** Returns [(fd, event-mask)] pairs. *)

(** {1 Process, time, misc} *)

val getpid : t -> int
val getuid : t -> int
val geteuid : t -> int
val getgid : t -> int
val getegid : t -> int
val time : t -> int
val clock_gettime_ns : t -> int64
val futex_wait : t -> int -> unit
val futex_wake : t -> int -> int -> int

val futex_lock : t -> int -> int
(** Acquire the futex word as a PI-style mutex; blocks while held.
    Returns the word's acquisition index (1-based, monotonic per futex) —
    under NVX, the streamed result that makes the leader's global
    lock-acquisition order observable to (and replayed by) followers. *)

val futex_unlock : t -> int -> int
(** Release a futex word held via {!futex_lock}, waking the oldest
    queued acquirer. Returns 0, or -EPERM if the word was not held. *)

val getrandom : t -> int -> (Bytes.t, Errno.t) result
val kill : t -> int -> int -> (unit, Errno.t) result

val set_signal_handler : t -> int -> (int -> unit) -> unit
(** Register a handler for a caught signal (issues [rt_sigaction] so the
    registration is visible at the syscall level, then installs the
    closure kernel-side). *)

val exit_group : t -> int -> unit
(** Terminates the calling task; does not return. *)

val fork : t -> (t -> unit) -> int
(** [fork api child_body] forks a child process running [child_body] with
    its own API, and returns the child's pid in the parent — the
    simulation's fork(2), with the child's code passed explicitly because
    closures cannot be cloned. Under NVX this streams an [Ev_fork] event
    and allocates a fresh ring buffer for the new process tuple (Â§3.3.3).
    @raise Invalid_argument if the environment installed no fork hook. *)

val compute : t -> int -> unit
(** Pure user-space computation: burn the given number of cycles (scaled
    by [compute_scale_c1000]) without entering the kernel. *)
