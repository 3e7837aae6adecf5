(** System call numbers and classification.

    VARAN must understand system call {e semantics} in order to transfer
    arguments and results between the leader and its followers (§3.3): a
    call whose result fits in registers can travel inside a single ring
    buffer event, an out-buffer call needs a shared-memory copy, a call
    returning a file descriptor needs the UNIX-socket data channel, and
    virtual system calls (vDSO) never enter the kernel at all.

    The numbering follows the x86-64 Linux syscall table; the paper's
    prototype implements 86 calls ("all the system calls encountered across
    our benchmarks") and we cover a comparable set. *)

type t =
  | Read
  | Write
  | Open
  | Close
  | Stat
  | Fstat
  | Lstat
  | Poll
  | Lseek
  | Mmap
  | Mprotect
  | Munmap
  | Brk
  | Rt_sigaction
  | Rt_sigprocmask
  | Rt_sigreturn
  | Ioctl
  | Pread64
  | Pwrite64
  | Readv
  | Writev
  | Access
  | Pipe
  | Select
  | Sched_yield
  | Madvise
  | Dup
  | Dup2
  | Pause
  | Nanosleep
  | Getpid
  | Sendfile
  | Socket
  | Connect
  | Accept
  | Sendto
  | Recvfrom
  | Sendmsg
  | Recvmsg
  | Shutdown
  | Bind
  | Listen
  | Getsockname
  | Getpeername
  | Socketpair
  | Setsockopt
  | Getsockopt
  | Clone
  | Fork
  | Execve
  | Exit
  | Wait4
  | Kill
  | Uname
  | Fcntl
  | Flock
  | Fsync
  | Fdatasync
  | Ftruncate
  | Getdents
  | Getcwd
  | Chdir
  | Rename
  | Mkdir
  | Rmdir
  | Unlink
  | Readlink
  | Chmod
  | Umask
  | Gettimeofday
  | Getrlimit
  | Getrusage
  | Times
  | Getuid
  | Getgid
  | Setuid
  | Setgid
  | Geteuid
  | Getegid
  | Getppid
  | Setsid
  | Time
  | Futex
  | Epoll_create
  | Epoll_wait
  | Epoll_ctl
  | Openat
  | Exit_group
  | Accept4
  | Clock_gettime
  | Getcpu
  | Getrandom

(** How a call's arguments and results travel between variants. *)
type transfer_class =
  | By_value
      (** All arguments and the result fit in the 64-byte event (up to six
          8-byte register arguments, §3.3.1): e.g. [close], [lseek]. *)
  | Out_buffer
      (** The kernel writes into a caller buffer whose contents must be
          copied to followers via shared memory: e.g. [read], [recvfrom]. *)
  | In_buffer
      (** The caller passes a buffer the kernel only reads; followers need
          just the result value: e.g. [write], [sendto]. *)
  | New_fd
      (** The call creates a file descriptor that must be duplicated into
          every follower over the data channel (§3.3.2): e.g. [open],
          [accept], [socket]. *)
  | Vdso
      (** Virtual system call implemented in user space via the vDSO
          segment (§3.2.1): [time], [gettimeofday], [clock_gettime],
          [getcpu]. *)
  | Process_local
      (** Executed by {e every} variant rather than replayed, because it
          only affects process-local state: e.g. [mmap], [brk],
          [mprotect]. *)
  | Process_control
      (** Fork/clone/exit/signal management: streamed as dedicated event
          kinds rather than plain syscall events (§2.2). *)

val to_int : t -> int
(** The x86-64 Linux syscall number. *)

val of_int : int -> t option

val name : t -> string
(** Lower-case name as it appears in syscall tables, e.g. ["epoll_wait"]. *)

val transfer_class : t -> transfer_class

val all : t list
(** Every implemented syscall, in ascending number order. *)

val is_blocking : t -> bool
(** Calls that may block waiting for external input (used by the waitlock
    machinery, §3.3.1): [read]/[recvfrom]/[accept]/[epoll_wait]/[poll]/
    [select]/[wait4]/[futex]/[nanosleep]/[pause]. *)

val compare : t -> t -> int

val equal : t -> t -> bool
