(** The simulated Linux kernel.

    Programs run as {!Varan_sim.Engine} tasks and enter the kernel through
    {!exec}, which implements the semantics of each {!Varan_syscall.Sysno}
    call over the in-memory object graph ({!Types}): VFS files and devices,
    pipes, TCP-style sockets, epoll, futexes, processes and signals.
    Virtual time advances by the cost model's native syscall costs plus
    per-byte copy charges, and blocking calls park the calling task on the
    appropriate condition variable.

    The NVX layer builds on three extra entry points: {!fork_proc} (address
    space duplication for followers and zygote-spawned children),
    {!install_grant} (duplicating a leader's descriptor into a follower's
    table over the data channel, §3.3.2 of the paper) and the [fd_object]
    field of results, which carries descriptor grants. *)

open Types

val create :
  ?link_latency:int ->
  ?seed:int ->
  Varan_sim.Engine.t ->
  t
(** Fresh kernel with [/dev/null], [/dev/zero], [/dev/urandom] and [/tmp]
    pre-created. [link_latency] is the one-way network delay in cycles
    applied to socket payload delivery (default 0). The cost model is
    {!Varan_cycles.Cost.default}. *)

val engine : t -> Varan_sim.Engine.t

val cost : t -> Varan_cycles.Cost.t
(** The cost model every layer above the kernel charges from. *)

val new_proc : t -> ?parent:proc -> string -> proc
(** Allocate a process (empty descriptor table, cwd ["/"]). *)

val fork_proc : t -> proc -> string -> proc
(** Duplicate the descriptor table into a child process, sharing open file
    descriptions (refcounts bumped), as [fork] does. *)

val register_task : t -> proc -> Varan_sim.Engine.task_id -> unit
(** Associate an engine task with a process so that fatal signals and
    [exit_group] can terminate it. *)

val kill_proc : t -> proc -> int -> unit
(** Deliver a terminating signal: marks the process exited with status
    [128+signo], releases its descriptors, wakes its parent and kills its
    tasks, as [exit_group] does. *)

val exec : t -> proc -> Varan_syscall.Sysno.t -> Varan_syscall.Args.t ->
  Varan_syscall.Args.result
(** Execute one system call on behalf of [proc], charging native cycle
    costs and blocking as needed. Unknown or unsupported requests return
    [-ENOSYS], mirroring the prototype's on-demand handler policy. *)

(** {1 Descriptor grants (NVX data channel)} *)

type fd_grant = { granted : (int * ofile) list }
(** Descriptors created by one [New_fd]-class call: the fd numbers chosen
    in the executing process paired with the kernel objects. *)

val grant_of_result : Varan_syscall.Args.result -> fd_grant option
(** Decode the [fd_object] field. *)

val install_grant : t -> proc -> fd_grant -> unit
(** Install every granted descriptor into [proc]'s table {e at the same fd
    numbers}, bumping refcounts — the simulation's equivalent of receiving
    SCM_RIGHTS descriptors and [dup2]ing them into place. As with [dup2],
    whatever an fd named before is released, unless it is the granted
    description itself: then nothing changes. *)

(** {1 Descriptor-table snapshots (checkpoint/restore)} *)

type fd_snapshot
(** A process's descriptor table frozen at a syscall boundary: fd
    numbers, cloexec flags, and identity references to the shared
    open-file descriptions (offsets and flags stay live, exactly as
    SCM_RIGHTS-passed descriptors would). *)

val snapshot_fds : proc -> fd_snapshot

val restore_fds : t -> proc -> fd_snapshot -> unit
(** Install the snapshot into [proc] at the same fd numbers, bumping
    refcounts like {!install_grant} — the table a full grant-by-grant
    tape replay would have produced, in one step. An fd that already
    names its snapshotted description keeps it, taking only the
    snapshot's close-on-exec flag. *)

val fd_snapshot_count : fd_snapshot -> int

(** {1 Introspection} *)

val revents : ofile -> int -> int
(** Of the [events] asked for ({!Flags.epollin}, {!Flags.epollout}),
    those the description has ready now: the one readiness rule, which
    poll, select, epoll and the blocking read, write and accept share. A
    direction reported ready does not block; a call that would fail at
    once (EOF, EPIPE) counts as ready. *)

val fd_count : proc -> int
val proc_alive : proc -> bool

val set_nonblock : proc -> int -> bool -> (unit, Varan_syscall.Errno.t) result
(** Convenience used by tests: toggle O_NONBLOCK directly. *)

(** {1 Signals}

    Caught signals (those with an installed handler) are queued and
    delivered at the target's next syscall boundary — both the natural
    semantics for a syscall-level monitor and close to how the prototype
    delivers them through its interception points. *)

val set_signal_handler : proc -> int -> (int -> unit) -> unit
(** Install a handler (the in-simulation analogue of [rt_sigaction] with
    a handler function). *)

val take_pending_signal : proc -> int option
(** Pop the next pending caught signal, if any — used by the NVX monitor
    to stream signal events before the interrupted call. *)

val post_signal : proc -> int -> unit
(** Queue a caught signal on the process (delivered at its next syscall
    boundary) if a handler is installed; dropped otherwise. The fault
    injector's signal source — never terminates the process. *)

val handler_for : proc -> int -> (int -> unit) option
