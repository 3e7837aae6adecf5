(** Deterministic discrete-event simulation engine.

    The engine runs cooperative {e tasks} — OCaml 5 effect-based fibers —
    over a virtual clock measured in CPU cycles. A task runs uninterrupted
    OCaml code between {e effect points} (consuming cycles, blocking,
    sleeping); at every effect point the engine requeues it and resumes the
    globally earliest task, so shared-state interleavings are totally
    ordered by virtual time and, on ties, by task creation order. This makes
    every simulation bit-for-bit reproducible.

    The kernel, ring buffer and NVX monitors are all built as ordinary
    OCaml data structures manipulated by tasks at effect points. *)

type t
(** A simulation engine instance. *)

type task_id = private int
(** Stable identifier for a spawned task. *)

exception Deadlock of string list
(** Raised by {!run} when no task is runnable but some are still blocked;
    carries the names of the blocked tasks. *)

exception Killed
(** Raised inside a task that is being killed, so that it can unwind. *)

exception Budget_exceeded of int64
(** Raised by {!run} / {!run_until_quiescent} when the simulation
    schedules work beyond the given cycle budget; carries the virtual
    time reached. The fault-injection harness uses it as a liveness
    oracle: a hung failover or a livelocked follower trips the budget
    instead of spinning forever. *)

val create : unit -> t

val spawn : t -> ?name:string -> (unit -> unit) -> task_id
(** [spawn t f] registers a new task executing [f], runnable at the current
    global virtual time. May be called from inside or outside a running
    simulation. *)

val run : ?cycle_budget:int64 -> t -> unit
(** Run until every task has finished. @raise Deadlock if tasks remain
    blocked with nothing runnable. @raise Budget_exceeded if
    [cycle_budget] is given and virtual time passes it. Uncaught task
    exceptions propagate out of [run] after being recorded. *)

val run_until_quiescent : ?cycle_budget:int64 -> t -> unit
(** Like {!run} but treats remaining blocked tasks as acceptable (they are
    simply abandoned); used by benchmarks whose servers block in [accept]
    forever once the clients are done. *)

val add_ticker : t -> period:int -> (unit -> bool) -> unit
(** [add_ticker t ~period fn] installs a periodic scheduler-context hook:
    as the event loop advances virtual time past each multiple of
    [period] cycles, [fn] runs at that deadline, before any event due
    later. Returning [false] deactivates the ticker permanently.

    Tickers piggyback on scheduled work — they never enqueue events of
    their own, so they stop firing (and cannot keep the simulation alive)
    once the heap drains. [fn] runs outside any task: a task-context call
    (consume/sleep/wait/broadcast, ...) raises [Effect.Unhandled] there;
    reading state and calling {!spawn} to delegate effectful work to a
    task are the intended uses. The NVX follower watchdog is the
    canonical client.
    @raise Invalid_argument if [period <= 0]. *)

val now : t -> int64
(** Global high-water virtual time, in cycles. *)

val kill : t -> task_id -> unit
(** Forcibly terminate a task: if blocked or queued it is discarded; if it
    is the caller, {!Killed} is raised at its next task-context call
    other than {!now_cycles}, {!now_int} and {!self}. Used to model variant crashes
    and teardown. *)

val is_alive : t -> task_id -> bool
(** [false] once the task has finished or died. A finished or dead task
    is retired — dropped from the engine's table — so the answer for its
    id stays [false] for good, and {!kill} on it is a no-op. Only tests
    call it: test_sim's "queries on a retired id" and the kill tests pin
    this contract. *)

val task_name : t -> task_id -> string
(** The name of a live task; ["?"] for an id that was never spawned or
    whose task has retired. Only tests call it: "queries on a retired id"
    pins both answers. *)

val failures : t -> (task_id * exn) list
(** Tasks that terminated with an uncaught exception, oldest first. Only
    tests call it: "failure recorded" pins one entry per failed task. *)

val task_switches : t -> int
(** Entries dispatched so far — the engine's task-switch count, the
    baseline that scheduler work is measured against. *)

type capacities = {
  nodes : int;  (** nodes of the queue's plain heap, one per run *)
  deadline_nodes : int;  (** nodes of its heap of [wait_timeout] deadlines *)
  links : int;  (** per-slot run links of the queue *)
  registry : int;  (** the entry slot registry *)
  free : int;  (** the stack of free slots *)
}

val capacities : t -> capacities
(** The allocated capacities, in nodes or slots, of the scheduler's
    growable arrays. The registry and the free stack start at 256; each
    heap of the queue gets 256 nodes at its first push, and the links
    256 slots at the queue's first push; each doubles when full. A heap
    keeps one node per run of same-time entries, so a herd of waiters
    that share one deadline takes one node however large it is, while
    the links grow with the slots queued. Introspection for tests that
    must reach the growth paths. *)

val total_task_cycles : t -> int64
(** Sum over every task ever spawned of its lifetime so far — the vtime
    from spawn to its current local clock, busy and blocked alike.
    Retired (finished or dead) tasks count with their final lifetime,
    banked when they retire. Timers ({!after_here}) are not tasks and
    add nothing. The denominator for {!Varan_obs.Profile} coverage: the
    phases of {!enter_phase} partition this quantity, less the time
    tasks spend in no phase. *)

(** {1 The queue of future wakeups}

    The scheduler keeps entries due later than now in min-heaps of
    {e runs}: a run is a FIFO of entries that share one time and were
    pushed back to back. Removable entries (the [wait_timeout]
    deadlines) have a heap of their own, the only one that tracks where
    its runs sit. Entries are named by int slots. Exposed so that a
    model test can check its order against a sorted list; the engine is
    its only other user. *)

module Runq : sig
  type t

  val create : unit -> t

  val is_empty : t -> bool

  val length : t -> int
  (** Nodes in the heaps: one per non-empty run. *)

  val push : t -> int -> time:int -> seq:int -> removable:bool -> unit
  (** [push q s ~time ~seq ~removable] queues slot [s], which must not
      be queued already. [seq] must exceed the [seq] of every earlier
      push: pop order is then (time, seq) order. A push at the time of
      the run the last push of the same kind (removable or not) joined
      or began appends to that run in O(1), if the run still has
      members. Only a [removable] slot can leave by {!remove}.
      @raise Invalid_argument if [s < 0]. *)

  val top_time : t -> int
  (** The earliest queued time. Meaningless (stale, or an exception)
      when the queue is empty. *)

  val top_seq : t -> int
  (** The [seq] of the entry {!pop} would return. Meaningless when the
      queue is empty. *)

  val pop : t -> int
  (** Take the entry with the least (time, seq) and return its slot.
      O(1) unless it empties its run. @raise Invalid_argument if the
      queue is empty. *)

  val remove : t -> int -> bool
  (** Take out a slot pushed [removable], in O(1) unless it empties its
      run; [false] if it is not queued. Any other slot reads as not
      queued. *)
end

(** {1 Task-context operations}

    These must be called from inside a running task. Called where no
    task runs — outside a simulation, or in a ticker callback — they
    raise [Effect.Unhandled]; a timer callback may make the few listed
    under {!after_here}. A task whose kill is pending (see {!kill})
    unwinds with {!Killed} at the call, except at {!now_cycles},
    {!now_int} and {!self}.

    Only {!Cond.wait} and {!Cond.wait_timeout} always suspend the task,
    by performing an effect. {!consume}, {!sleep} and {!yield} suspend
    it only when the task would not be the scheduler's very next pick
    (another entry is due no later, or a ticker deadline or the cycle
    budget is in the way); otherwise they continue it in place. Every
    other call acts on the engine directly and returns, at the cost of
    a function call. *)

val consume : int -> unit
(** [consume cycles] advances the calling task's local clock. This is the
    only way simulated computation takes time. *)

val sleep : int -> unit
(** Block for the given number of cycles. *)

val now_cycles : unit -> int64
(** The calling task's local virtual time (a timer callback's firing
    time). *)

val now_int : unit -> int
(** {!now_cycles} as an [int], which a hot path can take and subtract
    without boxing. *)

val self : unit -> task_id

val spawn_here : ?name:string -> (unit -> unit) -> task_id
(** Spawn a sibling task from inside a task, runnable at the caller's
    current local time. *)

val kill_here : task_id -> unit
(** Kill another task from inside a task. Only tests call it: the kill
    tests and the scheduler-model tests pin that the victim unwinds
    through its [finally] handlers wherever it is queued or blocked. *)

val after_here : int -> (unit -> unit) -> unit
(** [after_here d f] arms a timer: [f] runs [d] cycles after the
    caller's current local time. It behaves exactly like
    [spawn_here (fun () -> sleep d; f ())] — the same scheduler entries
    at the same points in dispatch order, so virtual time and
    {!task_switches} come out identical — but costs no fiber, no task
    record and no name.

    [f] runs in scheduler context, outside any task, and must not
    block: it may call {!now_cycles} (the firing time), {!Cond.signal},
    {!Cond.broadcast}, {!Cond.broadcast_if_waiting}, {!after_here} and
    {!again}. Any other task-context call ({!consume}, {!sleep},
    {!Cond.wait}, {!self}, {!spawn_here}, ...) raises
    [Effect.Unhandled]. An exception escaping [f] propagates out of
    {!run}. Callable from a task or from another timer callback. *)

val again : int -> unit
(** Inside a timer callback only: once the callback returns, run it
    again [d] cycles after this firing — exactly as a task that looped
    on [sleep d] would continue. Call it last; the bridge's
    retransmit timer re-arms with backoff this way.
    @raise Invalid_argument outside a timer callback. *)

(** {2 Cycle attribution}

    Every task is in at most one {!Varan_obs.Profile} phase at a time,
    none when spawned. A task switches phase only through these two
    calls; each takes and returns a plain int and allocates nothing.
    A switch charges the interval the task spent in the phase it
    leaves — task time since its last switch — to that phase's bucket
    when [Varan_obs.Profile.enabled] is set, so nested phases give
    exclusive time: the outer phase is charged up to the inner enter
    and again from the inner leave. A task that retires inside a phase
    (finished, or killed mid-wait) is never charged for that last
    interval. Outside a task both calls do nothing. *)

val enter_phase : int -> int
(** [enter_phase p] makes [p] the calling task's phase and returns the
    phase it was in (-1 for none), which the matching {!leave_phase}
    restores. Pass [Varan_obs.Profile.pinned p] to pin [p]: while a
    pinned phase is current, [enter_phase] changes nothing and returns
    it, so every inner phase's time stays in the pinned one. Returns -1
    outside a task. *)

val leave_phase : int -> unit
(** [leave_phase prev] returns the calling task to phase [prev] —
    the value its matching {!enter_phase} returned, or any phase the
    task moves into next (the interposed system call leaves into
    app-compute). A no-op when the task is already in [prev]. *)

val yield : unit -> unit
(** Requeue at the same time, letting equal-time tasks run. Only tests
    call it: "yield fairness" pins round-robin at equal time, and the
    scheduler-model tests drive it as the same requeue that {!consume}
    uses. *)

(** {1 Condition variables} *)

module Cond : sig
  type cond
  (** A broadcast/signal rendezvous. Waiters park their continuation; a
      signaller wakes them at [max (signal time, waiter time)]. *)

  val create : string -> cond
  val wait : cond -> unit
  (** Park until signalled. *)

  val wait_timeout : cond -> int -> bool
  (** [wait_timeout c cycles] parks until signalled or until [cycles] have
      elapsed; returns [true] if signalled, [false] on timeout. The
      deadline leaves the scheduler as soon as the wait is signalled or
      the task is killed, so a wait that ends early costs nothing after
      its wake, however far off its deadline was. *)

  val signal : cond -> unit
  (** Wake the oldest waiter, if any. *)

  val broadcast : cond -> unit
  (** Wake every current waiter. *)

  val broadcast_if_waiting : cond -> unit
  (** {!broadcast}, but a complete no-op (not even an engine effect) when
      no waiter is parked. This is the targeted-wakeup primitive of the
      ring buffer's hot path: an uncontended publish or consume skips the
      wakeup entirely instead of broadcasting into the void. Safe to call
      from outside a task when there are no waiters. *)

  val waiters : cond -> int
  (** Number of currently parked (unclaimed) waiters. O(1). *)

  val has_waiters : cond -> bool
end
