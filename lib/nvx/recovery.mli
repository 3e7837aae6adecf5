(** Failover and the follower lifecycle (§5.1): crash handling and
    leader election, quarantine and respawn with tape catch-up and
    checkpoint restore, the link-degradation park and heal, graceful
    degradation to native execution, and the watchdog that drives them.

    Recovery decides when a follower leaves the stream and how it comes
    back; it never reads events itself. *)

val handle_crash : Monitor.t -> Monitor.vstate -> exn -> unit
(** A unit task of the variant died with [exn]. The first crash of an
    incarnation counts: a follower under the lifecycle manager is
    quarantined with intent to respawn; otherwise, after the control
    socket's notification delay, the coordinator removes the variant,
    re-elects a leader if it led, and degrades the session when nobody
    is left to lead or follow. Task context. *)

val degrade : Monitor.t -> string -> unit
(** Fall back to native-speed leader-only execution with a reported
    reason; the first reason wins. *)

val maybe_capture_checkpoint :
  Monitor.t ->
  Monitor.vstate ->
  unit_idx:int ->
  incarnation:int ->
  Varan_kernel.Types.proc ->
  (unit -> Bytes.t) ->
  unit
(** The program's checkpoint hook, called at a syscall boundary: capture
    a snapshot if the watchdog armed one and the unit can be restored
    from it, then retire the tape below the new retention floor. *)

val watchdog_tick : Monitor.t -> bool
(** One watchdog pass, from the engine ticker (scheduler context):
    detect a partitioned link, arm checkpoints, report lag and
    quarantine followers that stall with consumable backlog. Always
    [true] (keep ticking). *)

val heal_work : Monitor.t -> unit
(** A partition healed: start a new bridge epoch on a fresh mirror and
    respawn the parked remote followers into it. Task context. *)
