(** The monitor-interposed system call path (§3.2, §3.3): the leader
    executes each call and records it into its tuple's stream, followers
    replay the leader's results from their {!Stream}, and a follower
    whose leader is gone promotes itself and re-issues the call as
    leader. Signals and forks travel through the same stream. *)

val make_unit_api :
  Monitor.t ->
  Monitor.vstate ->
  unit_idx:int ->
  Varan_kernel.Types.proc ->
  Varan_kernel.Api.t
(** The API one execution unit of a variant runs against: every system
    call goes through the interposed entry point, [fork] through the NVX
    fork rendezvous, and, under the lifecycle manager, the checkpoint
    hook is armed. *)
