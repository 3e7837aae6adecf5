(** The zygote process (§3.1, Figure 2).

    The coordinator never forks variant processes itself — the second
    variant would inherit the first one's communication channels. Instead
    it asks a single {e zygote} whose only job is to fork fresh processes
    on request. The request/response protocol runs over a UNIX-domain
    socket pair, as in the paper: the coordinator writes [FORK <name>\n]
    and the zygote answers [OK <pid>\n] after forking a process from its
    own pristine image and handing it to the launcher. *)

type t

val spawn :
  Varan_kernel.Types.t ->
  launcher:(Varan_kernel.Types.proc -> name:string -> unit) ->
  t
(** Create the zygote process and its service task. [launcher] is called
    in the zygote's context with each newly forked process and its
    requested name. Must be called from inside a running engine task.

    The spawn hub ({!Session.shared_spawn}) is the one caller: its
    launcher dispatches by name to the session that registered the
    variant, which starts the variant's monitor. The zygote forks
    processes and nothing else: the rewrite cache and pristine store
    belong to the hub, and the follower checkpoint store to the
    session. *)

val fork_request : t -> string -> int
(** [fork_request z name] sends a fork request over the pipe and waits
    for the reply; returns the new pid. *)

val shutdown : t -> unit
(** Close the request pipe; the zygote task exits after draining. *)

val forks_served : t -> int
