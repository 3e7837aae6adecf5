(** A simulated machine: a named home for tasks.

    Distributed NVX keeps everything on one {!Varan_sim.Engine} — virtual
    time is global, exactly as in a single-box simulation — but tasks and
    link endpoints are owned by nodes so the topology is explicit: the
    leader and its local followers live on one node, remote followers and
    the mirror ring on another, and every byte that crosses between them
    must go through a {!Link}. *)

type t

val create : eng:Varan_sim.Engine.t -> string -> t
val name : t -> string

val spawn : t -> name:string -> (unit -> unit) -> Varan_sim.Engine.task_id
(** Spawn a task owned by this node (named ["<node>/<name>"]), runnable
    at the current global virtual time. *)
