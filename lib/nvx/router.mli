(** Connection router for the sharded serving layer.

    Hashes client connections onto monitor shards, stickily: the same
    connection id always reaches the same shard for as long as that
    shard is healthy, because a connection's syscall stream must replay
    on a single session's ring. When the shard layer marks a shard
    degraded, its connections drain deterministically to the next
    healthy shard along the probe sequence and fresh connections skip
    it; routing never consults an RNG, so a run is reproducible from the
    (conn, seed) pairs alone. *)

type t

val create : ?seed:int -> shards:int -> unit -> t
(** [seed] perturbs the hash (default 0). *)

val route : t -> conn:int -> int
(** The shard serving this connection. Sticky: repeated calls return the
    same shard until that shard is marked unhealthy, at which point the
    connection is re-homed (counted as a drain) to the first healthy
    shard along the probe sequence. With every shard unhealthy the
    primary hash shard is returned unchanged. *)

val set_healthy : t -> int -> bool -> unit
(** Mark a shard up/down. Routing skips unhealthy shards; marking a
    shard back up lets fresh connections land on it again (drained
    connections stay where they went — stickiness wins). *)

val healthy : t -> int -> bool

val rebalance : t -> int
(** Eagerly drain every sticky assignment off unhealthy shards (instead
    of lazily at the connection's next request); returns the number of
    connections moved. *)

type stats = {
  routed : int;  (** route calls, total *)
  assigned : int;  (** distinct connections ever assigned *)
  drained : int;  (** sticky assignments moved off a degraded shard *)
  per_shard : int array;  (** live assignments per shard *)
}

val stats : t -> stats
