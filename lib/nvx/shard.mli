(** Sharded monitor serving layer.

    Runs N independent {!Session}s — one ring set, lifecycle watchdog
    and tape each — behind a sticky {!Router}, while sharing one spawn
    hub ({!Session.shared_spawn}: resident zygote + content-addressed
    rewrite cache) so spawn cost is paid once for the pool, not per
    shard. Each shard's session runs under its own scope (["shard2"]
    for shard 2), which names its post-mortem bundles and trace track.

    Failure isolation: a quarantined follower or a degraded session on
    one shard never gates its siblings. The health ticker feeds session
    degradation into the router, which drains the degraded shard's
    connections to surviving shards. *)

type t

val launch :
  ?config:Config.t ->
  ?router_seed:int ->
  Varan_kernel.Types.t ->
  shards:int ->
  variants_of:(int -> Variant.t list) ->
  t
(** Launch [shards] sessions on the kernel. [variants_of i] supplies
    shard [i]'s variant list; names must be unique across the pool (the
    shared zygote dispatches fork requests by name), so qualify them
    with the shard id. Every shard runs [config] (beware sharing one
    [Config.oracle] across shards — ring registrations would collide;
    the default config is safe). *)

val count : t -> int
val session : t -> int -> Session.t

val router : t -> Router.t

val route : t -> conn:int -> int
(** Sticky-route a client connection to a shard index (see {!Router}). *)

val degraded : t -> (int * string) list
(** Shards whose sessions degraded, with reasons. *)

val hub : t -> Session.shared_spawn
(** The shared spawn hub (zygote + rewrite cache). *)

val zygote_forks : t -> int
(** Forks served by the shared zygote across all shards — evidence the
    pool really shares one spawner. *)
