(** Content-addressed cache of prepared (rewritten) code images.

    The paper rewrites each image once, when it is loaded (§3.2); the
    reproduction additionally spawns the same image many times — one
    variant per replica, a fresh incarnation per lifecycle respawn, and
    forked children. This cache amortises that: entries are keyed by a
    digest of the {e original} code bytes (plus the rewriter version, so
    a rewriter change invalidates everything), and store the
    {!Rewriter.relocatable} form — rewritten text with base-relative
    [Hook] ids, the trampoline offset table and a base-relative site
    table. A hit {!Rewriter.rebase}s the cached entry to the requested
    [first_site_id] in O(sites) — no disassembly, no window collection,
    no stub emission.

    A spawn hub owns the cache (the session's own, or the one a shard
    pool shares): it outlives every variant incarnation, so respawned
    followers and additional replicas of the same image always rebase
    instead of re-rewriting. The cache keeps every image it prepared: a
    hub sees one image per code profile, as its pristine store does, so
    nothing is ever evicted.

    Hits, misses and rebases are counted per cache; {!stats} reads
    them. *)

type t

val create : unit -> t
(** An empty cache. *)

type key
(** The content key of a code image: a digest of its bytes plus the
    rewriter version. *)

val key : Bytes.t -> key
(** [key code] hashes [code]: one pass over its bytes. An owner that
    launches the same read-only image many times (the zygote's pristine
    store) computes it once and keeps it beside the bytes. *)

val prepare : t -> ?first_site_id:int -> key:key -> Bytes.t -> Rewriter.result
(** [prepare t ~first_site_id ~key code] returns the rewritten image
    with absolute site ids starting at [first_site_id]: a cold rewrite
    on the first sighting of [key], a rebase of the cached relocatable
    afterwards. [key] must be [key code] of these very bytes, unchanged
    since. The result is freshly allocated either way — callers may
    patch it into a segment without aliasing the cache. *)

val prepare_segment :
  t ->
  ?first_site_id:int ->
  key:key ->
  Image.segment ->
  Rewriter.site list * Rewriter.stats
(** {!prepare} applied to an executable segment in place under
    {!Image.with_writable}, mirroring {!Rewriter.rewrite_segment};
    [key] is that of the segment's bytes. *)

type stats = {
  hits : int;  (** served by rebasing a cached entry *)
  misses : int;  (** cold rewrites (entry then cached) *)
  rebases : int;  (** rebase passes run on cache hits *)
  entries : int;  (** distinct images held *)
}

val stats : t -> stats
