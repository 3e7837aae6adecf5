(** Per-tid event lanes: one follower's ring consumer demultiplexed, in
    stream order, into per-tid FIFO lanes, so sibling threads replay
    their own syscall results at ring speed instead of serializing on
    the head.

    Order survives per object, as the paper's Lamport clocks order it
    (§3.3.3). A [Free] event is consumable at the head of its lane. A
    [Key k] event (a futex on one lock word, a close of one descriptor)
    is consumable only as the oldest unconsumed routed event of key [k];
    events of other keys are still routed past it. A [Global] event
    (fork, exit, signal, grant) is a barrier: routed once every earlier
    event is consumed, with nothing routed past it until it is consumed.

    Every publish routes in the publisher's context ({!Ring.listen}), as
    does a consume that lifts the barrier, frees capacity or empties the
    lanes. Each lane has its own cond, signalled only when its head
    becomes consumable; a {!Ring.poke} wakes every lane. *)

type t
type order = Free | Key of int | Global

val create :
  consumer:Event.t Ring.consumer ->
  classify:(Event.t -> order) ->
  on_route:(Event.t -> unit) ->
  capacity:int ->
  t
(** [on_route], the demux-time Lamport-clock check, runs once per event
    in stream order, in the publisher's task: what it raises stops
    routing and is re-raised by the next {!peek}. [capacity] bounds
    routed-but-unconsumed events (≥ 1). *)

val peek : t -> tid:int -> Event.t option
(** The head of [tid]'s lane, if it is consumable. *)

val advance : t -> tid:int -> unit
(** Consume the head of [tid]'s lane, signal the lane holding the next
    event of its key, and route what the consumption unblocked.
    @raise Invalid_argument on an empty lane. *)

val wait : t -> tid:int -> unit
(** Park until [tid]'s lane is signalled or the ring is poked. *)

val spin : t -> tid:int -> int -> bool
(** [spin t ~tid window]: {!wait}, giving up with [false] once [window]
    cycles have passed since both the call and the stream's last publish
    (the waitlock's adaptive spin, §3.3.1). *)

val wait_drained : t -> tid:int -> unit
(** Park until the lanes empty, [tid]'s lane is signalled, or the ring
    is poked: the elected leader waiting for its siblings. *)

val outstanding : t -> int
(** Routed-but-unconsumed events. At [0] the ring holds nothing for this
    consumer either, unless [on_route] failed. *)

val drain : t -> Event.t list
(** Teardown: stop listening, wake every lane, and return every routed
    but unconsumed event (for payload release). [t] is dead after. *)

type stats = {
  routed : int;  (** events demultiplexed into lanes *)
  order_waits : int;
      (** keyed events routed behind an unconsumed event of their key,
          plus the times routing stopped at a global event waiting for
          the lanes to empty *)
  max_depth : int;  (** deepest any single lane has been *)
}

val stats : t -> stats
