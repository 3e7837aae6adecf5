(** A follower's read handle on one tuple's event stream (§3.3).

    A follower reads the events of a tuple from one of several places:
    the tuple's shared ring, its own private queue in event-pump mode,
    the cross-node bridge's mirror ring when it lives on the remote node,
    the lifecycle tape while a respawned incarnation catches up, and, for
    a multi-threaded variant's tuple 0, per-tid lanes in front of the
    ring. A {!t} hides which: the replay path peeks, advances and waits
    on it the same way in every case, and positions are always in the
    tuple's global sequence coordinates.

    The per-event accessors ({!peek}, {!advance}, {!in_catchup}) are
    plain functions over a plain record, with no closure or functor in
    between; nothing here decides policy (who leads, what a wait costs,
    when a follower dies). *)

module Ring = Varan_ringbuf.Ring
module Event = Varan_ringbuf.Event

type t

val subscribe :
  ?tape:Tape.t ->
  ?base:int ->
  ?upstream:Event.t Ring.t ->
  Event.t Ring.t ->
  t
(** [subscribe ring] registers a new consumer on [ring], its cursor at
    the ring's head. [base] (default 0) is the global sequence of the
    ring's sequence 0: a bridge mirror re-attached after a partition
    starts at the local ring's head, not at 0. [upstream] names the
    leader's ring a mirror copies, so {!total_lag} can count events
    still on their way over the link. [tape] is the tuple's catch-up
    recording; without it {!catch_up} is refused. *)

val cid : t -> int
(** The ring consumer id (the oracle's key for this consumer). *)

val remote : t -> bool
(** The stream is a mirror of a ring on another node. *)

(** {1 Per-event access} *)

val peek : t -> tid:int -> Event.t option
(** The next event for this stream, or [None] when there is none yet.
    With lanes it is the head of [tid]'s lane, once it is consumable;
    otherwise it is the stream head, which may belong to a sibling
    thread. During catch-up it is the tape entry at the current
    position. *)

val advance : t -> tid:int -> bool
(** Consume the event {!peek} returned. Returns [true] exactly when
    this consumed the last event of a tape catch-up, so the next read
    comes from the live ring at the splice sequence. Wakes sibling units
    parked on the stream when they may have become runnable. *)

val in_catchup : t -> bool
(** Reads are served from the tape rather than the live ring. *)

val demuxed : t -> bool
(** The stream is read through per-tid lanes. *)

val position : t -> int
(** The next event's global sequence number, during catch-up too. *)

val lag : t -> int
(** Events this follower could consume now: live ring backlog, events
    routed to lanes but not yet replayed, and the rest of a catch-up. *)

val total_lag : t -> int
(** {!lag}, plus for a mirror the events that the upstream ring holds
    and the bridge has not delivered yet. *)

(** {1 Waiting} *)

val wait : t -> tid:int -> unit
(** Park until [tid]'s lane is signalled, or without lanes until the
    ring shows activity (a publish, a consume or a poke). Every wait is
    charged to the ring-wait phase of the cycle profile. *)

val spin : t -> tid:int -> int -> bool
(** {!wait} for at most the given window; [false] when it ran out. With
    lanes every publish on the stream restarts the window. *)

val wait_siblings : t -> tid:int -> bool
(** The elected leader's wait: [false] when no lane holds an event for a
    sibling thread; otherwise park until the lanes empty or [tid]'s lane
    is signalled, and return [true]. *)

(** {1 Set-up and teardown} *)

val catch_up : t -> from:int -> unit
(** Serve the recorded prefix [\[from, head)] from the tape before the
    live consumer, whose cursor stays parked at the head (the splice
    sequence). Does nothing when [from] is at or past the head.
    @raise Invalid_argument without a tape. *)

val end_catchup : t -> unit
(** Drop any remaining catch-up range: reads go live. *)

val demux :
  t -> capacity:int -> on_route:(Event.t -> unit) -> unit
(** Read the stream through per-tid lanes from now on. A [futex] is
    ordered per lock word and a [close] per descriptor; fork, exit,
    signals and descriptor grants are barriers across the lanes.
    [on_route] runs once per event, in stream order, as it is routed. *)

val lane_stats : t -> Varan_ringbuf.Lanes.stats option

val drop_lanes : t -> release:(Event.t -> unit) -> unit
(** Stop demultiplexing, handing every routed but unreplayed event to
    [release]. *)

val unsubscribe : t -> unit
(** Deregister the ring consumer, leaving unread events unreleased (a
    promoted follower's stream is drained). *)

val remove : t -> release:(Event.t -> unit) -> unit
(** Teardown for a follower that leaves with events still unread: drop
    the lanes, hand every unread event to [release], then
    {!unsubscribe}. *)

(** {1 Event pump (ablation)} *)

type pump
(** The event-pump streaming mode: per tuple, the pump is the only
    consumer of the leader's queue and republishes every event into one
    private queue per variant. *)

val pump_create : size:int -> tuples:int -> variants:int -> pump

val pump_queue : pump -> tuple:int -> idx:int -> Event.t Ring.t
(** Variant [idx]'s private queue for [tuple]. *)

val pump_poke : pump -> idx:int -> unit
(** Wake variant [idx]'s private queues on every tuple. *)

val pump_poke_all : pump -> unit

val pump_spawn :
  pump ->
  Varan_sim.Engine.t ->
  tuple:int ->
  source:Event.t Ring.consumer ->
  cost:Varan_cycles.Cost.t ->
  live:(int -> bool) ->
  unit
(** Start [tuple]'s pump task: drain [source] in batches of up to 64,
    charging one consume per event, and republish each batch into the
    queue of every variant [idx] with [live idx], charging one publish
    per event and queue. *)
