(** A TCP-ish duplex channel between two {!Node}s.

    Frames are delivered in send order per direction (in-order by
    default, like a TCP stream of datagram-framed messages), after a
    latency + bandwidth delay:

    {[ arrival = max (previous arrival + 1,
                      now + latency + bytes * cycles_per_kb / 1024) ]}

    The channel itself is reliable unless a {e fault} says otherwise.
    Faults are consulted once per frame, at send time, through a
    caller-supplied hook keyed by the link-global frame sequence number
    (both directions share one counter, so a fault plan can hit acks as
    easily as data). This keeps [lib/net] ignorant of the fault-plan DSL;
    the NVX session adapts {!Varan_fault.Plan} actions to {!fault}
    values.

    - [Partition d] cuts {e both} directions for [d] cycles starting
      now; the triggering frame and every frame sent inside the window
      is lost. Frames already in flight still arrive.
    - [Delay d] adds [d] cycles to this frame's transit time (later
      frames may overtake it only through [Reorder]; otherwise in-order
      delivery shifts them behind it).
    - [Drop] loses this frame.
    - [Duplicate] delivers this frame twice, back to back.
    - [Reorder] holds this frame and releases it just after the next
      frame on the same direction (a one-slot swap); a fallback flush
      delivers it anyway if no next frame comes. *)

type fault = Partition of int | Delay of int | Drop | Duplicate | Reorder

type 'a t

val create :
  a:Node.t ->
  b:Node.t ->
  ?latency:int ->
  ?cycles_per_kb:int ->
  ?faults:(seq:int -> fault list) ->
  string ->
  'a t
(** [latency] defaults to 2000 cycles, [cycles_per_kb] to 800 (~1 cycle
    per 1.25 bytes). Direction 0 carries a→b traffic, direction 1 b→a. *)

val send : 'a t -> dir:int -> bytes:int -> 'a -> unit
(** Queue a frame for delivery. Task context (delivery is a spawned
    sleeper at the caller's local time). Never blocks. *)

val recv : 'a t -> dir:int -> 'a
(** Next frame travelling in direction [dir], in arrival order; blocks
    until one arrives. Task context. *)

type stats = {
  frames_sent : int;
  frames_delivered : int;
  frames_lost : int;  (** dropped by [Drop] or a partition window *)
  frames_duplicated : int;
  frames_reordered : int;
  bytes_sent : int;  (** on-the-wire bytes of delivered + lost frames *)
  partitions : int;  (** partition windows opened *)
}

val stats : 'a t -> stats
