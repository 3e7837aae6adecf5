(** Deterministic fault-plan DSL.

    A plan is a list of injections, each armed at a precise stream
    sequence number of a variant. The NVX session queries the plan from
    hooks on the leader-publish and follower-consume paths and applies
    the returned actions; an empty plan changes nothing. Plans are plain
    data: they serialize to a compact spec string ([to_string] /
    [of_string]) so any failing torture case reproduces from the command
    line, and [random] derives a plan deterministically from a seed. *)

type injection =
  | Crash_variant of { idx : int; at_seq : int }
      (** Variant [idx] raises {!Injected} when its stream position
          reaches [at_seq] — before executing or consuming that event, so
          a crashed leader never half-applies a call (§5.1). *)
  | Stall_follower of { idx : int; at_seq : int; delay : int }
      (** Follower [idx] sleeps [delay] cycles before consuming the first
          event at stream position [>= at_seq] it is about to take — not
          strictly position [at_seq], which the follower may never observe
          as a pre-consume position (e.g. after a batched drain). Each
          armed injection fires {e at most once}: the slot burns when its
          trigger matches, so one [Stall_follower] is one sleep, never a
          sleep per event past [at_seq]. The lagging-follower scenario
          that exercises ring backpressure (§3.3.1) and, with the
          lifecycle manager on, the watchdog's stall detector. *)
  | Ring_pressure of { shrink_to : int }
      (** Cap the session's ring size at [shrink_to] slots, forcing the
          leader to stall on slow followers. Applied at launch. *)
  | Signal_burst of { at_seq : int; signo : int; count : int }
      (** Post [count] caught signals to the leader process when it
          reaches [at_seq]; they stream as [Ev_signal] events at the next
          interception boundary (§2.2). *)
  | Fork_at of { at_op : int }
      (** Splice a [fork] into the generated workload at op index
          [at_op]. Consumed by the torture harness, not the session. *)
  | Drop_payload_grant of { idx : int; at_seq : int }
      (** Follower [idx] skips releasing the shared-memory payload of the
          event at [at_seq] — a deliberate refcount leak used as the
          negative control proving the oracle's pool-balance check is not
          vacuous. Never part of random plans. *)
  | Link_partition of { from_seq : int; duration : int }
      (** Cut the cross-node bridge link (both directions) for [duration]
          cycles, starting at link frame [from_seq]. Link faults key on
          the bridge's link-global frame sequence — data batches and acks
          share one counter, so a plan can hit either. *)
  | Link_delay of { at_seq : int; extra : int }
      (** Add [extra] cycles to frame [at_seq]'s transit time. *)
  | Link_reorder of { at_seq : int }
      (** Deliver frame [at_seq] just after its successor. *)
  | Link_drop of { at_seq : int }  (** Lose frame [at_seq]. *)
  | Link_dup of { at_seq : int }  (** Deliver frame [at_seq] twice. *)

type t = injection list

exception Injected of string
(** Raised inside a victim task by a [Crash_variant] injection. *)

val empty : t

val random : Varan_util.Prng.t -> variants:int -> max_seq:int -> max_op:int -> t
(** A randomized plan drawn from the generator: possible ring pressure,
    crashes of at most [variants - 1] distinct variants (at least one
    survivor always remains), follower stalls, signal bursts and fork
    splices. Deterministic in the generator state. *)

val random_link : Varan_util.Prng.t -> max_frame:int -> t
(** A randomized link-fault plan for distributed-mode cases: one or two
    partitions (durations spanning both the retransmit-recoverable and
    the watchdog-parking regimes), plus delays, drops, reorders and
    duplicates at random frame sequences. Deterministic in the generator
    state; composes with {!random}'s process-level injections by list
    concatenation. *)

val has_link_faults : t -> bool

val ring_shrink : t -> int option
(** Smallest [Ring_pressure] cap in the plan, if any. *)

val fork_ops : t -> int list
(** The [Fork_at] op indices, in plan order. *)

val describe : injection -> string
val to_string : t -> string
(** Compact spec, e.g. ["crash:0@8,stall:1@3+20000,ring:2"]. *)

val of_string : string -> (t, string) result
(** Parse the [to_string] format. *)

(** {1 Armed plans}

    The session arms a plan at launch: injections become one-shot and
    fire the first time the watched variant's stream position reaches
    their sequence number. *)

type armed

type action =
  | Crash
  | Stall of int  (** cycles to sleep *)
  | Signals of { signo : int; count : int }
  | Drop_payload

(** What the channel layer should do to the frame being sent. *)
type link_action =
  | L_partition of int  (** cut both directions for this many cycles *)
  | L_delay of int
  | L_reorder
  | L_drop
  | L_duplicate

val arm : t -> armed

val at_leader_publish : armed -> idx:int -> seq:int -> action list
(** Actions due on the leader path of variant [idx] about to publish
    stream event [seq]: crashes targeting [idx] and signal bursts. *)

val at_follower_consume : armed -> idx:int -> seq:int -> action list
(** Actions due on the follower path of variant [idx] about to consume
    stream event [seq]: stalls, payload drops and crashes, in that
    order. *)

val at_link_send : armed -> seq:int -> link_action list
(** Link faults due as the bridge's channel sends frame [seq]; one-shot,
    [>=] triggered like every other injection. *)
