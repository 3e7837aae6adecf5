(** Ring-buffer events (§3.3.1 of the paper).

    Each event has a fixed 64-byte footprint — deliberately one x86 cache
    line — which fits a syscall with up to six register arguments, its
    result, a kind tag and the Lamport timestamp. Larger payloads do not
    travel in the event: the event carries a {e shared pointer} to a chunk
    in the shared-memory pool instead. File descriptors never travel in
    events at all (they use the data channel). *)

type kind =
  | Ev_syscall  (** a regular system call *)
  | Ev_signal  (** signal delivery *)
  | Ev_fork  (** clone/fork: a new ring is being set up *)
  | Ev_exit  (** exit/exit_group *)

type t = {
  kind : kind;
  sysno : int;  (** syscall number (or signal number for [Ev_signal]) *)
  tid : int;  (** issuing thread/unit index within the variant *)
  args : int array;  (** up to six register arguments *)
  ret : int;  (** result value *)
  clock : int;  (** Lamport timestamp (§3.3.3) *)
  payload : Varan_shmem.Pool.chunk option;
      (** shared pointer for out-buffer results *)
  payload_len : int;  (** valid bytes inside [payload] *)
  inline_out : Bytes.t option;
      (** small out-buffer results (vDSO timespecs, pipe fd pairs) that
          still fit inside the 64-byte event alongside the registers *)
  grant : Obj.t option;
      (** descriptor grant accompanying [New_fd] events. Modelled on the
          event for ordering; the {e cost} of the data-channel transfer is
          charged separately by the monitor (§3.3.2). *)
}

val event_bytes : int
(** 64 — the modelled size of one event. *)

val max_inline_bytes : int
(** 48 — the space left in a 64-byte event after the header fields. *)

val make :
  ?kind:kind -> ?tid:int -> ?args:int array -> ?ret:int ->
  ?payload:Varan_shmem.Pool.chunk -> ?payload_len:int ->
  ?inline_out:Bytes.t -> ?grant:Obj.t ->
  clock:int -> int -> t
(** [make ~clock sysno] builds an event. [args] defaults to [[||]],
    [ret] to [0], [tid] to [0]. @raise Invalid_argument with more than six
    args. *)

val flatten : t -> out:Bytes.t option -> t
(** [flatten e ~out] is [e] with its shared-memory payload replaced by
    [out] carried inline, whatever its size — the cross-ring form used
    when an event leaves the leader's ring for a medium with no pool
    attached (the replay tape, the cross-node bridge). The
    {!max_inline_bytes} cap governs only the leader's hot-path copy into
    a live ring slot, not rebuilt events. *)

val pp : Format.formatter -> t -> unit
(** Full single-line rendering for failure dumps: kind, sysno, tid,
    clock, register args, ret, an escaped preview of any inline payload,
    the shared-memory payload length and a grant marker. *)
