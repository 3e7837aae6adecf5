(** Berkeley Packet Filter instructions (§3.4 of the paper).

    The machine is the classic BPF register machine used by seccomp-bpf —
    an accumulator [A], an index register [X], and forward-only jumps —
    extended with VARAN's [event] addressing mode, which reads the
    leader's event from the ring buffer so a filter can compare what the
    follower is executing with what the leader executed.

    Conditional jump offsets follow the classic convention: from
    instruction [i], taking a branch with offset [o] continues at
    [i + 1 + o]; offsets must be non-negative, which is what makes every
    verified filter terminate. *)

type src = K of int  (** immediate *) | X  (** index register *)

type t =
  | Ld_imm of int  (** A := k *)
  | Ld_abs of int
      (** A := seccomp_data\[k\]: byte offset 0 is the follower's syscall
          number, 16+8i is follower argument i *)
  | Ld_event of int
      (** VARAN extension — A := event\[k\]: word 0 is the leader's
          syscall number, 1 its result, 2+i its argument i *)
  | Ldx_imm of int  (** X := k *)
  | Tax  (** X := A *)
  | Txa  (** A := X *)
  | Alu_add of src
  | Alu_sub of src
  | Alu_mul of src
  | Alu_and of src
  | Alu_or of src
  | Alu_lsh of src
  | Alu_rsh of src
  | Ja of int  (** unconditional forward jump *)
  | Jeq of int * int * int  (** k, jump-if-true, jump-if-false *)
  | Jgt of int * int * int
  | Jge of int * int * int
  | Jset of int * int * int  (** A land k <> 0 *)
  | Ret_k of int
  | Ret_a

(** {1 Return values} *)

val ret_kill : int
(** [SECCOMP_RET_KILL]: the divergence is not permitted; the follower is
    terminated. *)

val ret_allow : int
(** [SECCOMP_RET_ALLOW]: the follower executes its additional syscall
    itself and retries matching the leader's event (addition rule). *)

val ret_skip_event : int
(** VARAN extension: the leader's event is consumed without a follower
    counterpart (removal rule). *)

val pp : Format.formatter -> t -> unit
val pp_program : Format.formatter -> t array -> unit

(** Byte offsets of the seccomp_data fields, for readable filters. *)

val data_nr : int

(** Word indices of the event extension. *)

val event_nr : int
val event_ret : int
