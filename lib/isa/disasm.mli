(** Linear-sweep disassembler.

    VARAN scans each executable segment with "a simple x86 disassembler"
    when it is mapped (§3.2); this is that component for the synthetic ISA.
    A byte that does not decode is treated as one byte of data and skipped,
    which mirrors the conservative behaviour a real rewriter needs on
    stripped binaries. *)

type item = {
  addr : int;  (** offset within the code buffer *)
  insn : Insn.t option;  (** [None] for an undecodable byte *)
  len : int;
}

val sweep : Bytes.t -> item list
(** Decode the whole buffer front to back, one item per instruction or
    undecodable byte. The reference form of {!scan}. *)

(** {1 One-pass scan}

    What the rewriter needs from a segment, gathered in a single linear
    pass with no per-instruction list: where branches land and where the
    syscalls are. It walks exactly the instructions {!sweep} lists. *)

type scan = {
  targets : Bytes.t;
      (** one byte per code byte, non-zero where some decoded branch
          jumps or calls to. Targets below 0 or past the end address no
          byte of the buffer and are not recorded. *)
  syscalls : int array;  (** addresses of [Syscall] instructions, ascending *)
}

val scan : Bytes.t -> scan

val is_target : scan -> int -> bool
(** Whether a decoded branch lands on this address. The rewriter must
    not relocate instructions at these addresses (§3.2). [false] outside
    the buffer. *)
