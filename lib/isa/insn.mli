(** The synthetic x86-64-like instruction set.

    A compact ISA with byte-level encoding that reproduces the structural
    properties VARAN's selective binary rewriter must deal with (§3.2 of
    the paper):

    - the [SYSCALL] instruction is {e one byte} while a [JMP rel32] detour
      needs {e five}, so rewriting a syscall requires relocating its
      neighbours into a trampoline;
    - relative branches ([rel8]/[rel32]) make some neighbours unsafe to
      move (branch targets) and short displacements may stop fitting after
      relocation;
    - a one-byte [INT3] trap exists as the fallback when detouring is
      impossible.

    Registers are [R0]–[R7]; [R0] carries the syscall number and return
    value, [R1]–[R6] the arguments, mirroring the x86-64 convention. *)

type reg = int
(** Register index 0–7. *)

type t =
  | Nop
  | Syscall  (** 1 byte — the instruction being rewritten *)
  | Int3  (** 1 byte — trap fallback *)
  | Int of int  (** 2 bytes — software interrupt with vector *)
  | Hook of int  (** 5 bytes — VM-level monitor entry point (site id);
                     only ever emitted by the rewriter, never by
                     compilers/codegen *)
  | Mov_imm of reg * int32  (** 5 bytes *)
  | Mov of reg * reg  (** 2 bytes *)
  | Add of reg * reg  (** 2 bytes *)
  | Sub of reg * reg  (** 2 bytes *)
  | Xor of reg * reg  (** 2 bytes *)
  | Cmp of reg * reg  (** 2 bytes — sets the zero and sign flags *)
  | Test of reg * reg  (** 2 bytes — zf := (a land b) = 0 *)
  | Inc of reg  (** 1 byte *)
  | Dec of reg  (** 1 byte *)
  | Add_imm of reg * int  (** 3 bytes — signed imm8 *)
  | Jmp of int32  (** 5 bytes — rel32 from next insn *)
  | Jmp_short of int  (** 2 bytes — rel8 *)
  | Je of int  (** 2 bytes — rel8 *)
  | Jne of int  (** 2 bytes — rel8 *)
  | Jl of int  (** 2 bytes — rel8, jump if less (signed) *)
  | Jg of int  (** 2 bytes — rel8, jump if greater (signed) *)
  | Call of int32  (** 5 bytes — rel32 *)
  | Ret  (** 1 byte *)
  | Push of reg  (** 1 byte *)
  | Pop of reg  (** 1 byte *)
  | Load of reg * reg  (** 2 bytes — r1 := mem[r2] *)
  | Store of reg * reg  (** 2 bytes — mem[r1] := r2 *)
  | Hlt  (** 1 byte *)

val length : t -> int
(** Encoded length in bytes. *)

val encode : t -> Bytes.t

val encode_into : Bytes.t -> int -> t -> int
(** [encode_into buf ofs insn] writes the encoding and returns the number
    of bytes written. *)

(** {1 Encoding without an instruction value}

    [Emit.x buf ofs operands] writes the instruction [X operands] at
    [ofs] exactly as {!encode_into} does and returns its length;
    {!encode_into} is built on these. A generator writing a whole image
    calls them directly, so it builds no {!t} per instruction. Only the
    instructions generators draw are exported. Immediates and
    displacements are plain ints: a [rel8] or [imm8] keeps its low 8
    bits, an [imm32] its low 32. *)
module Emit : sig
  val nop : Bytes.t -> int -> int
  val syscall : Bytes.t -> int -> int
  val mov_imm : Bytes.t -> int -> reg -> int -> int
  val mov : Bytes.t -> int -> reg -> reg -> int
  val add : Bytes.t -> int -> reg -> reg -> int
  val xor : Bytes.t -> int -> reg -> reg -> int
  val cmp : Bytes.t -> int -> reg -> reg -> int
  val test : Bytes.t -> int -> reg -> reg -> int
  val inc : Bytes.t -> int -> reg -> int
  val dec : Bytes.t -> int -> reg -> int
  val add_imm : Bytes.t -> int -> reg -> int -> int
  val je : Bytes.t -> int -> int -> int
  val jne : Bytes.t -> int -> int -> int
  val jl : Bytes.t -> int -> int -> int
  val jg : Bytes.t -> int -> int -> int
  val hlt : Bytes.t -> int -> int
end

(** {1 Scanning}

    What a linear sweep needs, read straight off the bytes: these
    allocate nothing and build no {!t}. {!decode} shares
    {!length_at}'s validity check. *)

val length_at : Bytes.t -> int -> int
(** [length_at buf ofs] is the length of the instruction encoded at
    [ofs], or [0] for an invalid opcode, a truncated encoding or an
    offset outside the buffer. *)

val is_syscall_at : Bytes.t -> int -> bool
(** Whether the instruction at [ofs] is a [Syscall]. *)

val branch_target_at : Bytes.t -> int -> int
(** [branch_target_at buf ofs] is the absolute address the branch
    encoded at [ofs] jumps or calls to ({!branch_target} of its decoded
    form), or [-1] when the instruction there is not a branch. Either
    way a result outside [\[0, Bytes.length buf)] addresses no byte of
    the buffer. Requires [length_at buf ofs > 0]. *)

val decode : Bytes.t -> int -> (t * int) option
(** [decode buf ofs] decodes one instruction, returning it and its length,
    or [None] exactly where {!length_at} is [0]. *)

val is_branch : t -> bool
(** Instructions with a relative displacement. *)

val branch_target : at:int -> t -> int option
(** [branch_target ~at insn] is the absolute target address of a branch
    located at address [at] (displacements are relative to the {e next}
    instruction, as on x86). [None] for non-branches. *)

val with_target : at:int -> t -> int -> t option
(** [with_target ~at insn target] re-encodes the branch to reach [target]
    from address [at]; [None] if the displacement no longer fits (only
    possible for [rel8] forms). *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
