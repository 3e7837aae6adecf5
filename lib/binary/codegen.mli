(** Synthetic code generation.

    Produces well-formed code buffers for two consumers: the test suite
    (programs whose pre/post-rewrite behaviour can be compared in the VM)
    and the NVX layer (code images with realistic syscall densities whose
    rewrite statistics drive the interception cost mix). *)

(** {1 Stub (trampoline) assembly}

    The emission half of the binary rewriter: an append-only buffer of
    generated stub code placed after the original text. [Hook]
    immediates are written {e base-relative} (an id counted from 0 for
    this image) and the byte offset of every emitted [Hook] is recorded
    — the {e trampoline table}. Together with a base-relative site list
    this makes the finished image relocatable: {!Rewriter.rebase} turns
    it into an absolute-id image for any [first_site_id] with one O(sites)
    pass over the recorded offsets instead of a re-disassembly. *)

type stubs

val stubs_create : base:int -> stubs
(** Fresh emitter whose first byte will live at address [base] (the
    original code length — stubs are appended after the text). *)

val stubs_here : stubs -> int
(** Address of the next byte to be emitted. *)

val stubs_emit : stubs -> Varan_isa.Insn.t -> unit

val stubs_emit_jmp_to : stubs -> int -> unit
(** Emit a [Jmp rel32] whose target is the given absolute address. *)

val stubs_emit_hook : stubs -> rel_id:int -> unit
(** Emit a monitor entry point carrying a {e base-relative} site id and
    record its offset in the trampoline table. *)

val stubs_finish : stubs -> Bytes.t -> Bytes.t * int array
(** [stubs_finish sb text]: a fresh image of [text] followed by the
    emitted stubs, and the trampoline table: offsets of every [Hook]
    opcode, in emission order (ascending). *)

val straightline : syscall_numbers:int list -> Bytes.t
(** A program that loads each number into R0, issues [Syscall], does a
    little register arithmetic between calls, and halts. Always
    detourable: no branches at all. *)

val trap_forcing : unit -> Bytes.t
(** A program whose single [Syscall] is followed immediately by a branch
    target, making detour relocation illegal and forcing the INT3
    fallback. *)

val loop_with_syscall : iterations:int -> Bytes.t
(** A counted loop issuing one syscall per iteration — exercises branches
    whose targets must survive patching. *)

val random_program :
  Varan_util.Prng.t -> size:int -> syscall_share:float -> Bytes.t
(** A random but always-terminating program: straight-line arithmetic,
    syscalls (roughly [syscall_share] of instructions) and forward
    conditional branches only. Suitable for property tests comparing
    original vs rewritten execution. *)

val profile_image :
  Varan_util.Prng.t -> code_bytes:int -> syscall_share:float -> Bytes.t
(** A larger buffer standing in for an application's text segment, used
    only for rewrite statistics (not executed). *)
