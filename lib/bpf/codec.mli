(** Binary encoding of BPF filters in the classic [sock_filter] format.

    Real seccomp filters are shipped to the kernel as arrays of 8-byte
    [sock_filter] structs ([u16 code; u8 jt; u8 jf; u32 k]); VARAN's
    rewrite rules use the same wire format so that rules can be stored in
    files and shared between runs, plus one extension opcode for the
    [event] addressing mode (class [LD], mode [0xc0], which classic BPF
    leaves unused). *)

val encode_program : Insn.t array -> Bytes.t
(** The byte image, 8 bytes per instruction, little-endian fields. *)

val decode_program : Bytes.t -> (Insn.t array, string) result
(** Decode and {!Verifier.verify}; an invalid or unverifiable image is an
    error, and so is any image {!encode_program} does not write (stray
    opcode bits, a jt, jf or k an instruction does not use). *)
