type reg = int

type t =
  | Nop
  | Syscall
  | Int3
  | Int of int
  | Hook of int
  | Mov_imm of reg * int32
  | Mov of reg * reg
  | Add of reg * reg
  | Sub of reg * reg
  | Xor of reg * reg
  | Cmp of reg * reg
  | Test of reg * reg
  | Inc of reg
  | Dec of reg
  | Add_imm of reg * int
  | Jmp of int32
  | Jmp_short of int
  | Je of int
  | Jne of int
  | Jl of int
  | Jg of int
  | Call of int32
  | Ret
  | Push of reg
  | Pop of reg
  | Load of reg * reg
  | Store of reg * reg
  | Hlt

let length = function
  | Nop | Syscall | Int3 | Ret | Hlt -> 1
  | Push _ | Pop _ | Inc _ | Dec _ -> 1
  | Int _ | Jmp_short _ | Je _ | Jne _ | Jl _ | Jg _ -> 2
  | Mov _ | Add _ | Sub _ | Xor _ | Cmp _ | Test _ | Load _ | Store _ -> 2
  | Add_imm _ -> 3
  | Hook _ | Mov_imm _ | Jmp _ | Call _ -> 5

(* Opcodes (loosely x86-flavoured):
   0x90 NOP          0x05 SYSCALL      0xCC INT3      0xCD INT imm8
   0x0F HOOK imm32   0xB8+r MOV imm32  0x01 ADD rr    0x29 SUB rr
   0x39 CMP rr       0x83 ADDI r imm8  0xE9 JMP rel32 0xEB JMP rel8
   0x74 JE rel8      0x75 JNE rel8     0xE8 CALL rel32 0xC3 RET
   0x50+r PUSH       0x58+r POP        0x8B LOAD rr   0x89 STORE rr
   0x8A MOV rr       0x31 XOR rr       0x85 TEST rr   0x40+r INC
   0x48+r DEC        0x7C JL rel8      0x7F JG rel8   0xF4 HLT *)

let put buf ofs v = Bytes.set buf ofs (Char.unsafe_chr (v land 0xFF))

let op1 buf ofs op =
  put buf ofs op;
  1

let op_rr buf ofs op a b =
  put buf ofs op;
  put buf (ofs + 1) (((a land 0xF) lsl 4) lor (b land 0xF));
  2

let op_b buf ofs op v =
  put buf ofs op;
  put buf (ofs + 1) v;
  2

let op_i32 buf ofs op v =
  put buf ofs op;
  Bytes.set_int32_le buf (ofs + 1) (Int32.of_int v);
  5

module Emit = struct
  let nop b o = op1 b o 0x90
  let syscall b o = op1 b o 0x05
  let int3 b o = op1 b o 0xCC
  let int b o v = op_b b o 0xCD v
  let hook b o site = op_i32 b o 0x0F site
  let mov_imm b o r v = op_i32 b o (0xB8 + (r land 7)) v
  let mov b o r s = op_rr b o 0x8A r s
  let add b o r s = op_rr b o 0x01 r s
  let sub b o r s = op_rr b o 0x29 r s
  let xor b o r s = op_rr b o 0x31 r s
  let cmp b o r s = op_rr b o 0x39 r s
  let test b o r s = op_rr b o 0x85 r s
  let inc b o r = op1 b o (0x40 + (r land 7))
  let dec b o r = op1 b o (0x48 + (r land 7))

  let add_imm b o r v =
    put b o 0x83;
    put b (o + 1) r;
    put b (o + 2) v;
    3

  let jmp b o rel = op_i32 b o 0xE9 rel
  let jmp_short b o rel = op_b b o 0xEB rel
  let je b o rel = op_b b o 0x74 rel
  let jne b o rel = op_b b o 0x75 rel
  let jl b o rel = op_b b o 0x7C rel
  let jg b o rel = op_b b o 0x7F rel
  let call b o rel = op_i32 b o 0xE8 rel
  let ret b o = op1 b o 0xC3
  let push b o r = op1 b o (0x50 + (r land 7))
  let pop b o r = op1 b o (0x58 + (r land 7))
  let load b o r s = op_rr b o 0x8B r s
  let store b o r s = op_rr b o 0x89 r s
  let hlt b o = op1 b o 0xF4
end

let encode_into buf ofs = function
  | Nop -> Emit.nop buf ofs
  | Syscall -> Emit.syscall buf ofs
  | Int3 -> Emit.int3 buf ofs
  | Int v -> Emit.int buf ofs v
  | Hook site -> Emit.hook buf ofs site
  | Mov_imm (r, v) -> Emit.mov_imm buf ofs r (Int32.to_int v)
  | Mov (a, b) -> Emit.mov buf ofs a b
  | Add (a, b) -> Emit.add buf ofs a b
  | Sub (a, b) -> Emit.sub buf ofs a b
  | Xor (a, b) -> Emit.xor buf ofs a b
  | Cmp (a, b) -> Emit.cmp buf ofs a b
  | Test (a, b) -> Emit.test buf ofs a b
  | Inc r -> Emit.inc buf ofs r
  | Dec r -> Emit.dec buf ofs r
  | Add_imm (r, v) -> Emit.add_imm buf ofs r v
  | Jmp rel -> Emit.jmp buf ofs (Int32.to_int rel)
  | Jmp_short rel -> Emit.jmp_short buf ofs rel
  | Je rel -> Emit.je buf ofs rel
  | Jne rel -> Emit.jne buf ofs rel
  | Jl rel -> Emit.jl buf ofs rel
  | Jg rel -> Emit.jg buf ofs rel
  | Call rel -> Emit.call buf ofs (Int32.to_int rel)
  | Ret -> Emit.ret buf ofs
  | Push r -> Emit.push buf ofs r
  | Pop r -> Emit.pop buf ofs r
  | Load (a, b) -> Emit.load buf ofs a b
  | Store (a, b) -> Emit.store buf ofs a b
  | Hlt -> Emit.hlt buf ofs

let encode insn =
  let b = Bytes.create (length insn) in
  ignore (encode_into b 0 insn);
  b

(* The scanner: what a linear sweep needs, read straight off the bytes
   with no instruction value built. [length_at] is the one validity
   check; [decode] builds its value only for what it accepts. *)

(* Encoded length by opcode byte, 0 where no instruction starts. *)
let opcode_length = function
  | 0x90 | 0x05 | 0xCC | 0xC3 | 0xF4 -> 1
  | op when op >= 0x40 && op <= 0x5F -> 1 (* INC, DEC, PUSH, POP *)
  | 0xCD | 0x01 | 0x8A | 0x31 | 0x85 | 0x29 | 0x39 | 0x8B | 0x89 -> 2
  | 0xEB | 0x74 | 0x75 | 0x7C | 0x7F -> 2
  | 0x83 -> 3
  | 0x0F | 0xE9 | 0xE8 -> 5
  | op when op >= 0xB8 && op <= 0xBF -> 5 (* MOV imm32 *)
  | _ -> 0

(* The same as a table: on random code a match mispredicts its
   branches on nearly every instruction, a load does not. *)
let lengths = String.init 256 (fun op -> Char.chr (opcode_length op))

let length_at buf ofs =
  let len = Bytes.length buf in
  if ofs < 0 || ofs >= len then 0
  else
    let op = Char.code (Bytes.unsafe_get buf ofs) in
    let n = Char.code (String.unsafe_get lengths op) in
    if ofs + n <= len then n else 0

let is_syscall_at buf ofs = Bytes.get buf ofs = '\x05'

let signed8 v = if v >= 128 then v - 256 else v

let u8 buf i = Char.code (Bytes.get buf i)
let s8 buf i = signed8 (u8 buf i)
let i32 buf i = Bytes.get_int32_le buf i

(* Displacement width by opcode byte: 1 for rel8 branches, 4 for
   rel32 ones, 0 for everything else. *)
let rel_widths =
  String.init 256 (function
    | 0xEB | 0x74 | 0x75 | 0x7C | 0x7F -> '\001'
    | 0xE9 | 0xE8 -> '\004'
    | _ -> '\000')

let branch_target_at buf ofs =
  match Char.code (String.unsafe_get rel_widths (u8 buf ofs)) with
  | 0 -> -1
  | 1 -> ofs + 2 + s8 buf (ofs + 1)
  | _ -> ofs + 5 + Int32.to_int (i32 buf (ofs + 1))

let hi buf i = u8 buf i lsr 4
let lo buf i = u8 buf i land 0xF

let decode buf ofs =
  match length_at buf ofs with
  | 0 -> None
  | n ->
    let a = ofs + 1 in
    let insn =
      match u8 buf ofs with
      | 0x90 -> Nop
      | 0x05 -> Syscall
      | 0xCC -> Int3
      | 0xCD -> Int (u8 buf a)
      | 0x0F -> Hook (Int32.to_int (i32 buf a))
      | op when op >= 0xB8 && op <= 0xBF -> Mov_imm (op - 0xB8, i32 buf a)
      | 0x01 -> Add (hi buf a, lo buf a)
      | 0x8A -> Mov (hi buf a, lo buf a)
      | 0x31 -> Xor (hi buf a, lo buf a)
      | 0x85 -> Test (hi buf a, lo buf a)
      | op when op >= 0x40 && op <= 0x47 -> Inc (op - 0x40)
      | op when op >= 0x48 && op <= 0x4F -> Dec (op - 0x48)
      | 0x7C -> Jl (s8 buf a)
      | 0x7F -> Jg (s8 buf a)
      | 0x29 -> Sub (hi buf a, lo buf a)
      | 0x39 -> Cmp (hi buf a, lo buf a)
      | 0x83 -> Add_imm (u8 buf a, s8 buf (a + 1))
      | 0xE9 -> Jmp (i32 buf a)
      | 0xEB -> Jmp_short (s8 buf a)
      | 0x74 -> Je (s8 buf a)
      | 0x75 -> Jne (s8 buf a)
      | 0xE8 -> Call (i32 buf a)
      | 0xC3 -> Ret
      | op when op >= 0x50 && op <= 0x57 -> Push (op - 0x50)
      | op when op >= 0x58 && op <= 0x5F -> Pop (op - 0x58)
      | 0x8B -> Load (hi buf a, lo buf a)
      | 0x89 -> Store (hi buf a, lo buf a)
      | 0xF4 -> Hlt
      | _ -> assert false (* [length_at] accepts only the opcodes above *)
    in
    Some (insn, n)

let is_branch = function
  | Jmp _ | Jmp_short _ | Je _ | Jne _ | Jl _ | Jg _ | Call _ -> true
  | _ -> false

let branch_target ~at insn =
  let next = at + length insn in
  match insn with
  | Jmp rel | Call rel -> Some (next + Int32.to_int rel)
  | Jmp_short rel | Je rel | Jne rel | Jl rel | Jg rel -> Some (next + rel)
  | _ -> None

let fits8 v = v >= -128 && v <= 127

let with_target ~at insn target =
  let next = at + length insn in
  let rel = target - next in
  match insn with
  | Jmp _ -> Some (Jmp (Int32.of_int rel))
  | Call _ -> Some (Call (Int32.of_int rel))
  | Jmp_short _ -> if fits8 rel then Some (Jmp_short rel) else None
  | Je _ -> if fits8 rel then Some (Je rel) else None
  | Jne _ -> if fits8 rel then Some (Jne rel) else None
  | Jl _ -> if fits8 rel then Some (Jl rel) else None
  | Jg _ -> if fits8 rel then Some (Jg rel) else None
  | _ -> None

let pp ppf = function
  | Nop -> Format.pp_print_string ppf "nop"
  | Syscall -> Format.pp_print_string ppf "syscall"
  | Int3 -> Format.pp_print_string ppf "int3"
  | Int v -> Format.fprintf ppf "int 0x%x" v
  | Hook s -> Format.fprintf ppf "hook %d" s
  | Mov_imm (r, v) -> Format.fprintf ppf "mov r%d, %ld" r v
  | Add (a, b) -> Format.fprintf ppf "add r%d, r%d" a b
  | Mov (a, b) -> Format.fprintf ppf "mov r%d, r%d" a b
  | Xor (a, b) -> Format.fprintf ppf "xor r%d, r%d" a b
  | Test (a, b) -> Format.fprintf ppf "test r%d, r%d" a b
  | Inc r -> Format.fprintf ppf "inc r%d" r
  | Dec r -> Format.fprintf ppf "dec r%d" r
  | Jl rel -> Format.fprintf ppf "jl %+d" rel
  | Jg rel -> Format.fprintf ppf "jg %+d" rel
  | Sub (a, b) -> Format.fprintf ppf "sub r%d, r%d" a b
  | Cmp (a, b) -> Format.fprintf ppf "cmp r%d, r%d" a b
  | Add_imm (r, v) -> Format.fprintf ppf "add r%d, %d" r v
  | Jmp rel -> Format.fprintf ppf "jmp %+ld" rel
  | Jmp_short rel -> Format.fprintf ppf "jmp short %+d" rel
  | Je rel -> Format.fprintf ppf "je %+d" rel
  | Jne rel -> Format.fprintf ppf "jne %+d" rel
  | Call rel -> Format.fprintf ppf "call %+ld" rel
  | Ret -> Format.pp_print_string ppf "ret"
  | Push r -> Format.fprintf ppf "push r%d" r
  | Pop r -> Format.fprintf ppf "pop r%d" r
  | Load (a, b) -> Format.fprintf ppf "load r%d, [r%d]" a b
  | Store (a, b) -> Format.fprintf ppf "store [r%d], r%d" a b
  | Hlt -> Format.pp_print_string ppf "hlt"

let equal a b = a = b
