type src = K of int | X

type t =
  | Ld_imm of int
  | Ld_abs of int
  | Ld_event of int
  | Ldx_imm of int
  | Tax
  | Txa
  | Alu_add of src
  | Alu_sub of src
  | Alu_mul of src
  | Alu_and of src
  | Alu_or of src
  | Alu_lsh of src
  | Alu_rsh of src
  | Ja of int
  | Jeq of int * int * int
  | Jgt of int * int * int
  | Jge of int * int * int
  | Jset of int * int * int
  | Ret_k of int
  | Ret_a

let ret_kill = 0x0000_0000
let ret_allow = 0x7fff_0000
let ret_skip_event = 0x7ff1_0000

let data_nr = 0
let event_nr = 0
let event_ret = 1

let pp_src ppf = function
  | K k -> Format.fprintf ppf "#%d" k
  | X -> Format.pp_print_string ppf "x"

let pp ppf = function
  | Ld_imm k -> Format.fprintf ppf "ld #%d" k
  | Ld_abs k -> Format.fprintf ppf "ld [%d]" k
  | Ld_event k -> Format.fprintf ppf "ld event[%d]" k
  | Ldx_imm k -> Format.fprintf ppf "ldx #%d" k
  | Tax -> Format.pp_print_string ppf "tax"
  | Txa -> Format.pp_print_string ppf "txa"
  | Alu_add s -> Format.fprintf ppf "add %a" pp_src s
  | Alu_sub s -> Format.fprintf ppf "sub %a" pp_src s
  | Alu_mul s -> Format.fprintf ppf "mul %a" pp_src s
  | Alu_and s -> Format.fprintf ppf "and %a" pp_src s
  | Alu_or s -> Format.fprintf ppf "or %a" pp_src s
  | Alu_lsh s -> Format.fprintf ppf "lsh %a" pp_src s
  | Alu_rsh s -> Format.fprintf ppf "rsh %a" pp_src s
  | Ja o -> Format.fprintf ppf "ja +%d" o
  | Jeq (k, t, f) -> Format.fprintf ppf "jeq #%d, +%d, +%d" k t f
  | Jgt (k, t, f) -> Format.fprintf ppf "jgt #%d, +%d, +%d" k t f
  | Jge (k, t, f) -> Format.fprintf ppf "jge #%d, +%d, +%d" k t f
  | Jset (k, t, f) -> Format.fprintf ppf "jset #%d, +%d, +%d" k t f
  | Ret_k k -> Format.fprintf ppf "ret #0x%x" k
  | Ret_a -> Format.pp_print_string ppf "ret a"

let pp_program ppf prog =
  Array.iteri (fun i insn -> Format.fprintf ppf "%3d: %a@." i pp insn) prog
