(* Classic BPF opcode constants (linux/filter.h). *)

let bpf_ld = 0x00
let bpf_ldx = 0x01
let bpf_alu = 0x04
let bpf_jmp = 0x05
let bpf_ret = 0x06
let bpf_misc = 0x07

(* sizes / modes *)
let bpf_w = 0x00
let bpf_imm = 0x00
let bpf_abs = 0x20

(* VARAN extension: the event addressing mode, using the mode slot classic
   BPF leaves unused (0xc0). *)
let bpf_event = 0xc0

(* alu / jmp subcodes *)
let bpf_add = 0x00
let bpf_sub = 0x10
let bpf_mul = 0x20
let bpf_or = 0x40
let bpf_and = 0x50
let bpf_lsh = 0x60
let bpf_rsh = 0x70
let bpf_ja = 0x00
let bpf_jeq = 0x10
let bpf_jgt = 0x20
let bpf_jge = 0x30
let bpf_jset = 0x40

(* sources / rvals *)
let bpf_k = 0x00
let bpf_x = 0x08
let bpf_a = 0x10

(* misc *)
let bpf_tax = 0x00
let bpf_txa = 0x80

let src_bits = function Insn.K _ -> bpf_k | Insn.X -> bpf_x
let src_k = function Insn.K k -> k | Insn.X -> 0

let encode (insn : Insn.t) =
  match insn with
  | Insn.Ld_imm k -> (bpf_ld lor bpf_w lor bpf_imm, 0, 0, k)
  | Insn.Ld_abs k -> (bpf_ld lor bpf_w lor bpf_abs, 0, 0, k)
  | Insn.Ld_event k -> (bpf_ld lor bpf_w lor bpf_event, 0, 0, k)
  | Insn.Ldx_imm k -> (bpf_ldx lor bpf_w lor bpf_imm, 0, 0, k)
  | Insn.Tax -> (bpf_misc lor bpf_tax, 0, 0, 0)
  | Insn.Txa -> (bpf_misc lor bpf_txa, 0, 0, 0)
  | Insn.Alu_add s -> (bpf_alu lor bpf_add lor src_bits s, 0, 0, src_k s)
  | Insn.Alu_sub s -> (bpf_alu lor bpf_sub lor src_bits s, 0, 0, src_k s)
  | Insn.Alu_mul s -> (bpf_alu lor bpf_mul lor src_bits s, 0, 0, src_k s)
  | Insn.Alu_and s -> (bpf_alu lor bpf_and lor src_bits s, 0, 0, src_k s)
  | Insn.Alu_or s -> (bpf_alu lor bpf_or lor src_bits s, 0, 0, src_k s)
  | Insn.Alu_lsh s -> (bpf_alu lor bpf_lsh lor src_bits s, 0, 0, src_k s)
  | Insn.Alu_rsh s -> (bpf_alu lor bpf_rsh lor src_bits s, 0, 0, src_k s)
  | Insn.Ja o -> (bpf_jmp lor bpf_ja, 0, 0, o)
  | Insn.Jeq (k, jt, jf) -> (bpf_jmp lor bpf_jeq lor bpf_k, jt, jf, k)
  | Insn.Jgt (k, jt, jf) -> (bpf_jmp lor bpf_jgt lor bpf_k, jt, jf, k)
  | Insn.Jge (k, jt, jf) -> (bpf_jmp lor bpf_jge lor bpf_k, jt, jf, k)
  | Insn.Jset (k, jt, jf) -> (bpf_jmp lor bpf_jset lor bpf_k, jt, jf, k)
  | Insn.Ret_k k -> (bpf_ret lor bpf_k, 0, 0, k)
  | Insn.Ret_a -> (bpf_ret lor bpf_a, 0, 0, 0)

let encode_program prog =
  let b = Bytes.create (8 * Array.length prog) in
  Array.iteri
    (fun i insn ->
      let code, jt, jf, k = encode insn in
      Bytes.set_uint16_le b (8 * i) code;
      Bytes.set_uint8 b ((8 * i) + 2) jt;
      Bytes.set_uint8 b ((8 * i) + 3) jf;
      Bytes.set_int32_le b ((8 * i) + 4) (Int32.of_int k))
    prog;
  b

let decode (code, jt, jf, k) =
  let cls = code land 0x07 in
  let err () = Error (Printf.sprintf "unknown opcode 0x%02x" code) in
  if cls = bpf_ld then begin
    let mode = code land 0xe0 in
    if mode = bpf_imm then Ok (Insn.Ld_imm k)
    else if mode = bpf_abs then Ok (Insn.Ld_abs k)
    else if mode = bpf_event then Ok (Insn.Ld_event k)
    else err ()
  end
  else if cls = bpf_ldx then Ok (Insn.Ldx_imm k)
  else if cls = bpf_misc then
    if code land 0xf8 = bpf_txa then Ok Insn.Txa else Ok Insn.Tax
  else if cls = bpf_alu then begin
    let src = if code land bpf_x <> 0 then Insn.X else Insn.K k in
    match code land 0xf0 with
    | op when op = bpf_add -> Ok (Insn.Alu_add src)
    | op when op = bpf_sub -> Ok (Insn.Alu_sub src)
    | op when op = bpf_mul -> Ok (Insn.Alu_mul src)
    | op when op = bpf_and -> Ok (Insn.Alu_and src)
    | op when op = bpf_or -> Ok (Insn.Alu_or src)
    | op when op = bpf_lsh -> Ok (Insn.Alu_lsh src)
    | op when op = bpf_rsh -> Ok (Insn.Alu_rsh src)
    | _ -> err ()
  end
  else if cls = bpf_jmp then begin
    match code land 0xf0 with
    | op when op = bpf_ja -> Ok (Insn.Ja k)
    | op when op = bpf_jeq -> Ok (Insn.Jeq (k, jt, jf))
    | op when op = bpf_jgt -> Ok (Insn.Jgt (k, jt, jf))
    | op when op = bpf_jge -> Ok (Insn.Jge (k, jt, jf))
    | op when op = bpf_jset -> Ok (Insn.Jset (k, jt, jf))
    | _ -> err ()
  end
  else if cls = bpf_ret then
    if code land bpf_a <> 0 then Ok Insn.Ret_a else Ok (Insn.Ret_k k)
  else err ()

let decode_program b =
  let len = Bytes.length b in
  if len mod 8 <> 0 then Error "image size is not a multiple of 8"
  else begin
    let n = len / 8 in
    let rec go i acc =
      if i >= n then Ok (Array.of_list (List.rev acc))
      else begin
        let code = Bytes.get_uint16_le b (8 * i) in
        let jt = Bytes.get_uint8 b ((8 * i) + 2) in
        let jf = Bytes.get_uint8 b ((8 * i) + 3) in
        let k = Int32.to_int (Bytes.get_int32_le b ((8 * i) + 4)) in
        (* [decode] reads only the bits an instruction uses, so an
           image is accepted only if it is what [encode] writes: stray
           opcode bits, or a jt, jf or k where none is used, would
           otherwise decode to a program that re-encodes differently. *)
        match decode (code, jt, jf, k) with
        | Ok insn when encode insn = (code, jt, jf, k) -> go (i + 1) (insn :: acc)
        | Ok _ ->
          Error
            (Printf.sprintf "instruction %d: opcode 0x%02x has stray bits or fields set"
               i code)
        | Error e -> Error (Printf.sprintf "instruction %d: %s" i e)
      end
    in
    match go 0 [] with
    | Error _ as e -> e
    | Ok prog -> (
      match Verifier.verify prog with
      | Ok () -> Ok prog
      | Error e -> Error ("verifier: " ^ e))
  end
