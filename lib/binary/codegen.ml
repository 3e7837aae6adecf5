module I = Varan_isa.Insn
module Prng = Varan_util.Prng

let assemble insns =
  let total = List.fold_left (fun n i -> n + I.length i) 0 insns in
  let buf = Bytes.create total in
  let ofs = ref 0 in
  List.iter (fun i -> ofs := !ofs + I.encode_into buf !ofs i) insns;
  buf

(* ------------------------------------------------------------------ *)
(* Stub (trampoline) assembly                                          *)
(* ------------------------------------------------------------------ *)

(* The rewriter's stub emitter. Hook immediates are written as
   *base-relative* site ids and their byte offsets recorded, so the
   finished buffer plus the offset table form a relocatable trampoline
   image: rebasing to any first_site_id is a pass over the offsets, not
   a re-disassembly. *)
type stubs = {
  sb_base : int; (* address of the first stub byte (original code length) *)
  sb_buf : Buffer.t;
  mutable sb_hooks : int list; (* Hook opcode offsets, reversed *)
}

let stubs_create ~base = { sb_base = base; sb_buf = Buffer.create 256; sb_hooks = [] }
let stubs_here sb = sb.sb_base + Buffer.length sb.sb_buf
let stubs_emit sb insn = Buffer.add_bytes sb.sb_buf (I.encode insn)

let jmp32_len = I.length (I.Jmp 0l)

let stubs_emit_jmp_to sb target =
  let rel = target - (stubs_here sb + jmp32_len) in
  stubs_emit sb (I.Jmp (Int32.of_int rel))

let stubs_emit_hook sb ~rel_id =
  sb.sb_hooks <- stubs_here sb :: sb.sb_hooks;
  stubs_emit sb (I.Hook rel_id)

let stubs_finish sb =
  (Buffer.to_bytes sb.sb_buf, Array.of_list (List.rev sb.sb_hooks))

let straightline ~syscall_numbers =
  let body =
    List.concat_map
      (fun n ->
        [
          I.Mov_imm (0, Int32.of_int n);
          I.Syscall;
          I.Add_imm (2, 1);
          I.Add (3, 2);
        ])
      syscall_numbers
  in
  assemble (body @ [ I.Hlt ])

let trap_forcing () =
  (* Layout:
       0: mov r3, 3       (5 bytes)
       5: mov r0, 60      (5 bytes)
      10: syscall         (1 byte)   <- needs bytes 10..14 for a jmp
      11: add r2, 1       (3 bytes)  <- branch target of the jne below
      14: cmp r2, r3      (2 bytes)
      16: jne -7          (2 bytes, back to 11; loops until r2 = 3)
      18: hlt
     The instruction at 11 is a branch target, so the syscall at 10 cannot
     steal it for relocation and must fall back to INT3. *)
  assemble
    [
      I.Mov_imm (3, 3l);
      I.Mov_imm (0, 60l);
      I.Syscall;
      I.Add_imm (2, 1);
      I.Cmp (2, 3);
      I.Jne (-7);
      I.Hlt;
    ]

let loop_with_syscall ~iterations =
  (* r1 counts up to r2 = iterations; one syscall per iteration.
       0: mov r1, 0
       5: mov r2, iterations
      10: mov r0, 39        <- loop head (branch target)
      15: syscall
      16: add r1, 1
      19: cmp r1, r2
      21: jne -13           (back to 10)
      23: hlt *)
  assemble
    [
      I.Mov_imm (1, 0l);
      I.Mov_imm (2, Int32.of_int iterations);
      I.Mov_imm (0, 39l);
      I.Syscall;
      I.Add_imm (1, 1);
      I.Cmp (1, 2);
      I.Jne (-13);
      I.Hlt;
    ]

(* Random programs: draw every instruction as a proto first, so forward
   branches can name instruction indices before byte addresses exist. *)
type proto =
  | P_plain of I.t
  | P_branch of [ `Je | `Jne | `Jl | `Jg ] * int (* absolute target index *)

let random_program rng ~size ~syscall_share =
  let n = max 4 size in
  (* Real code places syscall instructions inside libc wrappers with
     straight-line result-handling around them; branch targets directly
     after a syscall (which force the INT fallback) are rare. Model this
     by suppressing branches for a few instructions after each syscall. *)
  let cooldown = ref 0 in
  let protos =
    Array.init n (fun idx ->
        let roll = Prng.float rng 1.0 in
        if !cooldown > 0 then decr cooldown;
        if roll < syscall_share then begin
          cooldown := 3;
          P_plain I.Syscall
        end
        else if roll < syscall_share +. 0.05 && idx + 2 < n && !cooldown = 0
        then begin
          (* Forward-only branch: always makes progress, so the program
             terminates on every path. Keep the span small enough for
             rel8 in the original encoding. *)
          let span = 1 + Prng.int rng (min 10 (n - idx - 2)) in
          let kind =
            match Prng.int rng 4 with
            | 0 -> `Je
            | 1 -> `Jne
            | 2 -> `Jl
            | _ -> `Jg
          in
          P_branch (kind, idx + 1 + span)
        end
        else
          let r1 = Prng.int rng 8 and r2 = Prng.int rng 8 in
          match Prng.int rng 10 with
          | 0 -> P_plain (I.Mov_imm (r1, Int32.of_int (Prng.int rng 1000)))
          | 1 -> P_plain (I.Add (r1, r2))
          | 2 -> P_plain (I.Add_imm (r1, Prng.int_in rng (-5) 5))
          | 3 -> P_plain (I.Cmp (r1, r2))
          | 4 -> P_plain (I.Mov (r1, r2))
          | 5 -> P_plain (I.Xor (r1, r2))
          | 6 -> P_plain (I.Test (r1, r2))
          | 7 -> P_plain (I.Inc r1)
          | 8 -> P_plain (I.Dec r1)
          | _ -> P_plain I.Nop)
  in
  (* Syscall number must be valid-ish: precede every program with a mov. *)
  let protos = Array.append [| P_plain (I.Mov_imm (0, 1l)) |] protos in
  let n = Array.length protos in
  (* Byte address of every proto index (a branch encodes as rel8, 2
     bytes); a target index past the last proto lands on the final [Hlt]. *)
  let addrs = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let len =
      match protos.(i) with P_plain insn -> I.length insn | P_branch _ -> 2
    in
    addrs.(i + 1) <- addrs.(i) + len
  done;
  (* Encode straight into the image, no instruction list. *)
  let buf = Bytes.create (addrs.(n) + I.length I.Hlt) in
  Array.iteri
    (fun i p ->
      let insn =
        match p with
        | P_plain insn -> insn
        | P_branch (kind, target_idx) -> (
          let rel = addrs.(min target_idx n) - (addrs.(i) + 2) in
          let rel = if rel < -128 || rel > 127 then 0 else rel in
          match kind with
          | `Je -> I.Je rel
          | `Jne -> I.Jne rel
          | `Jl -> I.Jl rel
          | `Jg -> I.Jg rel)
      in
      ignore (I.encode_into buf addrs.(i) insn))
    protos;
  ignore (I.encode_into buf addrs.(n) I.Hlt);
  buf

let profile_image rng ~code_bytes ~syscall_share =
  let approx_insns = max 8 (code_bytes / 3) in
  random_program rng ~size:approx_insns ~syscall_share
