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

let stubs_finish sb text =
  let len = Bytes.length text and stub_len = Buffer.length sb.sb_buf in
  let code = Bytes.create (len + stub_len) in
  Bytes.blit text 0 code 0 len;
  Buffer.blit sb.sb_buf 0 code len stub_len;
  (code, Array.of_list (List.rev sb.sb_hooks))

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

(* Random programs: every instruction is drawn and encoded in one pass
   straight into the image, with nothing allocated per instruction.
   Branches only jump forward, at most [max_span] instructions, so a
   branch is written with a zero displacement and patched once its
   target's address is known; at most [max_span] wait at a time. *)
let max_span = 10

(* The longest encoding [random_program] draws ([Mov_imm]). *)
let max_insn_len = 5

let random_program rng ~size ~syscall_share =
  let n = max 4 size in
  (* [Prng.float rng 1.0] is [bits53 / 2^53]: compare the draw itself
     against the thresholds scaled by 2^53, which rounds nothing, so the
     rolls are those of [Prng.float] and no float is boxed per draw. *)
  let scale = 9007199254740992.0 in
  let syscall_cut = syscall_share *. scale in
  let branch_cut = (syscall_share +. 0.05) *. scale in
  let buf = ref (Bytes.create ((3 * (n + 1)) + max_insn_len)) in
  let pos = ref 0 in
  (* Waiting branches: opcode offset, kind (0-3: je, jne, jl, jg) and
     target instruction index. *)
  let br_ofs = Array.make max_span 0 in
  let br_kind = Array.make max_span 0 in
  let br_target = Array.make max_span 0 in
  let waiting = ref 0 in
  (* Instruction [j] starts at [!pos]: patch every branch aiming at it
     (or, for the final [Hlt], past it). *)
  let land_at j =
    let k = ref 0 in
    for i = 0 to !waiting - 1 do
      if br_target.(i) <= j then begin
        let at = br_ofs.(i) in
        let rel = !pos - (at + 2) in
        let rel = if rel < -128 || rel > 127 then 0 else rel in
        ignore
          (match br_kind.(i) with
          | 0 -> I.Emit.je !buf at rel
          | 1 -> I.Emit.jne !buf at rel
          | 2 -> I.Emit.jl !buf at rel
          | _ -> I.Emit.jg !buf at rel)
      end
      else begin
        br_ofs.(!k) <- br_ofs.(i);
        br_kind.(!k) <- br_kind.(i);
        br_target.(!k) <- br_target.(i);
        incr k
      end
    done;
    waiting := !k
  in
  let reserve () =
    if !pos + max_insn_len > Bytes.length !buf then begin
      let b = Bytes.create (2 * Bytes.length !buf) in
      Bytes.blit !buf 0 b 0 !pos;
      buf := b
    end
  in
  (* Syscall number must be valid-ish: precede every program with a mov
     (instruction 0, so drawn instruction [idx] is instruction [idx + 1]). *)
  pos := I.Emit.mov_imm !buf 0 0 1;
  (* Real code places syscall instructions inside libc wrappers with
     straight-line result-handling around them; branch targets directly
     after a syscall (which force the INT fallback) are rare. Model this
     by suppressing branches for a few instructions after each syscall. *)
  let cooldown = ref 0 in
  for idx = 0 to n - 1 do
    if !waiting > 0 then land_at (idx + 1);
    reserve ();
    let b = !buf and at = !pos in
    let roll = float_of_int (Prng.bits53 rng) in
    if !cooldown > 0 then decr cooldown;
    let len =
      if roll < syscall_cut then begin
        cooldown := 3;
        I.Emit.syscall b at
      end
      else if roll < branch_cut && idx + 2 < n && !cooldown = 0 then begin
        (* Forward-only branch: always makes progress, so the program
           terminates on every path. Keep the span small enough for
           rel8 in the original encoding. *)
        let span = 1 + Prng.int rng (min max_span (n - idx - 2)) in
        br_ofs.(!waiting) <- at;
        br_kind.(!waiting) <- Prng.int rng 4;
        br_target.(!waiting) <- idx + 1 + span;
        incr waiting;
        2
      end
      else begin
        let r1 = Prng.int rng 8 in
        let r2 = Prng.int rng 8 in
        match Prng.int rng 10 with
        | 0 -> I.Emit.mov_imm b at r1 (Prng.int rng 1000)
        | 1 -> I.Emit.add b at r1 r2
        | 2 -> I.Emit.add_imm b at r1 (Prng.int_in rng (-5) 5)
        | 3 -> I.Emit.cmp b at r1 r2
        | 4 -> I.Emit.mov b at r1 r2
        | 5 -> I.Emit.xor b at r1 r2
        | 6 -> I.Emit.test b at r1 r2
        | 7 -> I.Emit.inc b at r1
        | 8 -> I.Emit.dec b at r1
        | _ -> I.Emit.nop b at
      end
    in
    pos := at + len
  done;
  (* A target past the last drawn instruction lands on the final [Hlt]. *)
  land_at max_int;
  reserve ();
  pos := !pos + I.Emit.hlt !buf !pos;
  Bytes.sub !buf 0 !pos

let profile_image rng ~code_bytes ~syscall_share =
  let approx_insns = max 8 (code_bytes / 3) in
  random_program rng ~size:approx_insns ~syscall_share
