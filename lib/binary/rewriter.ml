module I = Varan_isa.Insn
module D = Varan_isa.Disasm

type dispatch = Jump | Trap

type site = { site_id : int; orig_addr : int; dispatch : dispatch }

type stats = {
  total_syscalls : int;
  jump_sites : int;
  trap_sites : int;
  relocated_insns : int;
  stub_bytes : int;
}

type result = { code : Bytes.t; sites : site list; stats : stats }

type reloc_site = { rel_id : int; rel_addr : int; rel_dispatch : dispatch }

type relocatable = {
  rt_code : Bytes.t;
  rt_orig_len : int;
  rt_hook_offsets : int array;
  rt_sites : reloc_site list;
  rt_stats : stats;
}

let jmp_len = 5

(* The end of the relocation window starting at the syscall at [addr]:
   the syscall itself plus following instructions until at least
   [jmp_len] bytes are covered, read through the scanner. [-1] when
   detouring is unsafe: a successor is a branch target, is undecodable
   data, or the window runs off the buffer. *)
let rec window_end code scan addr a =
  if a - addr >= jmp_len then a
  else if a >= Bytes.length code || D.is_target scan a then -1
  else
    match I.length_at code a with
    | 0 -> -1
    | ilen -> window_end code scan addr (a + ilen)

let rewrite_relocatable code0 =
  let orig_len = Bytes.length code0 in
  let scan = D.scan code0 in
  (* Per syscall of the scan: the stub its detour jumps to and its
     window's end; -1 for a trap, -2 when an earlier window moved it.
     They are written into the final image, so the text is copied once. *)
  let nsys = Array.length scan.D.syscalls in
  let stub_of = Array.make nsys (-2) and end_of = Array.make nsys 0 in
  let stubs = Codegen.stubs_create ~base:orig_len in
  let next_site = ref 0 in
  let sites = ref [] in
  let relocated = ref 0 in
  let jump_count = ref 0 in
  let trap_count = ref 0 in
  let covered_until = ref (-1) in

  let here () = Codegen.stubs_here stubs in
  let emit insn = Codegen.stubs_emit stubs insn in
  let emit_jmp32_to target = Codegen.stubs_emit_jmp_to stubs target in
  let new_site rel_addr rel_dispatch =
    let s = { rel_id = !next_site; rel_addr; rel_dispatch } in
    incr next_site;
    sites := s :: !sites;
    s
  in

  let emit_relocated (a, insn) =
    match insn with
    | I.Syscall ->
      let s = new_site a Jump in
      incr jump_count;
      Codegen.stubs_emit_hook stubs ~rel_id:s.rel_id
    | _ when I.is_branch insn -> (
      incr relocated;
      let target =
        match I.branch_target ~at:a insn with
        | Some t -> t
        | None -> assert false
      in
      match I.with_target ~at:(here ()) insn target with
      | Some insn' -> emit insn'
      | None -> (
        (* rel8 displacement no longer fits: expand. Unconditional short
           jumps become rel32 jumps; conditional ones use the universal
           pattern that needs no inverted condition:
               Jcc +2        ; taken: hop over the skip jump
               jmp short +5  ; not taken: skip the long jump
               jmp rel32 target *)
        match insn with
        | I.Jmp_short _ -> emit_jmp32_to target
        | I.Je _ | I.Jne _ | I.Jl _ | I.Jg _ ->
          let cond_with rel =
            match insn with
            | I.Je _ -> I.Je rel
            | I.Jne _ -> I.Jne rel
            | I.Jl _ -> I.Jl rel
            | I.Jg _ -> I.Jg rel
            | _ -> assert false
          in
          emit (cond_with 2);
          emit (I.Jmp_short jmp_len);
          emit_jmp32_to target
        | _ -> assert false))
    | _ ->
      incr relocated;
      emit insn
  in

  Array.iteri
    (fun i addr ->
      if addr > !covered_until then begin
        match window_end code0 scan addr (addr + 1) with
        | -1 ->
          let _ = new_site addr Trap in
          incr trap_count;
          stub_of.(i) <- -1
        | window_end ->
          let stub_addr = here () in
          let s = new_site addr Jump in
          incr jump_count;
          Codegen.stubs_emit_hook stubs ~rel_id:s.rel_id;
          (* Only the few instructions a detour moves are decoded. *)
          let a = ref (addr + 1) in
          while !a < window_end do
            match I.decode code0 !a with
            | Some (insn, ilen) ->
              emit_relocated (!a, insn);
              a := !a + ilen
            | None -> assert false
          done;
          emit_jmp32_to window_end;
          stub_of.(i) <- stub_addr;
          end_of.(i) <- window_end;
          covered_until := window_end - 1
      end)
    scan.D.syscalls;

  let code, hook_offsets = Codegen.stubs_finish stubs code0 in
  Array.iteri
    (fun i addr ->
      match stub_of.(i) with
      | -2 -> ()
      | -1 -> Bytes.set code addr '\xCC'
      | stub_addr ->
        let rel = stub_addr - (addr + jmp_len) in
        ignore (I.encode_into code addr (I.Jmp (Int32.of_int rel)));
        Bytes.fill code (addr + jmp_len) (end_of.(i) - addr - jmp_len) '\x90')
    scan.D.syscalls;
  let sites = List.sort (fun a b -> compare a.rel_addr b.rel_addr) !sites in
  {
    rt_code = code;
    rt_orig_len = orig_len;
    rt_hook_offsets = hook_offsets;
    rt_sites = sites;
    rt_stats =
      {
        total_syscalls = !jump_count + !trap_count;
        jump_sites = !jump_count;
        trap_sites = !trap_count;
        relocated_insns = !relocated;
        stub_bytes = Bytes.length code - orig_len;
      };
  }

(* Set absolute ids in [code], [rt]'s image or a copy of it, and shift
   the site table. *)
let relocate rt code ~first_site_id =
  if first_site_id <> 0 then
    Array.iter
      (fun ofs ->
        (* The Hook immediate holds the base-relative id; offset +1 skips
           the opcode byte. *)
        let rel = Int32.to_int (Bytes.get_int32_le code (ofs + 1)) in
        Bytes.set_int32_le code (ofs + 1) (Int32.of_int (rel + first_site_id)))
      rt.rt_hook_offsets;
  {
    code;
    sites =
      List.map
        (fun s ->
          {
            site_id = s.rel_id + first_site_id;
            orig_addr = s.rel_addr;
            dispatch = s.rel_dispatch;
          })
        rt.rt_sites;
    stats = rt.rt_stats;
  }

let rebase rt ~first_site_id = relocate rt (Bytes.copy rt.rt_code) ~first_site_id

(* A fresh image nobody else holds: ids are set in place. *)
let rewrite ?(first_site_id = 0) code0 =
  let rt = rewrite_relocatable code0 in
  relocate rt rt.rt_code ~first_site_id

let rewrite_segment ?first_site_id seg =
  let out = ref None in
  Image.with_writable seg (fun data ->
      let r = rewrite ?first_site_id data in
      out := Some r;
      r.code);
  match !out with
  | Some r -> (r.sites, r.stats)
  | None -> assert false

let site_at sites addr = List.find_opt (fun s -> s.orig_addr = addr) sites
