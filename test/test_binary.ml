(* Tests for the ISA, disassembler, VM, binary rewriter and vDSO patching.
   The central property: a rewritten program, run with a hook handler that
   performs the syscall, is observationally identical to the original. *)

module I = Varan_isa.Insn
module D = Varan_isa.Disasm
module Vm = Varan_isa.Vm
module R = Varan_binary.Rewriter
module RC = Varan_binary.Rewrite_cache
module Codegen = Varan_binary.Codegen
module Image = Varan_binary.Image
module Vdso = Varan_binary.Vdso
module Prng = Varan_util.Prng

(* --- encode/decode ------------------------------------------------- *)

let all_example_insns =
  [
    I.Nop; I.Syscall; I.Int3; I.Int 0x80; I.Hook 42;
    I.Mov_imm (3, 123456l); I.Add (1, 2); I.Sub (7, 0); I.Cmp (4, 4);
    I.Add_imm (5, -3); I.Jmp 1000l; I.Jmp (-12l); I.Jmp_short (-128);
    I.Je 127; I.Jne (-1); I.Call 500l; I.Ret; I.Push 6; I.Pop 6;
    I.Load (2, 3); I.Store (3, 2); I.Hlt;
  ]

let test_encode_decode_roundtrip () =
  List.iter
    (fun insn ->
      let b = I.encode insn in
      Alcotest.(check int)
        (Format.asprintf "%a length" I.pp insn)
        (I.length insn) (Bytes.length b);
      match I.decode b 0 with
      | Some (insn', len) ->
        Alcotest.(check bool)
          (Format.asprintf "%a roundtrip" I.pp insn)
          true
          (I.equal insn insn' && len = I.length insn)
      | None -> Alcotest.failf "%s failed to decode" (Format.asprintf "%a" I.pp insn))
    all_example_insns

let test_decode_invalid () =
  Alcotest.(check bool)
    "0xFF invalid" true
    (I.decode (Bytes.of_string "\xFF") 0 = None);
  (* Truncated MOV *)
  Alcotest.(check bool)
    "truncated mov" true
    (I.decode (Bytes.of_string "\xB8\x01") 0 = None)

(* Every byte string either fails to decode or decodes to an
   instruction whose encoding is exactly the bytes it was read from. *)
let prop_decode_rejects_or_roundtrips =
  QCheck.Test.make ~name:"decode: reject, or re-encode to the same bytes"
    ~count:2000
    QCheck.(string_of_size Gen.(1 -- 8))
    (fun s ->
      let b = Bytes.of_string s in
      match I.decode b 0 with
      | None -> true
      | Some (insn, len) -> Bytes.equal (I.encode insn) (Bytes.sub b 0 len))

let test_branch_target () =
  (* jmp +10 at address 100 (5 bytes): target 115. *)
  Alcotest.(check (option int))
    "jmp rel32" (Some 115)
    (I.branch_target ~at:100 (I.Jmp 10l));
  Alcotest.(check (option int))
    "je rel8" (Some 95)
    (I.branch_target ~at:100 (I.Je (-7)));
  Alcotest.(check (option int)) "non-branch" None (I.branch_target ~at:0 I.Nop)

let test_with_target () =
  (match I.with_target ~at:100 (I.Je 0) 400 with
  | None -> ()
  | Some _ -> Alcotest.fail "rel8 overflow should refuse");
  match I.with_target ~at:100 (I.Jmp 0l) 400 with
  | Some (I.Jmp rel) -> Alcotest.(check int32) "rel32 fits" 295l rel
  | _ -> Alcotest.fail "jmp retarget failed"

(* --- disassembler --------------------------------------------------- *)

let syscall_sites code = Array.to_list (D.scan code).D.syscalls

let test_sweep_skips_data () =
  let code = Bytes.of_string "\x90\xFF\x05\xF4" in
  let items = D.sweep code in
  Alcotest.(check int) "four items" 4 (List.length items);
  let decoded = List.filter (fun it -> it.D.insn <> None) items in
  Alcotest.(check int) "three decoded" 3 (List.length decoded);
  Alcotest.(check (list int)) "syscall site" [ 2 ] (syscall_sites code)

let test_branch_targets_collected () =
  let code = Codegen.loop_with_syscall ~iterations:3 in
  Alcotest.(check bool) "loop head is a target" true
    (D.is_target (D.scan code) 10)

(* The reference the one-pass scan must match: branch targets and
   syscall sites read off [D.sweep]'s item list. A target outside the
   buffer addresses no byte of it, so the scan leaves it out. *)
let scan_matches_sweep code =
  let len = Bytes.length code in
  let items = D.sweep code in
  let targets =
    List.filter_map
      (fun it -> Option.bind it.D.insn (I.branch_target ~at:it.D.addr))
      items
  in
  let syscalls =
    List.filter_map
      (fun it -> if it.D.insn = Some I.Syscall then Some it.D.addr else None)
      items
  in
  let s = D.scan code in
  Array.to_list s.D.syscalls = syscalls
  && List.for_all
       (fun a -> D.is_target s a = (a >= 0 && a < len && List.mem a targets))
       (List.init (len + 16) (fun a -> a - 8))

let test_scan_edge_cases () =
  let enc = List.map I.encode in
  let code =
    Bytes.concat Bytes.empty
      (enc [ I.Jmp_short (-10); I.Syscall ]
      @ [ Bytes.of_string "\xFF" ]
      @ enc [ I.Je 1; I.Nop; I.Syscall; I.Call 4000l; I.Jmp (-5l) ]
      @ [ Bytes.sub (I.encode (I.Mov_imm (0, 60l))) 0 3 ])
  in
  Alcotest.(check bool) "scan equals the sweep reference" true
    (scan_matches_sweep code);
  let s = D.scan code in
  Alcotest.(check (list int)) "syscalls around undecodable data" [ 2; 7 ]
    (Array.to_list s.D.syscalls);
  Alcotest.(check bool) "je lands on the syscall" true (D.is_target s 7);
  Alcotest.(check bool) "jmp rel32 lands on itself" true (D.is_target s 13);
  Alcotest.(check bool) "below 0 is no target" false (D.is_target s (-8));
  Alcotest.(check bool) "past the end is no target" false (D.is_target s 4013);
  Alcotest.(check bool) "empty buffer" true (scan_matches_sweep Bytes.empty)

(* Buffers of random instructions (branches with displacements reaching
   below 0 and past the end) mixed with raw bytes, cut at a random
   point so the last instruction may be truncated. *)
let gen_code =
  let open QCheck.Gen in
  let reg = int_bound 7 in
  let rel8 = int_range (-128) 127 in
  let rel32 = map Int32.of_int (int_range (-400) 400) in
  let insn =
    oneof
      [
        oneofl [ I.Nop; I.Syscall; I.Syscall; I.Int3; I.Ret; I.Hlt ];
        map (fun r -> I.Mov_imm (r, 60l)) reg;
        map2 (fun a b -> I.Add (a, b)) reg reg;
        map (fun r -> I.Add_imm (r, 1)) reg;
        map (fun r -> I.Jmp r) rel32;
        map (fun r -> I.Call r) rel32;
        map (fun r -> I.Jmp_short r) rel8;
        map (fun r -> I.Je r) rel8;
        map (fun r -> I.Jne r) rel8;
        map (fun r -> I.Jl r) rel8;
        map (fun r -> I.Jg r) rel8;
      ]
  in
  let chunk =
    frequency
      [
        (4, map I.encode insn);
        (1, map (fun c -> Bytes.make 1 (Char.chr c)) (int_bound 255));
      ]
  in
  let* chunks = list_size (int_bound 80) chunk in
  let code = Bytes.concat Bytes.empty chunks in
  let+ cut = int_bound (min 4 (Bytes.length code)) in
  Bytes.sub code 0 (Bytes.length code - cut)

let prop_scan_matches_sweep =
  QCheck.Test.make ~name:"one-pass scan == sweep reference" ~count:500
    (QCheck.make
       ~print:(fun b ->
         String.concat " "
           (List.init (Bytes.length b) (fun i ->
                Printf.sprintf "%02x" (Char.code (Bytes.get b i)))))
       gen_code)
    scan_matches_sweep

(* --- VM -------------------------------------------------------------- *)

let test_vm_arithmetic () =
  let code =
    Bytes.concat Bytes.empty
      (List.map I.encode
         [ I.Mov_imm (1, 20l); I.Mov_imm (2, 22l); I.Add (1, 2); I.Hlt ])
  in
  let st = Vm.run code ~entry:0 in
  Alcotest.(check int) "r1 = 42" 42 st.Vm.regs.(1)

let test_vm_loop () =
  let code = Codegen.loop_with_syscall ~iterations:5 in
  let st = Vm.run code ~entry:0 in
  Alcotest.(check int) "five syscalls" 5 (List.length (Vm.syscall_trace st));
  Alcotest.(check int) "counter" 5 st.Vm.regs.(1)

let test_vm_call_ret () =
  (* call the function at the end; it sets r3 := 7 and returns. *)
  let code =
    Bytes.concat Bytes.empty
      (List.map I.encode
         [
           I.Call 1l (* skip the hlt: call target = 5+1 = 6 *);
           I.Hlt;
           I.Mov_imm (3, 7l);
           I.Ret;
         ])
  in
  let st = Vm.run code ~entry:0 in
  Alcotest.(check int) "r3 set by callee" 7 st.Vm.regs.(3)

let test_vm_stack_fault () =
  let code = I.encode (I.Pop 0) in
  match Vm.run (Bytes.cat code (I.encode I.Hlt)) ~entry:0 with
  | exception Vm.Fault _ -> ()
  | _ -> Alcotest.fail "expected stack fault"

let run_insns insns =
  let code =
    Bytes.concat Bytes.empty (List.map I.encode (insns @ [ I.Hlt ]))
  in
  Vm.run code ~entry:0

let test_vm_mov_xor_test () =
  let st =
    run_insns
      [ I.Mov_imm (1, 5l); I.Mov (2, 1); I.Xor (1, 1); I.Test (2, 2) ]
  in
  Alcotest.(check int) "mov copied" 5 st.Vm.regs.(2);
  Alcotest.(check int) "xor zeroed" 0 st.Vm.regs.(1);
  Alcotest.(check bool) "test cleared zf (5 land 5 <> 0)" false st.Vm.zf;
  let st = run_insns [ I.Mov_imm (1, 0l); I.Test (1, 1) ] in
  Alcotest.(check bool) "test set zf on zero" true st.Vm.zf

let test_vm_inc_dec () =
  let st = run_insns [ I.Mov_imm (3, 10l); I.Inc 3; I.Inc 3; I.Dec 3 ] in
  Alcotest.(check int) "inc/dec" 11 st.Vm.regs.(3)

let test_vm_signed_branches () =
  (* r1=1, r2=2: jl taken; jg not taken. *)
  let code =
    Bytes.concat Bytes.empty
      (List.map I.encode
         [
           I.Mov_imm (1, 1l);
           I.Mov_imm (2, 2l);
           I.Cmp (1, 2);
           I.Jl 5 (* skip the mov below *);
           I.Mov_imm (7, 111l) (* must be skipped *);
           I.Cmp (2, 1);
           I.Jg 5 (* taken: 2 > 1 *);
           I.Mov_imm (6, 222l) (* must be skipped *);
           I.Hlt;
         ])
  in
  let st = Vm.run code ~entry:0 in
  Alcotest.(check int) "jl skipped the mov" 0 st.Vm.regs.(7);
  Alcotest.(check int) "jg skipped the mov" 0 st.Vm.regs.(6)

let test_new_insn_roundtrips () =
  List.iter
    (fun insn ->
      match I.decode (I.encode insn) 0 with
      | Some (insn', len) ->
        Alcotest.(check bool)
          (Format.asprintf "%a" I.pp insn)
          true
          (I.equal insn insn' && len = I.length insn)
      | None -> Alcotest.failf "decode failed")
    [
      I.Mov (1, 2); I.Xor (3, 4); I.Test (5, 6); I.Inc 7; I.Dec 0;
      I.Jl (-8); I.Jg 127;
    ]

(* --- rewriter -------------------------------------------------------- *)

(* Hooks that implement the monitor side: a hook performs the syscall
   (records it), a trap does the same through the signal path. *)
let monitor_hooks =
  {
    Vm.on_syscall = Vm.record_syscall;
    on_hook = Some (fun _site st -> Vm.record_syscall st);
    on_trap = Some (fun _vec st -> Vm.record_syscall st);
  }


let check_equivalent name code =
  let before = Vm.run ~hooks:monitor_hooks code ~entry:0 in
  let r = R.rewrite code in
  let after = Vm.run ~hooks:monitor_hooks r.R.code ~entry:0 in
  Alcotest.(check bool)
    (name ^ ": same registers")
    true
    (Array.to_list before.Vm.regs = Array.to_list after.Vm.regs);
  Alcotest.(check bool)
    (name ^ ": same syscall trace")
    true
    (Vm.syscall_trace before = Vm.syscall_trace after);
  r

let test_rel8_universal_expansion () =
  (* A conditional branch relocated into a stub must still reach its
     original target even though rel8 no longer fits: layout a syscall
     directly followed by a far-reaching conditional branch. *)
  let insns =
    [
      I.Mov_imm (0, 1l);
      I.Mov_imm (1, 1l);
      I.Mov_imm (2, 1l);
      I.Cmp (1, 2);
      I.Syscall;
      I.Je 5 (* skip the next mov when r1 = r2 (always) *);
      I.Mov_imm (5, 99l);
      I.Hlt;
    ]
  in
  let code = Bytes.concat Bytes.empty (List.map I.encode insns) in
  let before = Vm.run ~hooks:monitor_hooks code ~entry:0 in
  let r = R.rewrite code in
  (* The Je was inside the relocation window, re-emitted in the stub far
     from its target. *)
  Alcotest.(check bool) "je relocated" true (r.R.stats.R.relocated_insns >= 1);
  let after = Vm.run ~hooks:monitor_hooks r.R.code ~entry:0 in
  Alcotest.(check bool) "same registers" true
    (Array.to_list before.Vm.regs = Array.to_list after.Vm.regs);
  Alcotest.(check int) "mov skipped in both" 0 after.Vm.regs.(5)

let test_rewrite_straightline () =
  let code = Codegen.straightline ~syscall_numbers:[ 0; 1; 3 ] in
  let r = check_equivalent "straightline" code in
  Alcotest.(check int) "three sites" 3 r.R.stats.R.total_syscalls;
  Alcotest.(check int) "all jump-dispatched" 3 r.R.stats.R.jump_sites;
  Alcotest.(check int) "no traps" 0 r.R.stats.R.trap_sites

let test_rewrite_no_syscall_instructions_remain () =
  let code = Codegen.straightline ~syscall_numbers:[ 1; 2; 3; 4 ] in
  let r = R.rewrite code in
  Alcotest.(check (list int))
    "no raw syscalls left" [] (syscall_sites r.R.code)

let test_rewrite_trap_fallback () =
  let code = Codegen.trap_forcing () in
  let r = check_equivalent "trap fallback" code in
  Alcotest.(check int) "one trap site" 1 r.R.stats.R.trap_sites;
  Alcotest.(check int) "no jump site" 0 r.R.stats.R.jump_sites

let test_rewrite_loop () =
  let code = Codegen.loop_with_syscall ~iterations:7 in
  let r = check_equivalent "loop" code in
  Alcotest.(check int) "one site" 1 r.R.stats.R.total_syscalls

let test_rewrite_preserves_original_length_prefix () =
  let code = Codegen.straightline ~syscall_numbers:[ 1 ] in
  let r = R.rewrite code in
  Alcotest.(check bool)
    "stub appended after original" true
    (Bytes.length r.R.code > Bytes.length code);
  Alcotest.(check int)
    "stub bytes accounted"
    (Bytes.length r.R.code - Bytes.length code)
    r.R.stats.R.stub_bytes

let test_site_at () =
  let code = Codegen.straightline ~syscall_numbers:[ 9; 8 ] in
  let r = R.rewrite code in
  match r.R.sites with
  | [ s1; s2 ] ->
    Alcotest.(check bool) "lookup first" true (R.site_at r.R.sites s1.R.orig_addr = Some s1);
    Alcotest.(check bool) "lookup second" true (R.site_at r.R.sites s2.R.orig_addr = Some s2);
    Alcotest.(check bool) "missing" true (R.site_at r.R.sites 9999 = None)
  | _ -> Alcotest.fail "expected two sites"

(* Property: random programs behave identically after rewriting. *)
let prop_rewrite_equivalence =
  QCheck.Test.make ~name:"rewrite preserves semantics" ~count:200
    QCheck.(pair small_nat (int_bound 1_000_000))
    (fun (size, seed) ->
      let rng = Prng.create seed in
      let code =
        Codegen.random_program rng ~size:(8 + size) ~syscall_share:0.15
      in
      let before = Vm.run ~hooks:monitor_hooks code ~entry:0 in
      let r = R.rewrite code in
      let after = Vm.run ~hooks:monitor_hooks r.R.code ~entry:0 in
      Array.to_list before.Vm.regs = Array.to_list after.Vm.regs
      && Vm.syscall_trace before = Vm.syscall_trace after
      && syscall_sites r.R.code = [])

let prop_sites_cover_all_syscalls =
  QCheck.Test.make ~name:"every syscall gets a site" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let code = Codegen.random_program rng ~size:60 ~syscall_share:0.25 in
      let n_sys = List.length (syscall_sites code) in
      let r = R.rewrite code in
      r.R.stats.R.total_syscalls = n_sys
      && List.length r.R.sites = n_sys)

(* --- rewrite cache --------------------------------------------------- *)

let prepare cache ?first_site_id code =
  RC.prepare cache ?first_site_id ~key:(RC.key code) code

let test_cache_rebase_identity () =
  let code = Codegen.straightline ~syscall_numbers:[ 1; 2; 3 ] in
  let cache = RC.create () in
  let cold = R.rewrite ~first_site_id:40 code in
  ignore (prepare cache code);
  let hit = prepare cache ~first_site_id:40 code in
  Alcotest.(check bool) "identical code" true (Bytes.equal cold.R.code hit.R.code);
  Alcotest.(check bool) "identical sites" true (cold.R.sites = hit.R.sites);
  Alcotest.(check bool) "identical stats" true (cold.R.stats = hit.R.stats);
  let s = RC.stats cache in
  Alcotest.(check int) "one miss" 1 s.RC.misses;
  Alcotest.(check int) "one hit" 1 s.RC.hits;
  Alcotest.(check int) "one rebase" 1 s.RC.rebases;
  Alcotest.(check int) "one entry" 1 s.RC.entries

let test_cache_rebase_zero_is_identity () =
  (* Rebasing to id 0 must reproduce the relocatable bytes untouched. *)
  let code = Codegen.straightline ~syscall_numbers:[ 7; 8 ] in
  let rt = R.rewrite_relocatable code in
  let r0 = R.rebase rt ~first_site_id:0 in
  Alcotest.(check bool) "bytes equal" true (Bytes.equal rt.R.rt_code r0.R.code);
  Alcotest.(check bool)
    "fresh copy, not an alias" true
    (rt.R.rt_code != r0.R.code)

let test_cache_keeps_every_image () =
  (* No eviction: every image prepared once is served by rebase after. *)
  let cache = RC.create () in
  let imgs =
    List.map
      (fun n -> Codegen.straightline ~syscall_numbers:[ n ])
      [ 1; 2; 3 ]
  in
  List.iter (fun c -> ignore (prepare cache c)) imgs;
  List.iter (fun c -> ignore (prepare cache c)) imgs;
  let s = RC.stats cache in
  Alcotest.(check int) "every image held" 3 s.RC.entries;
  Alcotest.(check int) "one cold rewrite each" 3 s.RC.misses;
  Alcotest.(check int) "every repeat hits" 3 s.RC.hits

(* Property: serving an image from the cache and rebasing it to an
   arbitrary site-id range is indistinguishable from a cold rewrite at
   that range — same bytes, same stats, same trap-site set. *)
let prop_cache_rebase_equals_cold =
  QCheck.Test.make ~name:"cache hit + rebase == cold rewrite" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_bound 5_000))
    (fun (seed, first_site_id) ->
      let rng = Prng.create seed in
      let code = Codegen.random_program rng ~size:60 ~syscall_share:0.25 in
      let cold = R.rewrite ~first_site_id code in
      let cache = RC.create () in
      ignore (prepare cache code);
      let hit = prepare cache ~first_site_id code in
      let trap_addrs r =
        List.filter_map
          (fun s ->
            if s.R.dispatch = R.Trap then Some s.R.orig_addr else None)
          r.R.sites
      in
      Bytes.equal cold.R.code hit.R.code
      && cold.R.stats = hit.R.stats
      && cold.R.sites = hit.R.sites
      && trap_addrs cold = trap_addrs hit
      && (RC.stats cache).RC.hits = 1
      && (RC.stats cache).RC.misses = 1)

(* --- W^X ------------------------------------------------------------- *)

let test_wx_violation () =
  (match
     Image.make_segment ~name:"bad" ~base:0
       ~perm:{ Image.r = true; w = true; x = true }
       Bytes.empty
   with
  | exception Image.Wx_violation _ -> ()
  | _ -> Alcotest.fail "expected Wx_violation on creation");
  let seg =
    Image.make_segment ~name:"text" ~base:0 ~perm:Image.rx
      (Codegen.straightline ~syscall_numbers:[ 1 ])
  in
  match Image.set_perm seg { Image.r = true; w = true; x = true } with
  | exception Image.Wx_violation _ -> ()
  | _ -> Alcotest.fail "expected Wx_violation on set_perm"

let test_rewrite_segment_respects_wx () =
  let seg =
    Image.make_segment ~name:"text" ~base:0 ~perm:Image.rx
      (Codegen.straightline ~syscall_numbers:[ 1; 2 ])
  in
  let sites, stats = R.rewrite_segment seg in
  Alcotest.(check int) "two sites" 2 (List.length sites);
  Alcotest.(check int) "two jumps" 2 stats.R.jump_sites;
  Alcotest.(check bool) "still executable" true seg.Image.perm.Image.x;
  Alcotest.(check bool) "not writable" false seg.Image.perm.Image.w

(* --- golden bytes ------------------------------------------------------ *)

(* Every code profile the repository ships: the catalog workloads, the
   revision variants, the default profile, the two profiles the
   end-to-end benchmark builds (benchmark/serve.ml, benchmark/futex.ml)
   and the 30 kB image of the Bechamel rewriter rows. *)
let shipped_profiles =
  let module W = Varan_workloads.Workload in
  let module Rev = Varan_workloads.Revisions in
  let module V = Varan_nvx.Variant in
  let of_variant v = (v.V.v_name, v.V.profile) in
  let profile code_bytes syscall_share code_seed =
    { V.code_bytes; syscall_share; code_seed }
  in
  List.map
    (fun w -> (w.W.w_name, w.W.profile))
    Varan_workloads.Catalog.(
      c10k_servers @ prior_work_servers @ [ thread_grid_64 ])
  @ List.map
      (fun rev ->
        of_variant (Rev.lighttpd_variant ~rev ~port:80 ~expected_conns:1))
      Rev.[ R2435; R2436; R2523; R2524; R2577; R2578 ]
  @ [
      of_variant
        (Rev.redis_revision ~buggy:false ~name:"redis-rev" ~port:6379
           ~expected_conns:1);
      ("default", V.default_profile);
      ("benchmark-serve", profile 10_000 0.01 13);
      ("benchmark-futex", profile 6_000 0.05 19);
      ("bechamel-30kB", profile 30_000 0.02 99);
    ]
  (* A profile several names share is checked once, under its first name. *)
  |> List.fold_left
       (fun acc (n, p) ->
         if List.exists (fun (_, q) -> q = p) acc then acc else (n, p) :: acc)
       []
  |> List.rev

let profile_image p =
  let module V = Varan_nvx.Variant in
  Codegen.profile_image (Prng.create p.V.code_seed) ~code_bytes:p.V.code_bytes
    ~syscall_share:p.V.syscall_share

(* One digest over everything [rewrite_relocatable] returns: code,
   original length, trampoline table, site table and stats. *)
let relocatable_digest rt =
  let b = Buffer.create (Bytes.length rt.R.rt_code + 4096) in
  Buffer.add_bytes b rt.R.rt_code;
  Printf.bprintf b "|%d|" rt.R.rt_orig_len;
  Array.iter (Printf.bprintf b "%d,") rt.R.rt_hook_offsets;
  Buffer.add_char b '|';
  List.iter
    (fun s ->
      Printf.bprintf b "%d:%d:%c," s.R.rel_id s.R.rel_addr
        (match s.R.rel_dispatch with R.Jump -> 'J' | R.Trap -> 'T'))
    rt.R.rt_sites;
  let st = rt.R.rt_stats in
  Printf.bprintf b "|%d %d %d %d %d" st.R.total_syscalls st.R.jump_sites
    st.R.trap_sites st.R.relocated_insns st.R.stub_bytes;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* (name, MD5 of the profile image, digest of its relocatable rewrite).
   Any change to code generation or rewriting that moves a byte, a site
   or a stat shows up here. *)
let golden =
  [
    ("Beanstalkd", "6ffe8e4b601e9f7746915d8c632b659c", "4e0e0943092064d64c8b4d06580d6b0d");
    ("Lighttpd (wrk)", "e26e5ae730052db999be37b2c72c665a", "ad94a71b8ce9943403419ccaa34a31b6");
    ("Memcached", "b9f3eb1e6cc8006df40e4a17b28ce821", "2c01c5c778afc3894e97b0525828a24d");
    ("Nginx", "fb229bb5e6f3d62438db0098b5271372", "64c0bce2fa5b8c29e4409bb4315cf08e");
    ("Redis", "185610bf2b7eff96ace195a941edc8e7", "4a23eebd2e19c3b090ecf3b54313c091");
    ("Apache httpd", "2cfcdb149435c76b2a9ff34d37b44828", "361a239343e01d19f4b116311df792af");
    ("thttpd", "cf398a3d4e21ff78538fc78eb15c5708", "e48214f3d47c9326f489ce2610a40078");
    ("Thread grid (64)", "2257c22b81b1f324b29ceb5de1d5913f", "18ab9b80bef0ed597ae74b1e25af5323");
    ("default", "c4707779db5c67fc68d0e707f93ec2db", "951f040316962144fb57c91f44b3bc11");
    ("benchmark-futex", "6537458ce9c97fefb89da7993842bc7c", "e48b39ad1bab202b558157a33a3b4097");
    ("bechamel-30kB", "16b7b9c55b4d39af258393ec7d65d30b", "dc6ecc23975a2f7e28cc866403f48500");
  ]

let test_golden_bytes () =
  let stale = ref [] in
  List.iter
    (fun (name, p) ->
      let code = profile_image p in
      let image = Digest.to_hex (Digest.bytes code) in
      let rewrite = relocatable_digest (R.rewrite_relocatable code) in
      match List.assoc_opt name (List.map (fun (n, i, r) -> (n, (i, r))) golden) with
      | Some (i, r) when i = image && r = rewrite -> ()
      | _ -> stale := Printf.sprintf "(%S, %S, %S);" name image rewrite :: !stale)
    shipped_profiles;
  if !stale <> [] then
    Alcotest.failf "golden digests differ:\n%s" (String.concat "\n" (List.rev !stale))

(* --- vDSO ------------------------------------------------------------ *)

let test_vdso_build_and_patch () =
  let values =
    [ ("clock_gettime", 111l); ("getcpu", 2l); ("gettimeofday", 333l); ("time", 444l) ]
  in
  let code, symbols = Vdso.build values in
  (* Calling the unpatched function returns its value. *)
  let time_sym = List.find (fun s -> s.Vdso.sym_name = "time") symbols in
  let st = Vm.run code ~entry:time_sym.Vdso.sym_addr in
  Alcotest.(check int) "unpatched returns value" 444 st.Vm.regs.(0);
  (* Patch; calling now triggers the hook. *)
  let p = Vdso.patch code symbols in
  let hook_hits = ref [] in
  let hooks =
    {
      Vm.on_syscall = Vm.record_syscall;
      on_hook =
        Some
          (fun site st ->
            hook_hits := site :: !hook_hits;
            st.Vm.regs.(0) <- 999;
            (* The monitor returns straight to the caller. *)
            st.Vm.pc <- (match st.Vm.stack with [] -> st.Vm.pc | ra :: _ -> ra));
      on_trap = None;
    }
  in
  let st = Vm.run ~hooks p.Vdso.v_code ~entry:time_sym.Vdso.sym_addr in
  Alcotest.(check int) "hooked value" 999 st.Vm.regs.(0);
  Alcotest.(check int) "hook fired once" 1 (List.length !hook_hits);
  (* The trampoline still runs the original implementation. *)
  let tramp = List.assoc "time" p.Vdso.v_trampolines in
  let st = Vm.run ~hooks p.Vdso.v_code ~entry:tramp in
  Alcotest.(check int) "trampoline gives original" 444 st.Vm.regs.(0)

let () =
  Alcotest.run "varan_binary"
    [
      ( "isa",
        [
          Alcotest.test_case "encode/decode roundtrip" `Quick
            test_encode_decode_roundtrip;
          Alcotest.test_case "decode invalid" `Quick test_decode_invalid;
          QCheck_alcotest.to_alcotest prop_decode_rejects_or_roundtrips;
          Alcotest.test_case "branch target" `Quick test_branch_target;
          Alcotest.test_case "with_target" `Quick test_with_target;
        ] );
      ( "disasm",
        [
          Alcotest.test_case "sweep skips data" `Quick test_sweep_skips_data;
          Alcotest.test_case "branch targets" `Quick
            test_branch_targets_collected;
          Alcotest.test_case "scan edge cases" `Quick test_scan_edge_cases;
          QCheck_alcotest.to_alcotest prop_scan_matches_sweep;
        ] );
      ( "vm",
        [
          Alcotest.test_case "arithmetic" `Quick test_vm_arithmetic;
          Alcotest.test_case "loop" `Quick test_vm_loop;
          Alcotest.test_case "call/ret" `Quick test_vm_call_ret;
          Alcotest.test_case "stack fault" `Quick test_vm_stack_fault;
          Alcotest.test_case "mov/xor/test" `Quick test_vm_mov_xor_test;
          Alcotest.test_case "inc/dec" `Quick test_vm_inc_dec;
          Alcotest.test_case "signed branches" `Quick test_vm_signed_branches;
          Alcotest.test_case "new insn roundtrips" `Quick
            test_new_insn_roundtrips;
        ] );
      ( "rewriter",
        [
          Alcotest.test_case "straightline" `Quick test_rewrite_straightline;
          Alcotest.test_case "no syscalls remain" `Quick
            test_rewrite_no_syscall_instructions_remain;
          Alcotest.test_case "trap fallback" `Quick test_rewrite_trap_fallback;
          Alcotest.test_case "loop" `Quick test_rewrite_loop;
          Alcotest.test_case "stub accounting" `Quick
            test_rewrite_preserves_original_length_prefix;
          Alcotest.test_case "site lookup" `Quick test_site_at;
          Alcotest.test_case "rel8 universal expansion" `Quick
            test_rel8_universal_expansion;
          QCheck_alcotest.to_alcotest prop_rewrite_equivalence;
          QCheck_alcotest.to_alcotest prop_sites_cover_all_syscalls;
        ] );
      ( "rewrite-cache",
        [
          Alcotest.test_case "rebase identity" `Quick
            test_cache_rebase_identity;
          Alcotest.test_case "rebase to 0 is identity" `Quick
            test_cache_rebase_zero_is_identity;
          Alcotest.test_case "keeps every image" `Quick
            test_cache_keeps_every_image;
          QCheck_alcotest.to_alcotest prop_cache_rebase_equals_cold;
        ] );
      ( "image",
        [
          Alcotest.test_case "W^X violation" `Quick test_wx_violation;
          Alcotest.test_case "rewrite_segment W^X" `Quick
            test_rewrite_segment_respects_wx;
        ] );
      ( "vdso",
        [ Alcotest.test_case "build and patch" `Quick test_vdso_build_and_patch ] );
      ( "golden",
        [ Alcotest.test_case "shipped profiles" `Quick test_golden_bytes ] );
    ]
