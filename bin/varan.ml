(* The varan command-line driver.

   Mirrors the prototype's usage from the paper (Figure 2):

     varan run --workload redis --followers 3
     varan run --workload lighttpd --followers 1 --ring-size 64 --pump
     varan lockstep --workload nginx --versions 2
     varan rewrite --bytes 30000 --share 0.02
     varan bpf --filter listing1 --leader 108 --follower 102
     varan list

   Everything executes against the simulated machine; statistics are
   printed from the session when the run completes. *)

module Driver = Varan_workloads.Driver
module Workload = Varan_workloads.Workload
module Catalog = Varan_workloads.Catalog
module Config = Varan_nvx.Config
module Nvx = Varan_nvx.Session
module Lifecycle = Varan_nvx.Lifecycle
module CK = Varan_nvx.Checkpoint
module H = Varan_torture.Harness
module Tablefmt = Varan_util.Tablefmt
module Span = Varan_obs.Trace
module Profile = Varan_obs.Profile
module Flight = Varan_obs.Flight
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Observability flags shared by run/serve/torture                     *)
(* ------------------------------------------------------------------ *)

type obs = { trace_out : string option; postmortem_dir : string option }

let obs_term =
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a virtual-time span trace of the run (syscall spans per \
             variant, engine dispatch slices, lifecycle and bridge \
             instants) and write it as Chrome trace-event JSON — load the \
             file in Perfetto or chrome://tracing.")
  in
  let postmortem_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "postmortem-dir" ] ~docv:"DIR"
          ~doc:
            "Arm flight-recorder post-mortem bundles: on oracle divergence, \
             quarantine-kill or session degradation, the per-shard black \
             box (recent events, lifecycle transition history, bridge/link \
             state, newest checkpoint) is dumped as a JSON bundle in DIR.")
  in
  Term.(
    const (fun trace_out postmortem_dir -> { trace_out; postmortem_dir })
    $ trace_out $ postmortem_dir)

let arm obs =
  (match obs.postmortem_dir with
  | Some dir ->
    Flight.dump_enabled := true;
    Flight.dump_dir := dir
  | None -> ());
  if obs.trace_out <> None then Span.configure ()

(* Name the last post-mortem bundle (unless [report_dump] is false: a
   sweep dumps per case), print [before_trace], then write the trace. *)
let finish ?(report_dump = true) ?(before_trace = ignore) obs =
  (match !Flight.dumps with
  | p :: _ when report_dump -> Printf.printf "post-mortem: %s\n" p
  | _ -> ());
  before_trace ();
  match obs.trace_out with
  | None -> ()
  | Some path ->
    Span.write_chrome_json path;
    Printf.printf "trace: %d event(s)%s -> %s\n" (Span.count ())
      (let d = Span.dropped () in
       if d = 0 then "" else Printf.sprintf " (%d dropped)" d)
      path

(* ------------------------------------------------------------------ *)
(* Flags several commands define: each builder fixes the flag's names   *)
(* and metavariable; the command gives its type, default and doc.       *)
(* ------------------------------------------------------------------ *)

let opt_flag names docv ty default doc =
  Arg.(value & opt ty default & info names ~docv ~doc)

let seed_flag ?(docv = "N") default doc =
  opt_flag [ "seed" ] docv Arg.int default doc

let followers_flag ?(short = true) ty default doc =
  let names = if short then [ "f"; "followers" ] else [ "followers" ] in
  opt_flag names "N" ty default doc

let shards_flag ty default doc = opt_flag [ "shards" ] "N" ty default doc
let count_flag name default doc = opt_flag [ name ] "N" Arg.int default doc
let checkpoint_interval_flag ty = opt_flag [ "checkpoint-interval" ] "CYCLES" ty

let workloads =
  [
    ("beanstalkd", Catalog.beanstalkd);
    ("lighttpd", Catalog.lighttpd_wrk);
    ("memcached", Catalog.memcached);
    ("nginx", Catalog.nginx);
    ("redis", Catalog.redis);
    ("apache", Catalog.apache_httpd);
    ("thttpd", Catalog.thttpd);
  ]

let workload_conv =
  let parse s =
    match List.assoc_opt s workloads with
    | Some w -> Ok w
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown workload %s (try: %s)" s
              (String.concat ", " (List.map fst workloads))))
  in
  Arg.conv (parse, fun ppf w -> Format.pp_print_string ppf w.Workload.w_name)

let workload_arg =
  Arg.(
    required
    & opt (some workload_conv) None
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Benchmark application to run.")

let ring_size_arg =
  Arg.(
    value & opt int 256
    & info [ "ring-size" ] ~docv:"EVENTS" ~doc:"Shared ring buffer capacity.")

let pump_arg =
  Arg.(
    value & flag
    & info [ "pump" ]
        ~doc:"Use per-follower queues with an event pump (the discarded design).")

let trap_only_arg =
  Arg.(
    value & flag
    & info [ "trap-only" ]
        ~doc:"Intercept every system call through the INT3 path (no detours).")

let busy_wait_arg =
  Arg.(
    value & flag
    & info [ "busy-wait" ] ~doc:"Followers busy-wait instead of using waitlocks.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "strace" ]
        ~doc:"Print the leader's system call trace after the run (§3.1).")

let nvx_config ring_size pump trap_only busy_wait trace =
  {
    Config.default with
    Config.ring_size;
    streaming = (if pump then Config.Event_pump else Config.Shared_ring);
    interception =
      (if trap_only then Config.Trap_only else Config.Rewrite);
    follower_wait =
      (if busy_wait then Config.Busy_wait else Config.Waitlock);
    trace_first_variant = trace;
  }

let print_measurement (m : Driver.measurement) =
  Printf.printf "%-14s %8d requests  %8.0f req/s  %8.2f us mean latency\n"
    m.Driver.m_label m.Driver.requests m.Driver.throughput_rps
    m.Driver.mean_latency_us

let print_session_stats (st : Nvx.stats) =
  let table =
    Tablefmt.create ~title:"\nPer-variant statistics:"
      [
        ("variant", Tablefmt.Left);
        ("role", Tablefmt.Left);
        ("syscalls", Tablefmt.Right);
        ("published", Tablefmt.Right);
        ("consumed", Tablefmt.Right);
        ("jump", Tablefmt.Right);
        ("trap", Tablefmt.Right);
        ("vdso", Tablefmt.Right);
        ("stalls", Tablefmt.Right);
      ]
  in
  Array.iter
    (fun v ->
      Tablefmt.add_row table
        [
          v.Nvx.vs_name;
          (match v.Nvx.vs_role with Nvx.Leader -> "leader" | Nvx.Follower -> "follower");
          string_of_int v.Nvx.vs_syscalls;
          string_of_int v.Nvx.vs_events_published;
          string_of_int v.Nvx.vs_events_consumed;
          string_of_int v.Nvx.vs_jump_dispatches;
          string_of_int v.Nvx.vs_trap_dispatches;
          string_of_int v.Nvx.vs_vdso_dispatches;
          string_of_int v.Nvx.vs_stall_blocks;
        ])
    st.Nvx.variants;
  Tablefmt.print table;
  (match st.Nvx.variants.(0).Nvx.vs_rewrite with
  | Some r ->
    Printf.printf
      "Binary rewriting: %d syscall sites, %d detoured, %d INT3 fallbacks, \
       %d bytes of stubs\n"
      r.Varan_binary.Rewriter.total_syscalls r.Varan_binary.Rewriter.jump_sites
      r.Varan_binary.Rewriter.trap_sites r.Varan_binary.Rewriter.stub_bytes
  | None -> ());
  Printf.printf "Shared memory pool: %d allocs, %d live chunks, %d B reserved\n"
    st.Nvx.pool.Varan_shmem.Pool.allocs st.Nvx.pool.Varan_shmem.Pool.live_chunks
    st.Nvx.pool.Varan_shmem.Pool.bytes_reserved

let run_cmd =
  let run w followers ring_size pump trap_only busy_wait trace obs =
    let config = nvx_config ring_size pump trap_only busy_wait trace in
    Printf.printf "Running %s natively...\n%!" w.Workload.w_name;
    let native = Driver.run w Driver.Native in
    print_measurement native;
    (* The span trace covers only the monitored run — the native warm-up
       above would interleave a second engine's timeline into pid 0. *)
    arm obs;
    Printf.printf "Running %s under VARAN with %d follower(s)...\n%!"
      w.Workload.w_name followers;
    let m, session = Driver.run_with_full_session w ~followers ~config in
    print_measurement m;
    Printf.printf "Overhead: %.2fx\n" (Driver.overhead ~baseline:native m);
    print_session_stats (Nvx.stats session);
    if trace then begin
      print_endline "\nLeader system call trace (first 25 lines):";
      List.iteri
        (fun i l -> if i < 25 then print_endline ("  " ^ l))
        (Nvx.trace_lines session)
    end;
    finish obs
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload under the VARAN monitor and report overhead.")
    Term.(
      const run $ workload_arg
      $ followers_flag Arg.int 1 "Number of followers."
      $ ring_size_arg $ pump_arg
      $ trap_only_arg $ busy_wait_arg $ trace_arg $ obs_term)

let lockstep_cmd =
  let versions_arg =
    Arg.(
      value & opt int 2
      & info [ "versions" ] ~docv:"N" ~doc:"Total versions under lockstep.")
  in
  let run w versions =
    let native = Driver.run w Driver.Native in
    print_measurement native;
    let m = Driver.run w (Driver.Lockstep { versions }) in
    print_measurement m;
    Printf.printf "Overhead: %.2fx (ptrace lockstep baseline)\n"
      (Driver.overhead ~baseline:native m)
  in
  Cmd.v
    (Cmd.info "lockstep"
       ~doc:"Run a workload under the ptrace lockstep baseline monitor.")
    Term.(const run $ workload_arg $ versions_arg)

let rewrite_cmd =
  let bytes_arg =
    Arg.(
      value & opt int 30_000
      & info [ "bytes" ] ~docv:"N" ~doc:"Approximate text segment size.")
  in
  let share_arg =
    Arg.(
      value & opt float 0.02
      & info [ "share" ] ~docv:"F" ~doc:"Fraction of instructions that are syscalls.")
  in
  let run bytes share seed =
    let rng = Varan_util.Prng.create seed in
    let code =
      Varan_binary.Codegen.profile_image rng ~code_bytes:bytes
        ~syscall_share:share
    in
    let r = Varan_binary.Rewriter.rewrite code in
    let s = r.Varan_binary.Rewriter.stats in
    Printf.printf
      "Image: %d bytes\nSyscall sites: %d\n  detoured (jmp): %d\n  INT3 \
       fallbacks: %d\nRelocated instructions: %d\nStub bytes appended: %d\n"
      (Bytes.length code) s.Varan_binary.Rewriter.total_syscalls
      s.Varan_binary.Rewriter.jump_sites s.Varan_binary.Rewriter.trap_sites
      s.Varan_binary.Rewriter.relocated_insns s.Varan_binary.Rewriter.stub_bytes
  in
  Cmd.v
    (Cmd.info "rewrite"
       ~doc:"Generate a synthetic text segment and show binary-rewriting statistics.")
    Term.(
      const run $ bytes_arg $ share_arg
      $ seed_flag ~docv:"S" 7 "Codegen seed.")

let bpf_cmd =
  let leader_arg =
    Arg.(
      value & opt int 108
      & info [ "leader" ] ~docv:"NR" ~doc:"Leader's next syscall number.")
  in
  let follower_arg =
    Arg.(
      value & opt int 102
      & info [ "follower" ] ~docv:"NR" ~doc:"Follower's pending syscall number.")
  in
  let run leader follower =
    let prog = Varan_bpf.Asm.assemble_exn Varan_bpf.Rules.listing1 in
    Format.printf "Listing 1 assembles to:@.%a@." Varan_bpf.Insn.pp_program prog;
    let out =
      Varan_bpf.Interp.run prog
        ~data:{ Varan_bpf.Interp.nr = follower; args = [||] }
        ~event:{ Varan_bpf.Interp.ev_nr = leader; ev_ret = 0; ev_args = [||] }
    in
    let verdict =
      match Varan_bpf.Rules.verdict_of_action out.Varan_bpf.Interp.action with
      | Varan_bpf.Rules.Kill -> "KILL"
      | Varan_bpf.Rules.Execute_follower_call -> "ALLOW (follower executes its call)"
      | Varan_bpf.Rules.Skip_leader_event -> "SKIP (leader event dropped)"
      | Varan_bpf.Rules.Other v -> Printf.sprintf "OTHER(0x%x)" v
    in
    Printf.printf "leader nr=%d, follower nr=%d -> %s (%d BPF instructions)\n"
      leader follower verdict out.Varan_bpf.Interp.steps
  in
  Cmd.v
    (Cmd.info "bpf"
       ~doc:"Assemble the paper's Listing 1 rewrite rule and evaluate a divergence.")
    Term.(const run $ leader_arg $ follower_arg)

let strace_cmd =
  let run w count =
    (* Run the workload natively with an strace wrapper on unit 0 and
       print the head of the trace — the debuggability story of §3.1. *)
    let _, trace = Varan_workloads.Driver.strace w in
    List.iteri
      (fun i l -> if i < count then print_endline l)
      (Varan_kernel.Strace.lines trace);
    Printf.printf "... (%d calls traced)\n" (Varan_kernel.Strace.calls trace)
  in
  Cmd.v
    (Cmd.info "strace"
       ~doc:"Trace a workload's system calls, strace-style (unit 0 only).")
    Term.(
      const run $ workload_arg
      $ count_flag "n" 30 "Number of trace lines to print.")

let torture_cmd =
  let module Fault = Varan_fault.Plan in
  let module Oracle = Varan_trace.Oracle in
  let seed_arg =
    seed_flag 0xBEEF
      "Case seed. The whole case — workload, follower count and fault plan \
       — derives from it, so any failing case reproduces from the seed \
       alone."
  in
  let plan_arg =
    Arg.(
      value & opt (some string) None
      & info [ "plan" ] ~docv:"SPEC"
          ~doc:
            "Override the case's fault plan, e.g. \
             crash:0@8,stall:1@3+20000,ring:2,burst:2x3@4,fork@5, or link \
             faults for $(b,--net) cases: part@4+120000,ldrop@11. A plan \
             naming a variant the case does not run exits 2.")
  in
  let followers_arg =
    followers_flag ~short:false
      Arg.(some int)
      None
      "Override the follower count (per shard for $(b,--shards)), clamped \
       to 1–4, keeping the case's plan. $(b,--net) cases keep at least one \
       follower local, so they need 2 or more."
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"Print the plan, digests and the oracle report per case.")
  in
  let lifecycle_arg =
    Arg.(
      value & flag
      & info [ "lifecycle" ]
          ~doc:
            "Run lifecycle cases: the follower lifecycle manager enabled, \
             with follower-only stalls past the watchdog timeout and \
             occasional follower crashes. Checks that every quarantined \
             follower rejoins with the native digest or dies after exactly \
             its respawn budget, and that the leader never gates on a \
             quarantined consumer.")
  in
  (* The lifecycle policy overrides as one edit of the case's own
     policy, [None] when no flag is given. The net preset varies
     checkpointing per seed, so each flag replaces one field of whatever
     the preset drew. *)
  let policy_term =
    let override flag doc set =
      Term.(
        const (Option.map set)
        $ flag
            Arg.(some int)
            None
            ("Lifecycle policy override: " ^ doc
           ^ " Implies $(b,--lifecycle); also applies to $(b,--net) cases."))
    in
    let both a b =
      match (a, b) with
      | None, e | e, None -> e
      | Some f, Some g -> Some (fun p -> g (f p))
    in
    List.fold_left
      (fun acc e -> Term.(const both $ acc $ e))
      (Term.const None)
      [
        override (opt_flag [ "stall-timeout" ] "CYCLES")
          "cycles without consumer progress before a follower is \
           quarantined."
          (fun v p -> { p with Lifecycle.stall_timeout = v });
        override (opt_flag [ "max-restarts" ] "N")
          "respawns allowed per follower before it is declared dead."
          (fun v p -> { p with Lifecycle.max_restarts = v });
        override (opt_flag [ "min-followers" ] "N")
          "below this many recoverable followers the session degrades to \
           native-speed leader-only execution."
          (fun v p -> { p with Lifecycle.min_followers = v });
        override (opt_flag [ "lag-threshold" ] "EVENTS")
          "ring lag before a follower counts as lagging."
          (fun v p -> { p with Lifecycle.lag_threshold = v });
        override checkpoint_interval_flag
          "cycles between follower checkpoints; a respawn restores the \
           newest one and replays only the tape delta (rr-style fast \
           rejoin). 0 disables checkpointing."
          (fun v p -> { p with Lifecycle.checkpoint_interval = v });
      ]
  in
  let net_arg =
    Arg.(
      value & flag
      & info [ "net" ]
          ~doc:
            "Run distributed cases: the last followers of each case sit \
             behind the cross-node ring bridge on a simulated remote \
             node, under a random link-fault plan (partitions, delays, \
             reorders, drops, duplicates). Checks that the bridge ships \
             checksummed batches, that partitions end in a healed rejoin \
             or a clean death — never a leader gate on an unreachable \
             node — and that every surviving digest still matches \
             native.")
  in
  let link_latency_arg =
    Arg.(
      value & opt (some int) None
      & info [ "link-latency" ] ~docv:"CYCLES"
          ~doc:
            "Distributed-mode override: one-way link latency in cycles. \
             Implies $(b,--net).")
  in
  let futex_arg =
    Arg.(
      value & flag
      & info [ "futex" ]
          ~doc:
            "Run contended-futex cases: multi-threaded variants (4–64 \
             threads) hammering shared futex words, replayed through the \
             per-tid event lanes. Checks that every alive follower \
             reproduces the leader's global lock-acquisition order, \
             digest-for-digest.")
  in
  let shards_arg =
    shards_flag
      Arg.(some int)
      None
      "Run sharded-pool cases: N monitor sessions co-resident on one kernel \
       behind the shared zygote and rewrite cache, each running its own \
       program. Checks that every shard's every variant reproduces that \
       shard's solo native digest — co-residency leaks nothing across shard \
       boundaries. 0 keeps the case's own shard count (2–4 from the seed). \
       Takes no $(b,--plan)."
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON object per case — digests against native, \
             aliveness, crashes, lifecycle/bridge/rewrite-cache/checkpoint \
             counters and the check verdicts — instead of the prose \
             report.")
  in
  let usage msg =
    prerr_endline ("varan torture: " ^ msg);
    exit 2
  in
  let print_report verbose (case : H.case) (out : H.outcome) fails =
    let module RC = Varan_binary.Rewrite_cache in
    let pooled = case.H.shards > 1 in
    let st = Nvx.stats out.H.session in
    Printf.printf "%s %s\n"
      (if fails = [] then "PASS" else "FAIL")
      (H.describe_case case);
    List.iter (Printf.printf "  %s\n") fails;
    (match st.Nvx.lifecycle with
    | Some r ->
      Printf.printf "  lifecycle: quarantines=%d rejoins=%d deaths=%d%s\n"
        r.Lifecycle.quarantines r.Lifecycle.rejoins r.Lifecycle.deaths
        (match r.Lifecycle.degraded_reason with
        | Some reason -> Printf.sprintf " degraded(%s)" reason
        | None -> "")
    | None -> ());
    (* The spawn fast path's effectiveness: every launch past the first of
       a given image — replicas, respawns and pooled shards alike — should
       be a cache hit served by rebase. *)
    if st.Nvx.lifecycle <> None || pooled then begin
      let rc = st.Nvx.rewrite_cache in
      let total = rc.RC.hits + rc.RC.misses in
      Printf.printf
        "  rewrite-cache: hits=%d misses=%d rebases=%d hit-rate=%d%%\n"
        rc.RC.hits rc.RC.misses rc.RC.rebases
        (if total = 0 then 0 else rc.RC.hits * 100 / total)
    end;
    if pooled then Printf.printf "  zygote: forks=%d\n" out.H.zygote_forks;
    (* The fast-rejoin path's effectiveness: respawns served from a
       checkpoint replay only the tape delta behind it. *)
    let ck = st.Nvx.checkpoints in
    if ck.CK.taken > 0 || ck.CK.restores > 0 then
      Printf.printf
        "  checkpoints: taken=%d restores=%d delta-events=%d resident=%dB\n"
        ck.CK.taken ck.CK.restores ck.CK.delta_events ck.CK.resident_bytes;
    (match st.Nvx.bridge with
    | Some b -> Format.printf "  bridge: %a@." Varan_net.Bridge.pp_stats b
    | None -> ());
    if verbose then begin
      (match st.Nvx.link with
      | Some l ->
        let module L = Varan_net.Link in
        Printf.printf
          "  link: sent=%d delivered=%d lost=%d dup=%d reorder=%d wire=%dB \
           partitions=%d\n"
          l.L.frames_sent l.L.frames_delivered l.L.frames_lost
          l.L.frames_duplicated l.L.frames_reordered l.L.bytes_sent
          l.L.partitions
      | None -> ());
      Option.iter (Format.printf "  %a@." Lifecycle.pp_report) st.Nvx.lifecycle;
      List.iter
        (fun inj -> Printf.printf "  plan: %s\n" (Fault.describe inj))
        case.H.plan;
      List.iter
        (fun (idx, msg) -> Printf.printf "  crash: variant %d: %s\n" idx msg)
        out.H.crashes;
      let n = case.H.followers + 1 in
      let unit g =
        if pooled then Printf.sprintf "s%d.v%d" (g / n) (g mod n)
        else Printf.sprintf "v%d" g
      in
      Array.iteri
        (fun s d ->
          if pooled then Printf.printf "  shard %d native: %s\n" s d
          else Printf.printf "  native digest: %s\n" d)
        out.H.natives;
      Array.iteri
        (fun g d ->
          Printf.printf "  %s%s: %s\n" (unit g)
            (if out.H.alive.(g) then "" else " (dead)")
            (if out.H.natives <> [||] && d = out.H.natives.(g / n) then
               "= native"
             else d))
        out.H.digests;
      Option.iter (Format.printf "  %a@." Oracle.pp_report) out.H.report
    end
  in
  let run seed count plan_spec followers verbose lifecycle futex shards
      policy net link_latency json obs =
    let lifecycle_on = lifecycle || Option.is_some policy in
    let net_on = net || Option.is_some link_latency in
    (* One preset per sweep; net cases always run the lifecycle manager,
       so the policy flags layer onto them. *)
    let gen =
      match
        List.filter
          (fun (_, on, _) -> on)
          [
            ("--shards", shards <> None, H.gen_shard_case);
            ("--futex", futex, H.gen_futex_case);
            ("--net/--link-latency", net_on, H.gen_net_case);
            ( "--lifecycle/policy flags",
              lifecycle_on && not net_on,
              H.gen_lifecycle_case );
          ]
      with
      | [] -> H.gen_case
      | [ (_, _, gen) ] -> gen
      | several ->
        usage
          (String.concat " and " (List.map (fun (f, _, _) -> f) several)
          ^ " select different case presets; pick one")
    in
    let plan =
      Option.map
        (fun spec ->
          match Fault.of_string spec with Ok p -> p | Error e -> usage e)
        plan_spec
    in
    let make s =
      let case = gen s in
      let case =
        {
          case with
          H.shards =
            (match shards with
            | Some n when n > 0 -> max 2 (min 8 n)
            | _ -> case.H.shards);
          lifecycle =
            Option.map (Option.value policy ~default:Fun.id) case.H.lifecycle;
          net =
            Option.map
              (fun n ->
                let l =
                  Option.value link_latency ~default:n.Config.link_latency
                in
                { n with Config.link_latency = max 0 l })
              case.H.net;
          plan = Option.value plan ~default:case.H.plan;
        }
      in
      let case =
        match followers with
        | Some f -> H.with_followers case (max 1 (min 4 f))
        | None -> case
      in
      match H.validate case with
      | Ok () -> case
      | Error e -> usage (Printf.sprintf "seed %d: %s" s e)
    in
    (* Every case is built and validated before the first one runs. *)
    let cases = List.init (max 0 count) (fun i -> make (seed + i)) in
    arm obs;
    let failures =
      List.fold_left
        (fun failures case ->
          let dumped = List.length !Flight.dumps in
          let out = H.run case in
          let fails = H.check case out in
          (* The bundles this case wrote, oldest first. *)
          let n = List.length !Flight.dumps - dumped in
          let postmortem =
            List.rev (List.filteri (fun i _ -> i < n) !Flight.dumps)
          in
          if json then
            print_endline (H.json_of_outcome ~fails ~postmortem case out)
          else begin
            print_report verbose case out fails;
            List.iter (Printf.printf "  post-mortem: %s\n") postmortem
          end;
          if fails = [] then failures else failures + 1)
        0 cases
    in
    if count > 1 && not json then
      Printf.printf "%d/%d cases passed\n" (count - failures) count;
    finish ~report_dump:false obs;
    exit (if failures > 0 then 1 else 0)
  in
  Cmd.v
    (Cmd.info "torture"
       ~doc:
         "Run seed-reproducible fault-injection torture cases: a random \
          syscall program under a random fault plan, checked against the \
          native run and the trace-invariant oracle.")
    Term.(
      const run $ seed_arg
      $ count_flag "count" 1 "Run this many consecutive seeds."
      $ plan_arg $ followers_arg
      $ verbose_arg $ lifecycle_arg $ futex_arg $ shards_arg $ policy_term
      $ net_arg $ link_latency_arg $ json_arg $ obs_term)

let replay_cmd =
  let module RR = Varan_nvx.Record_replay in
  let at_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "at" ] ~docv:"SEQ"
          ~doc:
            "Time-travel target: the tuple-0 stream position to \
             reconstruct, as a checkpointed rejoin would — restore the \
             nearest retained checkpoint at or below it and replay only \
             the tape delta behind it.")
  in
  let run at seed interval nprint =
    (* Record: one lifecycle torture case with checkpointing on, keeping
       the finished session's tape and checkpoint store. *)
    let case = H.gen_lifecycle_case seed in
    let policy =
      { H.lifecycle_policy with Lifecycle.checkpoint_interval = interval }
    in
    let case = { case with H.lifecycle = Some policy } in
    Printf.printf "Recorded %s\n" (H.describe_case case);
    let out = H.run case in
    match RR.time_travel out.H.session ~at with
    | Error e ->
      Printf.eprintf "varan replay: %s\n" e;
      exit 1
    | Ok tt ->
      (match Nvx.tuple_tape out.H.session 0 with
      | Some tape ->
        Printf.printf "Tape: retained window [%d, %d)\n" (Varan_nvx.Tape.base tape)
          (Varan_nvx.Tape.length tape)
      | None -> ());
      (match tt.RR.tt_checkpoint with
      | Some cp ->
        Printf.printf
          "Restore: variant %d's checkpoint at seq %d (clock %d, %d B of \
           program state, %d fds)\n"
          cp.CK.cp_idx cp.CK.cp_seq cp.CK.cp_clock
          (Bytes.length cp.CK.cp_state)
          (Varan_kernel.Kernel.fd_snapshot_count cp.CK.cp_fds)
      | None -> Printf.printf "Restore: none — cold start from seq 0\n");
      Printf.printf "Delta: %d event(s) to reach seq %d\n"
        (List.length tt.RR.tt_delta) tt.RR.tt_at;
      List.iteri
        (fun i e ->
          if i < nprint then
            Format.printf "  %4d  %a@."
              (tt.RR.tt_at - List.length tt.RR.tt_delta + i)
              Varan_ringbuf.Event.pp e)
        tt.RR.tt_delta;
      if List.length tt.RR.tt_delta > nprint then
        Printf.printf "  ... (%d more)\n" (List.length tt.RR.tt_delta - nprint)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Time-travel a recorded lifecycle session: reconstruct any stream \
          position from the nearest checkpoint plus the retained tape delta.")
    Term.(
      const run $ at_arg
      $ seed_flag 0xBEEF
          "Seed of the lifecycle torture case whose tape is replayed."
      $ checkpoint_interval_flag Arg.int 60_000
          "Cycles between follower checkpoints during the recording run."
      $ count_flag "n" 10 "Delta events to print (tail truncated).")

let serve_cmd =
  let module Serving = Varan_workloads.Serving in
  let module Router = Varan_nvx.Router in
  let requests_arg =
    Arg.(
      value & opt int Serving.default.Serving.sv_requests
      & info [ "requests" ] ~docv:"N" ~doc:"Open-loop arrivals to generate.")
  in
  let workers_arg =
    Arg.(
      value & opt int Serving.default.Serving.sv_workers
      & info [ "workers" ] ~docv:"N"
          ~doc:"Client tasks multiplexing the simulated client ids.")
  in
  let gap_arg =
    Arg.(
      value & opt float Serving.default.Serving.sv_mean_gap_cycles
      & info [ "gap" ] ~docv:"CYCLES"
          ~doc:"Mean Poisson inter-arrival gap in cycles.")
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Attribute the run's virtual cycles to hot-path phases (ring \
             wait, syscall exec, oracle digest, bridge wire, scheduler \
             dispatch, client idle/wait, ...) and print the per-phase \
             breakdown against the engine's total task-cycles — the \
             falloff diagnosis ROADMAP item 4 asks for.")
  in
  let run shards followers requests workers gap seed obs profile =
    let spec =
      {
        Serving.default with
        Serving.sv_shards = max 1 shards;
        sv_followers = max 0 followers;
        sv_requests = max 1 requests;
        sv_workers = max 1 workers;
        sv_mean_gap_cycles = gap;
        sv_seed = seed;
      }
    in
    arm obs;
    if profile then begin
      Profile.reset ();
      Profile.enabled := true
    end;
    Printf.printf
      "Serving %d open-loop request(s) (mean gap %.0f cycles) across %d \
       shard(s), %d follower(s) each...\n\
       %!"
      spec.Serving.sv_requests spec.Serving.sv_mean_gap_cycles
      spec.Serving.sv_shards spec.Serving.sv_followers;
    let o = Serving.run spec in
    let m = o.Serving.o_measurement in
    Printf.printf
      "%8d requests  %8.0f req/s  %6.1f us mean  p50 %.1f  p99 %.1f  p999 \
       %.1f  (%d error(s))\n"
      m.Driver.requests m.Driver.throughput_rps m.Driver.mean_latency_us
      m.Driver.p50_us m.Driver.p99_us m.Driver.p999_us m.Driver.errors;
    let r = o.Serving.o_router in
    Printf.printf
      "router: %d route(s), %d assignment(s), %d drained; per shard: %s\n"
      r.Router.routed r.Router.assigned r.Router.drained
      (String.concat " "
         (Array.to_list (Array.map string_of_int r.Router.per_shard)));
    Printf.printf "shared zygote: %d fork(s); rewrite cache: %d cold, %d \
                   rebase(s)\n"
      o.Serving.o_zygote_forks
      o.Serving.o_rewrite_cache.Varan_binary.Rewrite_cache.misses
      o.Serving.o_rewrite_cache.Varan_binary.Rewrite_cache.rebases;
    List.iter
      (fun (s, why) -> Printf.printf "shard %d degraded: %s\n" s why)
      o.Serving.o_degraded;
    finish obs ~before_trace:(fun () ->
        if profile then
          print_string
            (Profile.render ~total_cycles:o.Serving.o_total_task_cycles))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the sharded serving layer under open-loop Poisson load and \
          report throughput and tail latency.")
    Term.(
      const run
      $ shards_flag Arg.int 4
          "Monitor shards (one NVX session each) behind the router."
      $ followers_flag Arg.int 1 "Followers per shard."
      $ requests_arg $ workers_arg $ gap_arg
      $ seed_flag Serving.default.Serving.sv_seed
          "Arrival-schedule and router seed."
      $ obs_term $ profile_arg)

let list_cmd =
  let run () =
    print_endline "Available workloads:";
    List.iter
      (fun (key, w) ->
        Printf.printf "  %-12s %s (%d unit%s)\n" key w.Workload.w_name
          w.Workload.units
          (if w.Workload.units = 1 then "" else "s"))
      workloads
  in
  Cmd.v (Cmd.info "list" ~doc:"List available workloads.") Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "varan" ~version:"1.0.0"
       ~doc:"An efficient N-version execution framework (simulated reproduction).")
    [
      run_cmd; lockstep_cmd; rewrite_cmd; bpf_cmd; strace_cmd; torture_cmd;
      replay_cmd; serve_cmd; list_cmd;
    ]

let () = exit (Cmd.eval main)
