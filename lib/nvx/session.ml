open Monitor

type t = Monitor.t
type role = Monitor.role = Leader | Follower

exception Divergence_kill = Monitor.Divergence_kill

type divergence_entry = Monitor.divergence_entry = {
  d_variant : string;
  d_follower_call : string;
  d_leader_event : string;
  d_verdict : string;
}

let release_payload = Monitor.release_payload

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

(* Build the variant's synthetic text segment and rewrite it through the
   resident rewrite cache, recording the dispatch mix; also patch a vDSO
   image so interception covers the virtual syscalls (§3.2.1).

   This is the spawn fast path: the pristine text is generated once per
   code profile (the zygote forks every variant and incarnation mapping
   that profile from the same pristine image), and the rewrite is served
   content-addressed — the first launch of a given image pays the full
   disassemble-and-patch cost, every later launch (replica of the same
   binary, respawned incarnation) is an O(sites) rebase of the cached
   entry into a fresh site-id range. *)
let prepare_image t vst =
  let t0 = Unix.gettimeofday () in
  let reg = Prof.region_enter () in
  let code = pristine_text t.pristine vst.variant.Variant.profile in
  let seg =
    Image.make_segment ~name:(vst.variant.Variant.v_name ^ ".text") ~base:0
      ~perm:Image.rx code
  in
  let first_site_id = t.next_site_id in
  let _sites, stats =
    Rewrite_cache.prepare_segment t.rewrite_cache ~first_site_id seg
  in
  t.next_site_id <- first_site_id + stats.Rewriter.total_syscalls;
  vst.rewrite <- Some stats;
  vst.trap_share_c1000 <-
    (if stats.Rewriter.total_syscalls = 0 then 0
     else stats.Rewriter.trap_sites * 1000 / stats.Rewriter.total_syscalls);
  (* vDSO patching is shared across variants in the prototype; here we
     patch per variant for the stats only. *)
  let vdso_code, symbols =
    Vdso.build (List.map (fun n -> (n, 0l)) Vdso.default_symbols)
  in
  let patched = Vdso.patch ~first_site_id:t.next_site_id vdso_code symbols in
  t.next_site_id <- t.next_site_id + List.length patched.Vdso.v_sites;
  vst.spawn_ns <- vst.spawn_ns +. ((Unix.gettimeofday () -. t0) *. 1e9);
  vst.spawn_preps <- vst.spawn_preps + 1;
  Prof.region_exit Phase.rewrite reg

let start_units t vst =
  let program = vst.variant.Variant.program in
  let main_proc =
    match vst.main_proc with Some p -> p | None -> assert false
  in
  let nunits = program.Variant.units in
  let unit_procs =
    Array.init nunits (fun u ->
        match program.Variant.unit_kind with
        | Variant.Thread -> main_proc
        | Variant.Process ->
          if u = 0 then main_proc
          else
            K.fork_proc t.k main_proc
              (Printf.sprintf "%s.worker%d" vst.variant.Variant.v_name u))
  in
  vst.all_procs <-
    Array.fold_left
      (fun acc p -> if List.memq p acc then acc else p :: acc)
      vst.all_procs unit_procs;
  let incarnation = vst.incarnation in
  for u = 0 to nunits - 1 do
    let proc = unit_procs.(u) in
    let api = Interpose.make_unit_api t vst ~unit_idx:u proc in
    (* Apply the respawn's chosen checkpoint: reinstate the snapshotted
       descriptor table and hand the program its own encoded state to
       fast-forward from, before the unit body runs. *)
    (match vst.pending_restore with
    | Some cp when u = 0 ->
      K.restore_fds t.k proc cp.Checkpoint.cp_fds;
      api.Api.resume_state <- Some cp.Checkpoint.cp_state;
      vst.pending_restore <- None
    | _ -> ());
    let task_name =
      Printf.sprintf "%s.unit%d" vst.variant.Variant.v_name u
    in
    let tid =
      E.spawn_here ~name:task_name (fun () ->
          try program.Variant.body ~unit_idx:u api with
          | E.Killed -> ()
          | exn ->
            (* A task surviving from a superseded incarnation must not
               crash the respawned one. *)
            if vst.incarnation = incarnation then
              Recovery.handle_crash t vst exn)
    in
    K.register_task t.k proc tid
  done

(* ------------------------------------------------------------------ *)
(* Shared spawn hub (sharded serving)                                  *)
(* ------------------------------------------------------------------ *)

(* One zygote + one content-addressed rewrite cache serving several
   sessions. The hub holds a launcher per variant name; whichever
   session's coordinator runs first creates the actual zygote process
   (coordinators are engine tasks, and [Zygote.spawn] must run inside
   one), later coordinators reuse it. Fork requests dispatch by variant
   name, so names must be unique across the sessions sharing a hub —
   the shard layer prefixes them with the shard scope. *)
type shared_spawn = {
  sp_cache : Rewrite_cache.t;
  sp_pristine : pristine;
  mutable sp_zygote : Zygote.t option;
  mutable sp_creating : bool;
  sp_ready : E.Cond.cond;
  sp_launchers : (string, Types.proc -> name:string -> unit) Hashtbl.t;
}

let shared_spawn () =
  {
    sp_cache = Rewrite_cache.create ();
    sp_pristine = pristine_create ();
    sp_zygote = None;
    sp_creating = false;
    sp_ready = E.Cond.create "shared-zygote-ready";
    sp_launchers = Hashtbl.create 16;
  }

let shared_zygote sp = sp.sp_zygote
let shared_cache sp = sp.sp_cache

(* Get-or-create the hub's zygote; called from a coordinator task.
   [Zygote.spawn] yields (pipe setup runs under the zygote proc's API),
   so the creating coordinator latches [sp_creating] before its first
   yield — sibling coordinators arriving mid-spawn park on the cond
   instead of spawning a second zygote. *)
let shared_spawn_zygote sp k =
  match sp.sp_zygote with
  | Some z -> z
  | None when sp.sp_creating ->
    while sp.sp_zygote = None do
      E.Cond.wait sp.sp_ready
    done;
    Option.get sp.sp_zygote
  | None ->
    sp.sp_creating <- true;
    let dispatch proc ~name =
      match Hashtbl.find_opt sp.sp_launchers name with
      | Some l -> l proc ~name
      | None -> ()
    in
    let z = Zygote.spawn ~cache:sp.sp_cache k ~launcher:dispatch in
    sp.sp_zygote <- Some z;
    E.Cond.broadcast sp.sp_ready;
    z

(* Distributed mode: carve the last [remote_followers] variants onto a
   simulated remote node behind the cross-node ring bridge. Must wire
   up before the first publish on ring 0 — the bridge's sender
   sequence accounting starts at zero. *)
let attach_remote_node t ncfg =
  let nvariants = Array.length t.vstates in
  if t.lifecycle = None then
    invalid_arg "Session.launch: net mode requires the lifecycle manager";
  if t.cfg.Config.streaming <> Config.Shared_ring then
    invalid_arg "Session.launch: net mode requires shared-ring streaming";
  if
    ncfg.Config.remote_followers < 1
    || ncfg.Config.remote_followers > nvariants - 1
  then
    invalid_arg
      "Session.launch: net.remote_followers must be in [1, variants - 1]";
  let eng = t.k.Types.eng in
  let local_node = Net_node.create ~eng "node0" in
  let remote_node = Net_node.create ~eng "node1" in
  (* The mirror gets no oracle tap: attaching it would double-register
     tuple 0 and its consumer ids collide with the local ring's. The
     oracle still audits the local ring the bridge consumes from, and
     the harness digests audit remote followers end to end. *)
  let mirror = Ring.create ~size:(effective_ring_size t.cfg) "mirror0" in
  let faults ~seq =
    match t.fault with
    | None -> []
    | Some armed ->
      List.map
        (function
          | Fault.L_partition d -> Link.Partition d
          | Fault.L_delay d -> Link.Delay d
          | Fault.L_reorder -> Link.Reorder
          | Fault.L_drop -> Link.Drop
          | Fault.L_duplicate -> Link.Duplicate)
        (Fault.at_link_send armed ~seq)
  in
  (* Flatten a pooled payload into the event for the wire and release
     this consumer's reference; the bytes still travel in-process so
     remote replay digests stay exact. *)
  let materialize (e : Event.t) =
    match e.Event.payload with
    | None -> e
    | Some chunk ->
      let n = max 0 e.Event.payload_len in
      let buf = Bytes.create n in
      ignore (Pool.read_into chunk buf ~len:n);
      release_payload t e;
      Event.flatten e ~out:(Some buf)
  in
  let discard e = release_payload t e in
  (* dMVX-style selective replication: results the remote variant can
     reproduce from its own replicated filesystem travel header-only
     on the wire; payloads that embody external nondeterminism
     (sockets, entropy, time) or a descriptor grant must ship.
     Non-syscall events are header-sized anyway. *)
  let reproducible =
    List.map Sysno.to_int
      [
        Sysno.Read; Sysno.Pread64; Sysno.Readv; Sysno.Getdents;
        Sysno.Getcwd; Sysno.Readlink; Sysno.Stat; Sysno.Fstat;
        Sysno.Lstat; Sysno.Access;
      ]
  in
  let must_replicate (e : Event.t) =
    e.Event.kind <> Event.Ev_syscall
    || not (List.mem e.Event.sysno reproducible)
  in
  let cfg_b =
    {
      Bridge.default_config with
      batch_max = ncfg.Config.bridge_batch;
      window = ncfg.Config.bridge_window;
      rto = ncfg.Config.bridge_rto;
      rto_max = max ncfg.Config.bridge_rto Bridge.default_config.rto_max;
    }
  in
  let bridge =
    Bridge.create ~local_node ~remote_node ~local:t.rings.(0) ~mirror
      ~cfg:cfg_b ~latency:ncfg.Config.link_latency
      ~cycles_per_kb:ncfg.Config.link_cycles_per_kb ~faults ~materialize
      ~discard ~must_replicate ()
  in
  t.net <-
    Some
      {
        n_cfg = ncfg;
        n_local_node = local_node;
        n_remote_node = remote_node;
        n_bridge = bridge;
        n_mirror = mirror;
        n_base = 0;
        n_epoch = 0;
        n_remote =
          Array.init nvariants (fun i ->
              i >= nvariants - ncfg.Config.remote_followers);
      };
  Bridge.set_on_heal bridge (fun () ->
      ignore
        (E.spawn_here ~name:"bridge-heal" (fun () ->
             Recovery.heal_work t)))

let launch ?(config = Config.default) ?scope ?shared k variants =
  if variants = [] then invalid_arg "Session.launch: no variants";
  let variants = Array.of_list variants in
  let shape = variants.(0).Variant.program in
  Array.iter
    (fun v ->
      if
        v.Variant.program.Variant.units <> shape.Variant.units
        || v.Variant.program.Variant.unit_kind <> shape.Variant.unit_kind
      then invalid_arg "Session.launch: variants have different unit shapes")
    variants;
  let ntuples = initial_tuples shape in
  let nvariants = Array.length variants in
  if config.Config.lifecycle <> None && config.Config.streaming = Config.Event_pump
  then
    invalid_arg
      "Session.launch: the follower lifecycle manager requires shared-ring \
       streaming";
  let pump =
    match config.Config.streaming with
    | Config.Shared_ring -> None
    | Config.Event_pump ->
      Some
        (Stream.pump_create ~size:(effective_ring_size config) ~tuples:ntuples
           ~variants:nvariants)
  in
  let vstates = Array.mapi new_vstate variants in
  let t =
    {
      k;
      cfg = config;
      cost = config.Config.cost;
      pool = Pool.create ~pool_bytes:config.Config.pool_bytes ();
      rings = [||];
      pump;
      vstates;
      leader_idx = 0;
      payload_refs = Hashtbl.create 64;
      zygote = None;
      rewrite_cache =
        (match shared with
        | Some sp -> sp.sp_cache
        | None -> Rewrite_cache.create ());
      pristine =
        (match shared with
        | Some sp -> sp.sp_pristine
        | None -> pristine_create ());
      next_site_id = 0;
      crash_list = [];
      crash_list_len = 0;
      crash_total = 0;
      lifecycle =
        (match config.Config.lifecycle with
        | Some p -> Some (Lifecycle.create ?scope p ~variants:nvariants)
        | None -> None);
      tapes = [||];
      (* The checkpoint store stays per-session even under a shared hub:
         snapshots are keyed by variant index, which collides across
         sessions. Only the zygote and the rewrite cache are shared. *)
      checkpoints = Checkpoint.create ?scope ();
      degraded = None;
      max_lag = 0;
      waitlock_sleepers = [||];
      tuple_ready = [||];
      ready_cond = E.Cond.create "fork-ready";
      divergence_log = [];
      divergence_log_len = 0;
      tracer = None;
      fault =
        (match config.Config.fault_plan with
        | [] -> None
        | plan -> Some (Fault.arm plan));
      oracle = config.Config.oracle;
      net = None;
      fl = Flight.get (Option.value scope ~default:"");
      trace_pid = Trace.pid_of_scope (Option.value scope ~default:"session");
    }
  in
  (* Lifecycle transitions feed the flight recorder's history (and the
     trace, as instants on this session's track). The hook runs from
     scheduler context too (the watchdog ticker), so it reads the clock
     directly off the engine — no effects. *)
  (match t.lifecycle with
  | Some lc ->
    Lifecycle.set_on_transition lc (fun ~idx ~from_ ~to_ ~reason ->
        let at = E.now k.Types.eng in
        Flight.transition t.fl ~at ~idx ~from_ ~to_ ~reason;
        if !Trace.enabled then
          Trace.instant ~ts:at ~pid:t.trace_pid ~tid:idx
            ~args:
              (Printf.sprintf "\"from\":\"%s\",\"to\":\"%s\",\"reason\":\"%s\""
                 from_ to_ (Trace.json_escape reason))
            ("lifecycle:" ^ to_))
  | None -> ());
  for _ = 1 to ntuples do
    ignore (new_tuple t)
  done;
  Option.iter (attach_remote_node t) config.Config.net;
  (* The follower watchdog rides the engine tick. *)
  (match t.lifecycle with
  | Some lc ->
    let p = Lifecycle.policy lc in
    E.add_ticker k.Types.eng ~period:p.Lifecycle.watchdog_period (fun () ->
        Recovery.watchdog_tick t)
  | None -> ());
  (* Subscribe every follower to every tuple. Multi-threaded variants get
     per-tid lanes in front of the shared ring; catch-up replay
     (lifecycle mode) reads the tape through the shared cursor, so lanes
     are reserved for the live-only configuration. *)
  let use_lanes =
    pump = None
    && config.Config.lifecycle = None
    && shape.Variant.units > 1
    && shape.Variant.unit_kind = Variant.Thread
  in
  Array.iter
    (fun vst ->
      if vst.idx <> 0 then begin
        for tu = 0 to ntuples - 1 do
          ignore (subscribe t vst tu)
        done;
        if use_lanes then
          Stream.demux (Option.get vst.streams.(0))
            ~capacity:(max 64 (2 * shape.Variant.units))
            ~on_route:(fun e ->
              (* The Lamport check runs here, at demux time, where
                 stream order is still visible (§3.3.3). *)
              if config.Config.enforce_clock_order then
                let ok = Lamport.try_advance vst.clocks.(0) e.Event.clock in
                if not ok then
                  raise
                    (Divergence_kill
                       (Printf.sprintf
                          "clock violation at demux: at %d got stamp %d"
                          (Lamport.current vst.clocks.(0))
                          e.Event.clock)))
      end)
    vstates;
  (* The pump is the only consumer of the leader's queues; followers
     each consume their own queue. *)
  (match pump with
  | None -> ()
  | Some p ->
    for tu = 0 to ntuples - 1 do
      Stream.pump_spawn p k.Types.eng ~tuple:tu
        ~source:(Ring.subscribe t.rings.(tu))
        ~cost:t.cost
        ~live:(fun idx -> idx <> t.leader_idx && t.vstates.(idx).alive)
    done);
  (* Coordinator: spawn (or join) the zygote, fork each variant through
     it, prepare images and start execution units (Figure 2). *)
  let launcher proc ~name =
    match
      Array.find_opt (fun vst -> vst.variant.Variant.v_name = name) vstates
    with
    | None -> ()
    | Some vst ->
      vst.main_proc <- Some proc;
      (* Every incarnation goes through prepare_image: the zygote
         forks from the pristine copy (Figure 2), and the rewrite
         cache turns everything after the first launch of a given
         image into an O(sites) rebase — respawns never re-run
         the rewriter from scratch. *)
      prepare_image t vst;
      start_units t vst
  in
  (* Under a shared hub, register this session's variants with the
     dispatch table up front (no task context needed) so whichever
     coordinator creates the zygote can already serve siblings. *)
  (match shared with
  | None -> ()
  | Some sp ->
    Array.iter
      (fun vst ->
        let name = vst.variant.Variant.v_name in
        if Hashtbl.mem sp.sp_launchers name then
          invalid_arg
            (Printf.sprintf
               "Session.launch: variant name %S already registered with this \
                spawn hub"
               name);
        Hashtbl.replace sp.sp_launchers name launcher)
      vstates);
  ignore
    (E.spawn k.Types.eng ~name:"coordinator" (fun () ->
         let z =
           match shared with
           | Some sp -> shared_spawn_zygote sp k
           | None ->
             Zygote.spawn ~cache:t.rewrite_cache ~checkpoints:t.checkpoints k
               ~launcher
         in
         t.zygote <- Some z;
         Array.iter
           (fun vst ->
             ignore (Zygote.fork_request z vst.variant.Variant.v_name))
           vstates;
         (* With the lifecycle manager the zygote stays resident to
            serve respawn requests; its service task parks on the
            request pipe and is abandoned at quiescence. A shared hub's
            zygote always stays resident — sibling sessions and their
            respawns keep using it. *)
         match (t.lifecycle, shared) with
         | None, None -> Zygote.shutdown z
         | _ -> ()));
  t

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let leader_index t = t.leader_idx
let role_of t idx = t.vstates.(idx).vrole
let is_alive t idx = t.vstates.(idx).alive

let alive_count t =
  Array.fold_left (fun n v -> if v.alive then n + 1 else n) 0 t.vstates

let crashes t = List.rev t.crash_list
let crash_log_nonempty t = t.crash_list <> []
let crash_count t = t.crash_total
let degraded t = t.degraded

let lifecycle_report t =
  match t.lifecycle with
  | Some lc -> Some (Lifecycle.report lc ~leader_idx:t.leader_idx)
  | None -> None

type variant_stats = {
  vs_name : string;
  vs_role : role;
  vs_alive : bool;
  vs_syscalls : int;
  vs_local_calls : int;
  vs_events_published : int;
  vs_events_consumed : int;
  vs_stall_blocks : int;
  vs_stall_cycles : int64;
  vs_wait_charge_cycles : int64;
  vs_sys_cycles : int64;
  vs_divergences_executed : int;
  vs_divergences_skipped : int;
  vs_divergences_coalesced : int;
  vs_bpf_steps : int;
  vs_jump_dispatches : int;
  vs_trap_dispatches : int;
  vs_vdso_dispatches : int;
  vs_injected_stalls : int;
  vs_incarnation : int;
  vs_rewrite : Rewriter.stats option;
  vs_spawn_ns : float;
  vs_spawn_preps : int;
}

type stats = {
  variants : variant_stats array;
  rings : Ring.stats array;
  pool : Pool.stats;
  max_observed_lag : int;
  rewrite_cache : Rewrite_cache.stats;
  pristine_generations : int;
  checkpoints : Checkpoint.stats;
  tapes : Tape.stats array;
  bridge : Bridge.stats option;
  link : Link.stats option;
}

let stats t =
  {
    variants =
      Array.map
        (fun vst ->
          {
            vs_name = vst.variant.Variant.v_name;
            vs_role = vst.vrole;
            vs_alive = vst.alive;
            vs_syscalls = vst.st.syscalls;
            vs_local_calls = vst.st.local_calls;
            vs_events_published = vst.st.events_published;
            vs_events_consumed = vst.st.events_consumed;
            vs_stall_blocks = vst.st.stall_blocks;
            vs_stall_cycles = Int64.of_int vst.st.stall_cycles;
            vs_wait_charge_cycles = Int64.of_int vst.st.wait_charge_cycles;
            vs_sys_cycles = vst.st.sys_cycles;
            vs_divergences_executed = vst.st.divergences_executed;
            vs_divergences_skipped = vst.st.divergences_skipped;
            vs_divergences_coalesced = vst.st.divergences_coalesced;
            vs_bpf_steps = vst.st.bpf_steps;
            vs_jump_dispatches = vst.st.jump_dispatches;
            vs_trap_dispatches = vst.st.trap_dispatches;
            vs_vdso_dispatches = vst.st.vdso_dispatches;
            vs_injected_stalls = vst.st.injected_stalls;
            vs_incarnation = vst.incarnation;
            vs_rewrite = vst.rewrite;
            vs_spawn_ns = vst.spawn_ns;
            vs_spawn_preps = vst.spawn_preps;
          })
        t.vstates;
    rings = Array.map Ring.stats t.rings;
    pool = Pool.stats t.pool;
    max_observed_lag = t.max_lag;
    rewrite_cache = Rewrite_cache.stats t.rewrite_cache;
    pristine_generations = t.pristine.generations;
    checkpoints = Checkpoint.stats t.checkpoints;
    tapes = Array.map Tape.stats t.tapes;
    bridge = Option.map (fun ns -> Bridge.stats ns.n_bridge) t.net;
    link = Option.map (fun ns -> Bridge.link_stats ns.n_bridge) t.net;
  }

let divergence_log t = List.rev t.divergence_log

let trace_lines t =
  match t.tracer with
  | Some tr -> Varan_kernel.Strace.lines tr
  | None -> []

let sample_lag t idx =
  let vst = t.vstates.(idx) in
  match vst.streams.(0) with
  | Some s when vst.alive && idx <> t.leader_idx -> Stream.lag s
  | _ -> 0

let observe_lags t =
  Array.iter
    (fun vst -> t.max_lag <- max t.max_lag (sample_lag t vst.idx))
    t.vstates

let tuple_ring (t : t) tu = t.rings.(tu)

let tuple_tape (t : t) tu =
  if tu < Array.length t.tapes then Some t.tapes.(tu) else None

let checkpoint_store (t : t) = t.checkpoints
let pristine_image (t : t) profile = Hashtbl.find_opt t.pristine.images profile
let flight (t : t) = t.fl