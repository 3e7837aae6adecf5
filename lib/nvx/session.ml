module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Types = Varan_kernel.Types
module Sysno = Varan_syscall.Sysno
module Args = Varan_syscall.Args
module Errno = Varan_syscall.Errno
module Cost = Varan_cycles.Cost
module Ring = Varan_ringbuf.Ring
module Event = Varan_ringbuf.Event
module Lanes = Varan_ringbuf.Lanes
module Pool = Varan_shmem.Pool
module Lamport = Varan_vclock.Lamport
module Interp = Varan_bpf.Interp
module Rules = Varan_bpf.Rules
module Rewriter = Varan_binary.Rewriter
module Rewrite_cache = Varan_binary.Rewrite_cache
module Codegen = Varan_binary.Codegen
module Image = Varan_binary.Image
module Vdso = Varan_binary.Vdso
module Prng = Varan_util.Prng
module Fault = Varan_fault.Plan
module Oracle = Varan_trace.Oracle
module Net_node = Varan_net.Node
module Link = Varan_net.Link
module Bridge = Varan_net.Bridge
module Prof = Varan_sim.Prof
module Phase = Varan_obs.Profile
module Trace = Varan_obs.Trace
module Flight = Varan_obs.Flight

type role = Leader | Follower

exception Divergence_kill of string

(* Internal: a follower unit discovered it is the new leader. *)
exception Promote

type vstats = {
  mutable syscalls : int;
  mutable local_calls : int;
  mutable events_published : int;
  mutable events_consumed : int;
  mutable stall_blocks : int;
  (* Plain ints, bumped on every follower wait: an [int64] field would
     box a fresh value and pay a write barrier per wait. Converted where
     the report is built. *)
  mutable stall_cycles : int;
  mutable wait_charge_cycles : int;
  mutable sys_cycles : int64;
  mutable divergences_executed : int;
  mutable divergences_skipped : int;
  mutable divergences_coalesced : int;
  mutable bpf_steps : int;
  mutable jump_dispatches : int;
  mutable trap_dispatches : int;
  mutable vdso_dispatches : int;
  mutable injected_stalls : int;
}

let fresh_vstats () =
  {
    syscalls = 0;
    local_calls = 0;
    events_published = 0;
    events_consumed = 0;
    stall_blocks = 0;
    stall_cycles = 0;
    wait_charge_cycles = 0;
    sys_cycles = 0L;
    divergences_executed = 0;
    divergences_skipped = 0;
    divergences_coalesced = 0;
    bpf_steps = 0;
    jump_dispatches = 0;
    trap_dispatches = 0;
    vdso_dispatches = 0;
    injected_stalls = 0;
  }

(* The zygote's pristine text, one image per code profile (§3.1): the
   first variant to map a profile generates it, and every later variant,
   replica and respawned incarnation forks the same bytes. It sits beside
   the rewrite cache and lives exactly as long as the zygote owning both;
   the bytes are only ever read, since the rewrite works on a copy. *)
type pristine = {
  images : (Variant.code_profile, Bytes.t) Hashtbl.t;
  mutable generations : int;
}

let pristine_create () = { images = Hashtbl.create 4; generations = 0 }

let pristine_text store (p : Variant.code_profile) =
  match Hashtbl.find_opt store.images p with
  | Some code -> code
  | None ->
    let code =
      Codegen.profile_image (Prng.create p.code_seed) ~code_bytes:p.code_bytes
        ~syscall_share:p.syscall_share
    in
    Hashtbl.replace store.images p code;
    store.generations <- store.generations + 1;
    code

type vstate = {
  idx : int;
  variant : Variant.t;
  mutable vrole : role;
  mutable main_proc : Types.proc option;
  mutable unit_procs : Types.proc array;
  (* Resolved consumer handles per tuple stream (the follower's own pump
     queue in event-pump mode); [None] when not a consumer there. The
     handle is looked up once at subscription, not per stream access. *)
  mutable consumers : Event.t Ring.consumer option array;
  (* Per-tid event lanes demultiplexing tuple 0's consumer for
     multi-threaded variants (sharded sequencer, §3.3.3): sibling threads
     replay concurrently instead of serializing on the ring head. [None]
     when head-serialization applies (single unit, process-shaped,
     event-pump or lifecycle mode, or this variant leads). *)
  mutable lanes : Lanes.t option;
  (* Rewrite rules compiled to a closure on first divergence; the
     interpreter stays the reference semantics (identical outcome). *)
  mutable compiled_rules : (Interp.ctx -> Interp.outcome) option;
  mutable clocks : Lamport.t array; (* per tuple *)
  mutable promoted : bool array; (* per unit: takes the leader path *)
  mutable unit_tuple : int array; (* per unit: the tuple it belongs to *)
  mutable unit_tid : int array; (* per unit: its stream tid in the tuple *)
  (* Bytes of the head event already handed out to coalesced calls, keyed
     by tuple (§2.3's coalescing pattern: a buffered leader write serves
     several smaller follower writes). *)
  partial_consumed : (int, int) Hashtbl.t;
  (* One-shot flag set by a Drop_payload_grant injection: the next pool
     payload this follower decodes is read but not released. *)
  mutable drop_release : bool;
  mutable alive : bool;
  (* Lifecycle catch-up: while [catchup_until.(tu) >= 0] and the position
     has not reached it, stream reads on tuple [tu] are served from the
     session tape at [catchup_pos.(tu)]; the live ring consumer (already
     subscribed, cursor parked at the splice sequence) takes over when
     the recorded prefix runs out. *)
  mutable catchup_pos : int array; (* per tuple *)
  mutable catchup_until : int array; (* per tuple; -1 = live *)
  mutable incarnation : int; (* respawns of this variant's image *)
  (* Every process ever created for this variant's current incarnation,
     so a quarantine can kill the whole variant (fork children are not
     reachable from [unit_procs]). *)
  mutable all_procs : Types.proc list;
  mutable table : Syscall_table.t;
  mutable trap_share_c1000 : int;
  mutable rewrite : Rewriter.stats option;
  mutable trap_acc : int;
  mutable spawn_ns : float; (* wall-clock ns spent in prepare_image, total *)
  mutable spawn_preps : int; (* prepare_image runs (1 + respawns) *)
  st : vstats;
  mutable apis : Api.t list;
  (* Checkpoint/restore fast rejoin (rr-style): the watchdog arms
     [checkpoint_due] every [checkpoint_interval] cycles; the follower
     captures at its next syscall boundary through the program's
     checkpoint hook. [pending_restore] carries the snapshot a respawn
     chose, applied when the fresh incarnation's unit 0 starts. *)
  mutable checkpoint_due : bool;
  mutable last_checkpoint_at : int64;
  mutable pending_restore : Checkpoint.snapshot option;
}

type t = {
  k : Types.t;
  cfg : Config.t;
  cost : Cost.t;
  pool : Pool.t;
  mutable ntuples : int;
  (* Shared_ring mode: one ring per tuple. Event_pump mode: the leader's
     private queues, one per tuple. Tuples grow when processes fork. *)
  mutable rings : Event.t Ring.t array;
  (* Event_pump mode only: per-tuple, per-variant follower queues. *)
  pump_queues : Event.t Ring.t array array option;
  vstates : vstate array;
  mutable leader_idx : int;
  payload_refs : (int, int ref) Hashtbl.t;
  mutable zygote : Zygote.t option;
  (* The spawn fast path's rewrite cache — the same object the resident
     zygote owns, kept here so stats and prepare_image reach it without
     going through the (optional) zygote handle. *)
  rewrite_cache : Rewrite_cache.t;
  pristine : pristine; (* beside the cache, owned the same way *)
  (* Monitor-wide site-id allocator: each prepared image (and vDSO patch)
     claims a contiguous id range, so cached rewrites are rebased to
     fresh ranges instead of re-run. *)
  mutable next_site_id : int;
  mutable crash_list : (int * string) list; (* reversed, bounded *)
  mutable crash_list_len : int;
  mutable crash_total : int; (* crashes ever, beyond the bounded list *)
  (* Follower lifecycle manager (None = the original terminal-removal
     behaviour). [tapes] is the per-tuple recorder feeding catch-up. *)
  mutable lifecycle : Lifecycle.t option;
  mutable tapes : Tape.t array;
  (* Follower checkpoint store — the same object the resident zygote
     owns, so snapshots survive the incarnations they were taken in. *)
  checkpoints : Checkpoint.t;
  mutable degraded : string option; (* native-execution fallback reason *)
  mutable max_lag : int;
  mutable waitlock_sleepers : int array;
      (* per tuple: followers asleep in a waitlock *)
  mutable tuple_ready : int array;
      (* per tuple: followers registered on a forked tuple *)
  ready_cond : E.Cond.cond;
      (* the coordinator's "wait until all followers fork" rendezvous *)
  mutable divergence_log : divergence_record list; (* reversed, bounded *)
  mutable divergence_log_len : int;
  mutable tracer : Varan_kernel.Strace.t option;
  fault : Fault.armed option;
  oracle : Oracle.t option;
  (* Distributed mode (config.net): the cross-node ring bridge and its
     bookkeeping. [None] keeps everything on one node. *)
  mutable net : net_state option;
  (* Observability: the session's flight recorder (keyed by the same
     scope string the stats registry uses) and the trace track its
     syscall spans and lifecycle instants render on. *)
  fl : Flight.t;
  trace_pid : int;
}

and divergence_record = {
  dv_variant : string;
  dv_follower_call : string;
  dv_leader_event : string;
  dv_verdict : string;
}

and net_state = {
  n_cfg : Config.net;
  n_local_node : Net_node.t;
  n_remote_node : Net_node.t;
  n_bridge : Bridge.t;
  (* The remote node's mirror of ring 0; replaced wholesale (fresh ring,
     new bridge epoch) each time a healed partition reattaches. *)
  mutable n_mirror : Event.t Ring.t;
  (* Global tuple-0 stream sequence of the mirror's sequence 0. *)
  mutable n_base : int;
  mutable n_epoch : int;
  (* Per variant index: lives on the remote node (consumes the mirror
     for tuple 0). The leader is always local. *)
  n_remote : bool array;
}

(* ------------------------------------------------------------------ *)
(* Payload reference counting                                          *)
(* ------------------------------------------------------------------ *)

let register_payload t (e : Event.t) readers =
  match e.Event.payload with
  | None -> ()
  | Some chunk ->
    if readers <= 0 then Pool.free t.pool chunk
    else begin
      Hashtbl.replace t.payload_refs chunk.Pool.addr (ref readers);
      match t.oracle with
      | Some o ->
        Oracle.note_payload_register o ~addr:chunk.Pool.addr ~readers
      | None -> ()
    end

let release_payload t (e : Event.t) =
  match e.Event.payload with
  | None -> ()
  | Some chunk -> (
    match Hashtbl.find_opt t.payload_refs chunk.Pool.addr with
    | None -> ()
    | Some r ->
      (match t.oracle with
      | Some o -> Oracle.note_payload_release o ~addr:chunk.Pool.addr
      | None -> ());
      decr r;
      if !r <= 0 then begin
        Hashtbl.remove t.payload_refs chunk.Pool.addr;
        Pool.free t.pool chunk
      end)

(* ------------------------------------------------------------------ *)
(* Stream access (shared ring vs event pump)                           *)
(* ------------------------------------------------------------------ *)

let tuple_of_unit vst u = vst.unit_tuple.(u)

let is_remote t idx =
  match t.net with Some ns -> ns.n_remote.(idx) | None -> false

(* Remote followers consume tuple 0 from the bridge's mirror ring, not
   the leader's ring; forked tuples are consumed directly (same-process
   license — the model is the bridge shipping their deltas too). *)
let follower_queue t vst tuple =
  match t.pump_queues with
  | Some pq -> pq.(tuple).(vst.idx)
  | None -> (
    match t.net with
    | Some ns when tuple = 0 && ns.n_remote.(vst.idx) -> ns.n_mirror
    | _ -> t.rings.(tuple))

let stream_publish_k t tuple make = Ring.publish_k t.rings.(tuple) make

(* Both streaming modes store the follower's resolved handle (shared ring
   or private pump queue) in [vst.consumers], so the per-event accessors
   are a single array read — no registry lookup, no mode dispatch. *)
let stream_consumer vst tuple =
  match vst.consumers.(tuple) with
  | Some c -> c
  | None -> invalid_arg "Session: not a stream consumer on this tuple"

(* Tape catch-up: a respawned follower consumes the recorded prefix
   [catchup_pos, catchup_until) of the tuple tape before touching its
   live ring consumer (whose cursor waits at the splice sequence). Tape
   indices coincide with stream sequence numbers — the tape records every
   published event from sequence 0. *)
let in_catchup vst tuple =
  tuple < Array.length vst.catchup_until
  && vst.catchup_until.(tuple) >= 0
  && vst.catchup_pos.(tuple) < vst.catchup_until.(tuple)

let catchup_done vst = Array.for_all (fun u -> u < 0) vst.catchup_until

(* The rejoin moment: the last recorded prefix ran out, the next read
   comes from the live ring at exactly the splice sequence. *)
let finish_rejoin t vst =
  match t.lifecycle with
  | None -> ()
  | Some lc ->
    let en = Lifecycle.entry lc vst.idx in
    if Lifecycle.state en = Lifecycle.Catching_up && catchup_done vst then
      Lifecycle.transition lc en Lifecycle.Healthy

(* Lanes demultiplex tuple 0 only: forked tuples are process children
   with a single unit each, so head-serialization costs them nothing. *)
let lanes_active vst tuple = tuple = 0 && vst.lanes <> None

(* The syscall-number half of the lane sync predicate (the kind half is
   {!Event.is_ordering_kind}): close frees a granted descriptor slot in
   every variant, and futex results encode the leader's lock-acquisition
   order — both are semantics only in global stream order. *)
let lane_sync_event (e : Event.t) =
  Event.is_ordering_kind e
  || e.Event.sysno = Sysno.to_int Sysno.Close
  || e.Event.sysno = Sysno.to_int Sysno.Futex

let stream_peek t vst tuple =
  if in_catchup vst tuple then
    Some (Tape.event_at t.tapes.(tuple) vst.catchup_pos.(tuple))
  else Ring.peek_h (stream_consumer vst tuple)

let stream_advance t vst tuple ~tid =
  if in_catchup vst tuple then begin
    vst.catchup_pos.(tuple) <- vst.catchup_pos.(tuple) + 1;
    if vst.catchup_pos.(tuple) >= vst.catchup_until.(tuple) then begin
      vst.catchup_until.(tuple) <- -1;
      finish_rejoin t vst
    end;
    (* Tape progress is invisible to the ring, but sibling units of this
       variant park on ring activity while waiting for their tid to reach
       the head — wake them. *)
    Ring.poke (follower_queue t vst tuple)
  end
  else
    match vst.lanes with
    | Some ln when tuple = 0 ->
      (* Consuming a lane event can unblock the demux (barrier lifted,
         lanes emptied): poke the ring so parked siblings re-pump. *)
      if Lanes.advance ln ~tid then Ring.poke t.rings.(tuple)
    | _ -> ignore (Ring.try_consume_h (stream_consumer vst tuple))

(* Coalescing state is per head event. With one shared cursor that means
   per tuple; with lanes every tid has its own head, so the key shards by
   tid (lanes imply a single tuple, so the key spaces cannot collide). *)
let partial_key vst tuple ~tid = if lanes_active vst tuple then tid else tuple

(* Both stream-wait entry points park the follower until leader events
   (or a poke) arrive: that park is the ring-wait phase of the cycle
   attribution, charged here because followers wait through
   [Ring.wait_activity], not the ring's own consume stall loop. *)
let stream_wait t vst tuple =
  let t0 = Prof.mark () in
  Ring.wait_activity (follower_queue t vst tuple);
  Prof.charge_wait Phase.ring_wait t0

let wait_activity_timeout t vst tuple budget =
  let t0 = Prof.mark () in
  let r = Ring.wait_activity_timeout (follower_queue t vst tuple) budget in
  Prof.charge_wait Phase.ring_wait t0;
  r

let stream_lag _t vst tuple =
  let live =
    match vst.consumers.(tuple) with Some c -> Ring.lag_h c | None -> 0
  in
  (* Routed-but-unreplayed lane events have passed the ring cursor but
     are still this follower's backlog. *)
  let live =
    match vst.lanes with
    | Some ln when tuple = 0 -> live + Lanes.outstanding ln
    | _ -> live
  in
  if in_catchup vst tuple then
    live + (vst.catchup_until.(tuple) - vst.catchup_pos.(tuple))
  else live

(* The consumer's stream position in global tuple-stream coordinates,
   tape mode included (used by the fault hooks, the checkpoint capture
   and the watchdog's progress ledger). A remote follower's mirror
   cursor is rebased by the mirror's global offset. *)
let stream_position t vst tuple =
  if in_catchup vst tuple then Some vst.catchup_pos.(tuple)
  else
    match vst.consumers.(tuple) with
    | None -> None
    | Some c ->
      let base =
        match t.net with
        | Some ns when tuple = 0 && ns.n_remote.(vst.idx) -> ns.n_base
        | _ -> 0
      in
      Some (base + Ring.cursor_h c)

(* Total backlog including events still upstream of the bridge — what
   the Healthy <-> Lagging report should see; for local followers this
   is exactly {!stream_lag}. The stall quarantine must NOT use it:
   during a partition the backlog is the link's fault, not the
   follower's (the bridge watchdog owns that case). *)
let stream_total_lag t vst tuple =
  let consumable = stream_lag t vst tuple in
  match t.net with
  | Some ns when tuple = 0 && ns.n_remote.(vst.idx) -> (
    match stream_position t vst tuple with
    | Some pos -> max consumable (Ring.published t.rings.(0) - pos)
    | None -> consumable)
  | _ -> consumable

(* A crashed follower dies with events still unread; its payload
   references go away with its cursor, or the chunks leak (caught by the
   oracle's pool-balance invariant). *)
let stream_remove t vst =
  (* Lane events already passed the ring cursor, so [Ring.unread_h] below
     cannot see them: release their payloads from the lanes themselves. *)
  (match vst.lanes with
  | Some ln ->
    List.iter (release_payload t) (Lanes.drain ln);
    vst.lanes <- None
  | None -> ());
  Array.iteri
    (fun tuple c ->
      match c with
      | None -> ()
      | Some c ->
        List.iter (release_payload t) (Ring.unread_h c);
        Ring.unsubscribe c;
        vst.consumers.(tuple) <- None)
    vst.consumers;
  match t.pump_queues with
  | None -> ()
  | Some pq ->
    (* Waking the private queues lets the pump notice the departure. *)
    Array.iter (fun per_tuple -> Ring.poke per_tuple.(vst.idx)) pq

(* ------------------------------------------------------------------ *)
(* Checkpoint capture (rr-style fast rejoin)                           *)
(* ------------------------------------------------------------------ *)

(* Tape retention floor: the oldest tuple-0 position any recoverable
   variant could still need. A follower with a checkpoint restores from
   at most its newest one; a follower without any (or one mid-catch-up
   below its checkpoint) pins the floor lower. With no lifecycle, or any
   follower yet to checkpoint, the floor is 0 and nothing is retired —
   the zero-checkpoint session keeps the full tape and falls back to a
   full replay. *)
let checkpoint_floor t =
  match t.lifecycle with
  | None -> 0
  | Some lc ->
    let floor = ref max_int in
    Array.iter
      (fun vst ->
        let st = Lifecycle.state (Lifecycle.entry lc vst.idx) in
        if
          vst.idx <> t.leader_idx
          && st <> Lifecycle.Dead
          (* A partition has no deadline: an [Unreachable] follower must
             not pin the tape floor forever. If it outlives the retained
             prefix it dies clean at respawn time ([Truncated] path),
             never replays a wrong prefix. *)
          && st <> Lifecycle.Unreachable
        then begin
          let c =
            match Checkpoint.latest_seq t.checkpoints ~idx:vst.idx with
            | Some s -> s
            | None -> 0
          in
          let c = if in_catchup vst 0 then min c vst.catchup_pos.(0) else c in
          floor := min !floor c
        end)
      t.vstates;
    if !floor = max_int then 0 else !floor

(* Called from the program's checkpoint hook at a syscall boundary (task
   context — no call in flight, [encode] observes a quiescent program).
   Captures only when the watchdog armed one, and only the shapes the
   restore path can resume: unit 0 of a live single-unit follower with no
   residual coalescing state (a nonempty [partial_consumed] would serve
   already-consumed bytes twice after a restore). Each capture advances
   the tape retention floor and retires segments below it. *)
let maybe_capture_checkpoint t vst ~unit_idx ~incarnation proc encode =
  if
    vst.checkpoint_due && vst.alive
    && vst.incarnation = incarnation
    && unit_idx = 0
    && vst.variant.Variant.program.Variant.units = 1
    && vst.idx <> t.leader_idx
    && (not vst.promoted.(unit_idx))
    && Hashtbl.length vst.partial_consumed = 0
  then begin
    match stream_position t vst 0 with
    | None -> ()
    | Some seq ->
      (match Checkpoint.latest_seq t.checkpoints ~idx:vst.idx with
      | Some s when s >= seq ->
        (* Nothing consumed since the last capture; arming stays cheap. *)
        vst.checkpoint_due <- false;
        vst.last_checkpoint_at <- E.now_cycles ()
      | _ ->
        let state = encode () in
        let snap =
          {
            Checkpoint.cp_idx = vst.idx;
            cp_seq = seq;
            cp_clock = Lamport.current vst.clocks.(0);
            cp_fds = K.snapshot_fds proc;
            cp_state = state;
          }
        in
        (* The capture's cost is copying the program state out. *)
        E.consume
          (Cost.copy_cycles ~rate_c100:t.cost.Cost.copy_per_byte_c100
             (Bytes.length state));
        Checkpoint.store t.checkpoints snap;
        Flight.note_checkpoint t.fl seq;
        (match t.oracle with
        | Some o -> Oracle.note_checkpoint o ~idx:vst.idx ~seq
        | None -> ());
        vst.checkpoint_due <- false;
        vst.last_checkpoint_at <- E.now_cycles ();
        if Array.length t.tapes > 0 then
          Tape.retire t.tapes.(0) ~keep_from:(checkpoint_floor t))
  end

(* ------------------------------------------------------------------ *)
(* Dynamic tuples and units (process forks)                            *)
(* ------------------------------------------------------------------ *)

let grow_array a len fill =
  if Array.length a >= len then a
  else begin
    let bigger = Array.make len fill in
    Array.blit a 0 bigger 0 (Array.length a);
    bigger
  end

(* Ring capacity after any Ring_pressure injection in the fault plan. *)
let effective_ring_size (cfg : Config.t) =
  match Fault.ring_shrink cfg.Config.fault_plan with
  | Some n -> max 1 (min n cfg.Config.ring_size)
  | None -> cfg.Config.ring_size

(* Allocate a fresh tuple: its own ring buffer and bookkeeping slots.
   Only meaningful in shared-ring mode; the event-pump ablation predates
   multi-process support, as did the prototype's first design. *)
let new_tuple t =
  (match t.pump_queues with
  | Some _ -> invalid_arg "Session: fork is unsupported in event-pump mode"
  | None -> ());
  let idx = t.ntuples in
  t.ntuples <- idx + 1;
  let fresh =
    Ring.create ~size:(effective_ring_size t.cfg) (Printf.sprintf "ring%d" idx)
  in
  (match t.oracle with
  | Some o ->
    Oracle.attach_ring o ~tuple:idx fresh;
    Ring.set_stall_hook fresh
      (Some (fun cids -> Oracle.note_gate_wait o ~tuple:idx ~cids))
  | None -> ());
  t.rings <- grow_array t.rings t.ntuples fresh;
  t.rings.(idx) <- fresh;
  (if t.lifecycle <> None then begin
     let tape = Tape.create () in
     t.tapes <- grow_array t.tapes t.ntuples tape;
     t.tapes.(idx) <- tape
   end);
  t.waitlock_sleepers <- grow_array t.waitlock_sleepers t.ntuples 0;
  t.tuple_ready <- grow_array t.tuple_ready t.ntuples 0;
  Array.iter
    (fun vst ->
      vst.consumers <- grow_array vst.consumers t.ntuples None;
      vst.consumers.(idx) <- None;
      vst.clocks <- grow_array vst.clocks t.ntuples (Lamport.create ());
      vst.clocks.(idx) <- Lamport.create ();
      vst.catchup_pos <- grow_array vst.catchup_pos t.ntuples 0;
      vst.catchup_until <- grow_array vst.catchup_until t.ntuples (-1))
    t.vstates;
  idx

(* Allocate a unit slot in a variant (a forked child process). *)
let new_unit vst ~tuple ~tid ~promoted =
  let u = Array.length vst.unit_tuple in
  vst.unit_tuple <- grow_array vst.unit_tuple (u + 1) tuple;
  vst.unit_tid <- grow_array vst.unit_tid (u + 1) tid;
  vst.promoted <- grow_array vst.promoted (u + 1) promoted;
  vst.unit_tuple.(u) <- tuple;
  vst.unit_tid.(u) <- tid;
  vst.promoted.(u) <- promoted;
  u

let poke_all t =
  Array.iter Ring.poke t.rings;
  (match t.net with Some ns -> Ring.poke ns.n_mirror | None -> ());
  match t.pump_queues with
  | None -> ()
  | Some pq -> Array.iter (fun per_tuple -> Array.iter Ring.poke per_tuple) pq

let alive_followers t =
  Array.fold_left
    (fun n v -> if v.alive && v.idx <> t.leader_idx then n + 1 else n)
    0 t.vstates

(* ------------------------------------------------------------------ *)
(* Follower lifecycle: quarantine, respawn, graceful degradation        *)
(* ------------------------------------------------------------------ *)

(* Native-speed fallback: record the reason instead of raising. The
   leader keeps executing at full speed (with zero stream consumers it
   pays no recording cost beyond the lifecycle tape, which is retained
   so fresh followers can still be provisioned from it). *)
let degrade t reason =
  (match t.lifecycle with
  | Some lc -> Lifecycle.note_degraded lc reason
  | None -> ());
  match t.degraded with
  | Some _ -> () (* first reason wins *)
  | None ->
    t.degraded <- Some reason;
    let at = E.now t.k.Types.eng in
    Flight.record t.fl ~at "session.degrade" reason;
    ignore
      (Flight.maybe_dump t.fl ~at ~reason:("session degraded: " ^ reason));
    Logs.info (fun m -> m "varan: degrading to native execution: %s" reason)

(* Is any follower mid-recovery (quarantined, backing off, or replaying
   the tape)? Degradation decisions must not fire while one is. *)
let recovery_pending t =
  match t.lifecycle with
  | None -> false
  | Some lc ->
    Array.exists
      (fun v ->
        v.idx <> t.leader_idx
        &&
        match Lifecycle.state (Lifecycle.entry lc v.idx) with
        | Lifecycle.Quarantined | Lifecycle.Respawning
        | Lifecycle.Catching_up -> true
        | _ -> false)
      t.vstates

let check_degraded_floor t =
  match t.lifecycle with
  | None -> ()
  | Some lc ->
    let p = Lifecycle.policy lc in
    let n = Lifecycle.recoverable_followers lc ~leader_idx:t.leader_idx in
    if n < p.Lifecycle.min_followers then
      degrade t
        (Printf.sprintf "recoverable followers (%d) below min_followers (%d)"
           n p.Lifecycle.min_followers)

let kill_variant t vst signo =
  List.iter (fun p -> K.kill_proc t.k p signo) vst.all_procs

(* Transition a follower into quarantine (pure bookkeeping, callable
   from the watchdog's scheduler context). Returns false when the entry
   is already quarantined, respawning or dead — the caller must not
   double-quarantine. *)
let begin_quarantine t vst ~reason =
  match t.lifecycle with
  | None -> false
  | Some lc ->
    let en = Lifecycle.entry lc vst.idx in
    (match Lifecycle.state en with
    | Lifecycle.Quarantined | Lifecycle.Respawning | Lifecycle.Unreachable
    | Lifecycle.Dead -> false
    | Lifecycle.Healthy | Lifecycle.Lagging | Lifecycle.Catching_up ->
      en.Lifecycle.e_reason <- reason;
      (match stream_position t vst 0 with
      | Some s -> en.Lifecycle.e_quarantine_seq <- s
      | None -> ());
      Flight.record t.fl ~at:(E.now t.k.Types.eng) "lifecycle.quarantine"
        (Printf.sprintf "variant %d: %s" vst.idx reason);
      Lifecycle.transition lc en Lifecycle.Quarantined;
      true)

(* The tuples the variant's initial units subscribe to — what a respawn
   resubscribes; forked tuples are re-entered when their Ev_fork replays
   from the tape. *)
let initial_tuples vst =
  let shape = vst.variant.Variant.program in
  match shape.Variant.unit_kind with
  | Variant.Thread -> [ 0 ]
  | Variant.Process -> List.init shape.Variant.units Fun.id

(* Rebuild a quarantined follower: reset the monitor state to its launch
   shape, subscribe the initial tuples with tape catch-up ranges ending
   at the current ring head (the splice sequence), and ask the zygote for
   a fresh process image. Task context. *)
let respawn t vst =
  match t.lifecycle with
  | None -> ()
  | Some lc ->
    let en = Lifecycle.entry lc vst.idx in
    let from_unreachable = Lifecycle.state en = Lifecycle.Unreachable in
    if not (from_unreachable || Lifecycle.state en = Lifecycle.Quarantined)
    then ()
    else if Lifecycle.degraded lc <> None then begin
      (* The session degraded while this respawn was backing off (or the
         partition was healing); a late rejoin would resurrect NVX behind
         the report's back. *)
      en.Lifecycle.e_reason <- "respawn cancelled: session degraded";
      Lifecycle.transition lc en Lifecycle.Dead;
      ignore
        (Flight.maybe_dump t.fl ~at:(E.now t.k.Types.eng)
           ~reason:
             (Printf.sprintf "follower %d dead: %s" vst.idx
                en.Lifecycle.e_reason))
    end
    else begin
      let remote = is_remote t vst.idx in
      (* The global tuple-0 sequence this rejoin will splice at: for a
         remote follower that is the mirror's head in global coordinates
         (the bridge was reattached at [n_base] before any heal-respawn
         runs), never the local ring's head — a checkpoint above the
         mirror head would leave the restored state ahead of the splice. *)
      let rejoin_head =
        match t.net with
        | Some ns when remote -> ns.n_base + Ring.published ns.n_mirror
        | _ -> Ring.published t.rings.(0)
      in
      let shape = vst.variant.Variant.program in
      let nunits = shape.Variant.units in
      (* rr-style fast rejoin: restore the newest retained checkpoint and
         replay only the tape delta behind it. Only single-unit variants
         are restorable — the snapshot covers exactly unit 0's program
         state; anything else replays the full tape. A checkpoint below
         [Tape.base] was retired and is unusable. *)
      let restore =
        if nunits = 1 && Array.length t.tapes > 0 then
          match
            Checkpoint.latest_at_most t.checkpoints ~idx:vst.idx
              ~seq:rejoin_head
          with
          | Some cp when cp.Checkpoint.cp_seq >= Tape.base t.tapes.(0) ->
            Some cp
          | _ -> None
        else None
      in
      let start0 =
        match restore with Some cp -> cp.Checkpoint.cp_seq | None -> 0
      in
      if
        Array.length t.tapes > 0
        && rejoin_head > start0
        && start0 < Tape.base t.tapes.(0)
      then begin
        (* The recorded prefix this follower needs was retired while it
           was away (e.g. a partition outliving the retention floor — the
           floor deliberately ignores [Unreachable] parks). A truncated
           replay would be a wrong prefix; die clean instead. *)
        en.Lifecycle.e_reason <-
          Printf.sprintf
            "tape truncated below rejoin: need seq %d, retained base %d"
            start0
            (Tape.base t.tapes.(0));
        Lifecycle.transition lc en Lifecycle.Dead;
        ignore
          (Flight.maybe_dump t.fl ~at:(E.now t.k.Types.eng)
             ~reason:
               (Printf.sprintf "follower %d dead: %s" vst.idx
                  en.Lifecycle.e_reason));
        check_degraded_floor t
      end
      else begin
      Lifecycle.transition lc en Lifecycle.Respawning;
      (* An [Unreachable] park burns no restart budget: the follower was
         presumed healthy behind a broken wire. *)
      if not from_unreachable then begin
        en.Lifecycle.e_restarts <- en.Lifecycle.e_restarts + 1;
        match t.oracle with
        | Some o ->
          Oracle.note_respawn o ~idx:vst.idx
            ~max_restarts:(Lifecycle.policy lc).Lifecycle.max_restarts
        | None -> ()
      end;
      vst.vrole <- Follower;
      vst.table <- Syscall_table.follower;
      vst.main_proc <- None;
      vst.unit_procs <- [||];
      vst.all_procs <- [];
      vst.apis <- [];
      vst.consumers <- Array.make t.ntuples None;
      vst.clocks <- Array.init t.ntuples (fun _ -> Lamport.create ());
      vst.promoted <- Array.make nunits false;
      vst.unit_tuple <-
        (match shape.Variant.unit_kind with
        | Variant.Thread -> Array.make nunits 0
        | Variant.Process -> Array.init nunits Fun.id);
      vst.unit_tid <- Array.init nunits Fun.id;
      Hashtbl.reset vst.partial_consumed;
      vst.drop_release <- false;
      vst.incarnation <- vst.incarnation + 1;
      vst.catchup_pos <- Array.make t.ntuples 0;
      vst.catchup_until <- Array.make t.ntuples (-1);
      vst.alive <- true;
      vst.pending_restore <- None;
      (* The live consumer's cursor parks at the ring head; the recorded
         prefix [start, head) replays from the tape — [start] is 0 or the
         restored checkpoint's position — so the splice lands at exactly
         the head sequence and the Lamport clock arrives at the live
         stream's stamp. *)
      List.iter
        (fun tu ->
          let remote_tu = remote && tu = 0 in
          let ring =
            match t.net with
            | Some ns when remote_tu -> ns.n_mirror
            | _ -> t.rings.(tu)
          in
          let base =
            match t.net with
            | Some ns when remote_tu -> ns.n_base
            | _ -> 0
          in
          let head = base + Ring.published ring in
          let c = Ring.subscribe ring in
          vst.consumers.(tu) <- Some c;
          let start =
            match restore with
            | Some cp when tu = 0 ->
              Lamport.force vst.clocks.(tu) cp.Checkpoint.cp_clock;
              vst.pending_restore <- Some cp;
              Checkpoint.note_restore t.checkpoints
                ~delta:(head - cp.Checkpoint.cp_seq);
              (match t.oracle with
              | Some o ->
                Oracle.note_restore o ~idx:vst.idx ~seq:cp.Checkpoint.cp_seq
                  ~splice_seq:head
              | None -> ());
              cp.Checkpoint.cp_seq
            | _ -> 0
          in
          if head > start then begin
            vst.catchup_pos.(tu) <- start;
            vst.catchup_until.(tu) <- head
          end;
          (* The mirror ring is outside the oracle's tuple map (its cids
             collide with the local ring's); remote rejoins are audited
             end to end by the harness digests instead. *)
          match t.oracle with
          | Some o when not remote_tu ->
            Oracle.note_rejoin o ~idx:vst.idx ~tuple:tu
              ~cid:(Ring.consumer_cid c) ~splice_seq:head
          | _ -> ())
        (initial_tuples vst);
      (* Restart the watchdog's progress ledger: the fresh incarnation
         gets a full stall timeout before its first consume, instead of
         inheriting the stale timestamp that just condemned its
         predecessor. *)
      en.Lifecycle.e_last_cursor <- vst.st.events_consumed;
      en.Lifecycle.e_last_progress <- E.now_cycles ();
      Lifecycle.transition lc en Lifecycle.Catching_up;
      Flight.record t.fl ~at:(E.now t.k.Types.eng) "lifecycle.respawn"
        (Printf.sprintf "variant %d incarnation %d, splice at %d" vst.idx
           vst.incarnation rejoin_head);
      (* An empty stream means there is nothing to catch up on. *)
      finish_rejoin t vst;
      (* If the leader died while this follower was out, adopt the role:
         the catch-up still replays the recorded prefix, and the variant
         promotes itself once the stream drains. A remote follower never
         leads — it cannot publish into the local ring. *)
      if (not t.vstates.(t.leader_idx).alive) && not remote then
        t.leader_idx <- vst.idx;
      (match t.zygote with
      | Some z -> ignore (Zygote.fork_request z vst.variant.Variant.v_name)
      | None -> ())
      end
    end

(* The effectful half of a quarantine; the entry is already in state
   [Quarantined] (via {!begin_quarantine}). Removes the ring consumers —
   releasing their unread payload grants, so the leader's gate can never
   again wait on this follower — kills the variant's processes, and
   either schedules a backed-off respawn or declares the follower dead
   when the restart budget is spent. Task context. *)
let quarantine_work t vst =
  match t.lifecycle with
  | None -> ()
  | Some lc ->
    let en = Lifecycle.entry lc vst.idx in
    let p = Lifecycle.policy lc in
    (match t.oracle with
    | Some o ->
      Array.iteri
        (fun tu c ->
          match c with
          | Some c when not (is_remote t vst.idx && tu = 0) ->
            (* Mirror-ring consumers live outside the oracle's tuple
               map; noting their cids would collide with ring 0's. *)
            Oracle.note_quarantine o ~idx:vst.idx ~tuple:tu
              ~cid:(Ring.consumer_cid c)
          | _ -> ())
        vst.consumers
    | None -> ());
    vst.alive <- false;
    stream_remove t vst;
    Array.fill vst.catchup_until 0 (Array.length vst.catchup_until) (-1);
    kill_variant t vst Varan_kernel.Flags.sigkill;
    (* The leader may be parked on this follower's gate or a fork
       rendezvous; both re-examine the world when woken. *)
    poke_all t;
    E.Cond.broadcast t.ready_cond;
    if en.Lifecycle.e_restarts >= p.Lifecycle.max_restarts then begin
      Lifecycle.transition lc en Lifecycle.Dead;
      ignore
        (Flight.maybe_dump t.fl ~at:(E.now t.k.Types.eng)
           ~reason:
             (Printf.sprintf
                "follower %d dead: restart budget exhausted (%s)" vst.idx
                en.Lifecycle.e_reason));
      check_degraded_floor t
    end
    else begin
      let delay =
        Lifecycle.backoff_delay p ~restarts:en.Lifecycle.e_restarts
      in
      en.Lifecycle.e_respawn_due <-
        Int64.add (E.now_cycles ()) (Int64.of_int delay);
      ignore
        (E.spawn_here
           ~name:(Printf.sprintf "lifecycle-respawn%d" vst.idx)
           (fun () ->
             (* A sleeping task, not a ticker entry: the pending respawn
                keeps the engine alive, so every quarantine resolves
                (rejoin or death) before the run goes quiescent. *)
             E.sleep delay;
             respawn t vst))
    end

(* ------------------------------------------------------------------ *)
(* Link degradation: Unreachable park and healed-partition rejoin       *)
(* ------------------------------------------------------------------ *)

(* Park every live remote follower in [Unreachable] (pure bookkeeping,
   callable from the watchdog's scheduler context). No restart budget
   burns — the follower is presumed healthy behind a broken wire.
   Returns the parked vstates for {!unreachable_work}. *)
let begin_unreachable t ~reason =
  match (t.net, t.lifecycle) with
  | Some ns, Some lc ->
    Array.fold_left
      (fun acc vst ->
        if ns.n_remote.(vst.idx) && vst.idx <> t.leader_idx && vst.alive
        then begin
          let en = Lifecycle.entry lc vst.idx in
          match Lifecycle.state en with
          | Lifecycle.Healthy | Lifecycle.Lagging | Lifecycle.Catching_up ->
            en.Lifecycle.e_reason <- reason;
            (match stream_position t vst 0 with
            | Some s -> en.Lifecycle.e_quarantine_seq <- s
            | None -> ());
            Lifecycle.transition lc en Lifecycle.Unreachable;
            vst :: acc
          | _ -> acc
        end
        else acc)
      [] t.vstates
  | _ -> []

(* The effectful half of a link-degradation park: detach the bridge —
   its local consumer unsubscribes, so the leader's gate is freed even
   when no follower was left to park — then remove the parked followers'
   consumers and kill their processes. The oracle is not told: an
   [Unreachable] park is not a quarantine, and mirror-ring cids live
   outside its tuple map. Task context. *)
let unreachable_work t parked =
  match t.net with
  | None -> ()
  | Some ns ->
    Bridge.detach ns.n_bridge;
    List.iter
      (fun vst ->
        vst.alive <- false;
        stream_remove t vst;
        Array.fill vst.catchup_until 0 (Array.length vst.catchup_until) (-1);
        kill_variant t vst Varan_kernel.Flags.sigkill)
      parked;
    poke_all t;
    E.Cond.broadcast t.ready_cond;
    check_degraded_floor t

(* A partition healed: the first ack to reach the detached bridge fires
   this (via [on_heal], at most once per detached period). Start a new
   bridge epoch on a fresh mirror ring and walk every parked follower
   back in through the checkpoint + tape-delta door. A degraded session
   skips the heal: the parked followers stay [Unreachable] terminally
   rather than resurrecting NVX behind the report's back. Task context. *)
let heal_work t =
  match (t.net, t.lifecycle) with
  | Some ns, Some lc when Bridge.detached ns.n_bridge ->
    let remote_future vst =
      ns.n_remote.(vst.idx)
      && vst.idx <> t.leader_idx
      && Lifecycle.state (Lifecycle.entry lc vst.idx) <> Lifecycle.Dead
    in
    if t.degraded <> None || not (Array.exists remote_future t.vstates)
    then
      (* Nobody will ever rejoin through this bridge (degraded session,
         or every remote follower is terminally dead): kill the probe
         timers so the engine can go quiescent. Parked followers stay
         [Unreachable] terminally — never a hang, never a wrong rejoin. *)
      begin
        Bridge.abandon ns.n_bridge;
        Flight.set_link t.fl "abandoned";
        Flight.record t.fl
          ~at:(E.now t.k.Types.eng)
          "link.abandoned" "no remote follower will rejoin"
      end
    else begin
      ns.n_epoch <- ns.n_epoch + 1;
      let head = Ring.published t.rings.(0) in
      let mirror =
        Ring.create ~size:(effective_ring_size t.cfg)
          (Printf.sprintf "mirror%d" ns.n_epoch)
      in
      ns.n_mirror <- mirror;
      ns.n_base <- head;
      (* No engine effects between reading [head] and reattaching: the
         new mirror's sequence 0 must be exactly the sequence the new
         local consumer subscribes at. *)
      Bridge.reattach ns.n_bridge ~mirror ~remote_base:head;
      Flight.set_link t.fl
        (Printf.sprintf "reattached: epoch %d, base %d" ns.n_epoch head);
      Flight.record t.fl
        ~at:(E.now t.k.Types.eng)
        "link.heal"
        (Printf.sprintf "epoch %d base %d" ns.n_epoch head);
      Array.iter
        (fun vst ->
          if ns.n_remote.(vst.idx) && vst.idx <> t.leader_idx then begin
            let en = Lifecycle.entry lc vst.idx in
            if Lifecycle.state en = Lifecycle.Unreachable then respawn t vst
          end)
        t.vstates
    end
  | _ -> ()

(* The watchdog: runs in scheduler context from the engine ticker. Pure
   reads and state transitions only; the effectful quarantine is
   delegated to a spawned task. *)
let watchdog_tick t =
  (match t.lifecycle with
  | None -> ()
  | Some lc ->
    let p = Lifecycle.policy lc in
    let now = E.now t.k.Types.eng in
    (* Link health first: a bridge whose in-flight window has not moved
       for [unreachable_after] means the remote node is partitioned
       away. Park its followers in [Unreachable] — distinct from a sick
       follower's quarantine: no restart budget burns, and the respawn
       waits for a heal probe instead of a backoff timer. The threshold
       sits above [stall_timeout] so an individually-stuck remote
       follower is quarantined (its problem) before the link is declared
       down (everyone's problem). *)
    (match t.net with
    | Some ns when not (Bridge.detached ns.n_bridge) -> (
      match Bridge.stalled_since ns.n_bridge with
      | Some t0
        when Int64.sub now t0
             >= Int64.of_int ns.n_cfg.Config.unreachable_after ->
        let reason =
          Printf.sprintf "link degraded: no ack for %Ld cycles"
            (Int64.sub now t0)
        in
        Flight.set_link t.fl reason;
        Flight.record t.fl ~at:now "link.degraded" reason;
        let parked = begin_unreachable t ~reason in
        ignore
          (E.spawn t.k.Types.eng ~name:"lifecycle-unreachable" (fun () ->
               unreachable_work t parked))
      | _ -> ())
    | _ -> ());
    Array.iter
      (fun vst ->
        if vst.idx <> t.leader_idx && vst.alive then begin
          let en = Lifecycle.entry lc vst.idx in
          match Lifecycle.state en with
          | Lifecycle.Quarantined | Lifecycle.Respawning
          | Lifecycle.Unreachable | Lifecycle.Dead ->
            ()
          | Lifecycle.Healthy | Lifecycle.Lagging | Lifecycle.Catching_up ->
            (* Progress = events consumed across every tuple (tape
               replay included); lag = the worst per-tuple backlog. *)
            let progress = vst.st.events_consumed in
            if progress > en.Lifecycle.e_last_cursor then begin
              en.Lifecycle.e_last_cursor <- progress;
              en.Lifecycle.e_last_progress <- now
            end;
            (* Arm a checkpoint; the follower captures at its next
               syscall boundary (the effectful snapshot runs in its task
               context, never here). *)
            if
              p.Lifecycle.checkpoint_interval > 0
              && Int64.sub now vst.last_checkpoint_at
                 >= Int64.of_int p.Lifecycle.checkpoint_interval
            then vst.checkpoint_due <- true;
            (* [lag] is the total backlog (bridge-upstream events
               included) and drives the Healthy <-> Lagging report;
               [consumable] is what the follower could actually consume
               right now. *)
            let lag = ref 0 and consumable = ref 0 in
            for tu = 0 to t.ntuples - 1 do
              lag := max !lag (stream_total_lag t vst tu);
              consumable := max !consumable (stream_lag t vst tu)
            done;
            let lag = !lag and consumable = !consumable in
            (match Lifecycle.state en with
            | Lifecycle.Healthy when lag > p.Lifecycle.lag_threshold ->
              en.Lifecycle.e_reason <-
                Printf.sprintf "lag %d above threshold %d" lag
                  p.Lifecycle.lag_threshold;
              Lifecycle.transition lc en Lifecycle.Lagging
            | Lifecycle.Lagging when lag <= p.Lifecycle.lag_threshold ->
              Lifecycle.transition lc en Lifecycle.Healthy
            | _ -> ());
            let stalled_for = Int64.sub now en.Lifecycle.e_last_progress in
            (* The stall trip counts only consumable backlog: a remote
               follower starved because the bridge is partitioned has its
               stall upstream of it — those cycles are attributed to the
               link (handled above), never to the follower, so a healed
               follower is not condemned for time it spent unreachable. *)
            if
              consumable > 0
              && stalled_for >= Int64.of_int p.Lifecycle.stall_timeout
            then begin
              (* The watchdog trip always passes through Lagging. *)
              if Lifecycle.state en = Lifecycle.Healthy then
                Lifecycle.transition lc en Lifecycle.Lagging;
              let reason =
                Printf.sprintf "stalled: lag %d, no progress for %Ld cycles"
                  consumable stalled_for
              in
              if begin_quarantine t vst ~reason then
                ignore
                  (E.spawn t.k.Types.eng
                     ~name:(Printf.sprintf "lifecycle-quarantine%d" vst.idx)
                     (fun () -> quarantine_work t vst))
            end
        end)
      t.vstates);
  true

(* ------------------------------------------------------------------ *)
(* Crash handling and failover (§5.1)                                  *)
(* ------------------------------------------------------------------ *)

let crash_list_limit = 64

let handle_crash t vst exn =
  if vst.alive then begin
    vst.alive <- false;
    t.crash_total <- t.crash_total + 1;
    if t.crash_list_len < crash_list_limit then begin
      t.crash_list <- (vst.idx, Printexc.to_string exn) :: t.crash_list;
      t.crash_list_len <- t.crash_list_len + 1
    end;
    (let at = E.now t.k.Types.eng in
     match exn with
     | Divergence_kill msg ->
       Flight.record t.fl ~at "divergence.kill"
         (Printf.sprintf "variant %d (%s): %s" vst.idx
            vst.variant.Variant.v_name msg);
       ignore (Flight.maybe_dump t.fl ~at ~reason:("divergence: " ^ msg))
     | _ ->
       Flight.record t.fl ~at "variant.crash"
         (Printf.sprintf "variant %d (%s): %s" vst.idx
            vst.variant.Variant.v_name (Printexc.to_string exn)));
    (match t.oracle with
    | Some o ->
      Oracle.note_crash o ~idx:vst.idx ~was_leader:(t.leader_idx = vst.idx)
    | None -> ());
    if t.lifecycle <> None && vst.idx <> t.leader_idx then
      (* A crashed follower under the lifecycle manager is quarantined
         with intent to respawn, not removed for good. The notification
         delay still applies (SIGSEGV handler -> control socket). *)
      ignore
        (E.spawn_here
           ~name:(Printf.sprintf "lifecycle-quarantine%d" vst.idx)
           (fun () ->
             E.consume t.cost.Cost.failover_notify;
             if
               begin_quarantine t vst
                 ~reason:("crashed: " ^ Printexc.to_string exn)
             then quarantine_work t vst))
    else
      (* The SIGSEGV handler notifies the coordinator over the control
         socket; the coordinator reacts after the notification delay. *)
      ignore
        (E.spawn_here ~name:"coordinator-failover" (fun () ->
             E.consume t.cost.Cost.failover_notify;
             (match vst.main_proc with
             | Some proc -> K.kill_proc t.k proc Varan_kernel.Flags.sigsegv
             | None -> ());
             stream_remove t vst;
             (match t.lifecycle with
             | Some lc ->
               (* A dead leader never rejoins: mark it terminal so the
                  degradation floor sees the truth. *)
               let en = Lifecycle.entry lc vst.idx in
               en.Lifecycle.e_reason <- "crashed while leading";
               if Lifecycle.state en <> Lifecycle.Dead then
                 Lifecycle.transition lc en Lifecycle.Dead
             | None -> ());
             (* Leadership is re-examined when the notification arrives,
                not frozen at crash time: crashes race the notification
                delay, and a decision based on stale state could hand the
                leader role to a variant that died in the meantime (e.g.
                the last follower crashing while an earlier leader
                crash's election is still in flight). *)
             if not t.vstates.(t.leader_idx).alive then begin
               (* Elect the alive follower with the smallest internal id.
                  Remote followers are not electable: a leader must
                  publish into the local ring. *)
               let candidate =
                 Array.fold_left
                   (fun acc v ->
                     if v.alive && not (is_remote t v.idx) then
                       match acc with
                       | None -> Some v
                       | Some best when v.idx < best.idx -> Some v
                       | some -> some
                     else acc)
                   None t.vstates
               in
               match candidate with
               | Some v -> t.leader_idx <- v.idx
               | None ->
                 (* Nobody left to lead. Unless a quarantined follower is
                    still on its way back, the session is over: report it
                    as degradation, not as an escaping exception. *)
                 if not (recovery_pending t) then degrade t "no leader remains"
             end;
             (match t.lifecycle with
             | Some _ -> check_degraded_floor t
             | None ->
               if
                 t.vstates.(t.leader_idx).alive
                 && alive_followers t = 0
                 && vst.idx <> t.leader_idx
               then degrade t "all followers dead");
             poke_all t;
             E.Cond.broadcast t.ready_cond))
  end

(* ------------------------------------------------------------------ *)
(* Cost charging helpers                                               *)
(* ------------------------------------------------------------------ *)

let charge_interception t vst (disp : Syscall_table.disposition) sysno =
  let c = t.cost in
  match disp with
  | Syscall_table.Virtual ->
    vst.st.vdso_dispatches <- vst.st.vdso_dispatches + 1;
    E.consume c.Cost.intercept_vdso
  | _ -> (
    match t.cfg.Config.interception with
    | Config.Trap_only ->
      vst.st.trap_dispatches <- vst.st.trap_dispatches + 1;
      E.consume c.Cost.intercept_int
    | Config.Jump_only ->
      vst.st.jump_dispatches <- vst.st.jump_dispatches + 1;
      E.consume (max 0 (c.Cost.intercept_jump + c.Cost.intercept_extra sysno))
    | Config.Rewrite ->
      vst.trap_acc <- vst.trap_acc + vst.trap_share_c1000;
      if vst.trap_acc >= 1000 then begin
        vst.trap_acc <- vst.trap_acc - 1000;
        vst.st.trap_dispatches <- vst.st.trap_dispatches + 1;
        E.consume c.Cost.intercept_int
      end
      else begin
        vst.st.jump_dispatches <- vst.st.jump_dispatches + 1;
        E.consume
          (max 0 (c.Cost.intercept_jump + c.Cost.intercept_extra sysno))
      end)

let publish_cost t disp nfollowers =
  let c = t.cost in
  let base =
    match (disp : Syscall_table.disposition) with
    | Syscall_table.Virtual -> c.Cost.publish_event * 4 / 5
    | _ -> c.Cost.publish_event
  in
  base + (c.Cost.publish_per_follower * nfollowers)

(* ------------------------------------------------------------------ *)
(* Fault injection hooks                                               *)
(* ------------------------------------------------------------------ *)

let injected_crash vst seq =
  Fault.Injected
    (Printf.sprintf "fault: variant %d crashed at stream seq %d" vst.idx seq)

(* Leader-path hook, at entry to execute-and-record — before the call
   runs, so a crashed leader never half-applies a syscall: the promoted
   follower re-executes it exactly once, and the kernel-side entropy and
   VFS state stay identical to a native run. *)
let fault_leader_hook t vst proc tuple =
  match t.fault with
  | None -> ()
  | Some armed ->
    let seq = Ring.published t.rings.(tuple) in
    List.iter
      (fun (action : Fault.action) ->
        match action with
        | Fault.Signals { signo; count } ->
          for _ = 1 to count do
            K.post_signal proc signo
          done
        | Fault.Crash -> raise (injected_crash vst seq)
        | Fault.Stall _ | Fault.Drop_payload -> ())
      (Fault.at_leader_publish armed ~idx:vst.idx ~seq)

(* Follower-path hook, at entry to the replay step and the fork
   rendezvous, keyed on the follower's own stream cursor. *)
let fault_follower_hook t vst tuple =
  match t.fault with
  | None -> ()
  | Some armed -> (
    match stream_position t vst tuple with
    | None -> ()
    | Some seq ->
      List.iter
        (fun (action : Fault.action) ->
          match action with
          | Fault.Stall delay ->
            (* One-shot by construction (the armed slot burns its [fired]
               flag before the action list is returned), so the count
               below equals the number of [Stall_follower] injections
               that ever triggered — pinned by a regression test. *)
            vst.st.injected_stalls <- vst.st.injected_stalls + 1;
            E.sleep delay
          | Fault.Drop_payload -> vst.drop_release <- true
          | Fault.Crash -> raise (injected_crash vst seq)
          | Fault.Signals _ -> ())
        (Fault.at_follower_consume armed ~idx:vst.idx ~seq))

(* ------------------------------------------------------------------ *)
(* Leader path                                                         *)
(* ------------------------------------------------------------------ *)

let leader_execute_and_record t vst ~unit_idx ~tuple proc
    (disp : Syscall_table.disposition) sysno args =
  fault_leader_hook t vst proc tuple;
  let c = t.cost in
  let is_exit = sysno = Sysno.Exit || sysno = Sysno.Exit_group in
  let nfoll = alive_followers t in
  (* With nobody consuming the stream (no followers, no recorder), the
     leader skips recording entirely: running VARAN with zero followers
     measures pure interception overhead, as in Figure 5's first bars. *)
  let nconsumers =
    match t.pump_queues with
    | None -> Ring.active_consumers t.rings.(tuple)
    | Some _ -> nfoll
  in
  (* The lifecycle recorder keeps the stream flowing even with every
     follower quarantined or the session degraded: the tape is what a
     respawned follower replays to splice back in. *)
  let nconsumers = if t.lifecycle <> None then max nconsumers 1 else nconsumers in
  let publish result =
    (* Shared-memory payload for out-buffer results. *)
    let payload, payload_len, inline_out =
      match result.Args.out with
      | Some out when Bytes.length out > Event.max_inline_bytes ->
        E.consume c.Cost.shmem_alloc;
        E.consume
          (Cost.copy_cycles ~rate_c100:c.Cost.shmem_copy_leader_c100
             (Bytes.length out));
        let chunk = Pool.alloc t.pool (Bytes.length out) in
        Pool.write chunk out;
        (Some chunk, Bytes.length out, None)
      | Some out when Bytes.length out > 0 -> (None, 0, Some out)
      | _ -> (None, 0, None)
    in
    (* In-buffer payload digest for divergence checking. *)
    (match Sysno.transfer_class sysno with
    | Sysno.In_buffer ->
      let digest_cycles =
        Cost.copy_cycles ~rate_c100:8 (Args.payload_size args)
      in
      E.consume digest_cycles;
      Prof.charge_inner Phase.oracle_digest digest_cycles
    | _ -> ());
    (* Descriptor grants travel over the data channel, per follower. *)
    let grant =
      match K.grant_of_result result with
      | Some g when result.Args.ret >= 0 ->
        E.consume (c.Cost.fd_send * nfoll);
        Some (Obj.repr g)
      | _ -> None
    in
    (* Followers asleep in a waitlock need a futex wake — a real system
       call on the leader's fast path (§3.3.1). *)
    if t.waitlock_sleepers.(tuple) > 0 then E.consume c.Cost.waitlock_wake;
    E.consume (publish_cost t disp nfoll);
    let int_args =
      Array.map
        (function
          | Args.Int n -> n
          | Args.Str _ -> 1
          | Args.Buf_in b -> Bytes.length b
          | Args.Buf_out n -> n)
        args
    in
    let int_args =
      if Array.length int_args > 6 then Array.sub int_args 0 6 else int_args
    in
    (* The Lamport tick happens atomically with the slot claim: sibling
       leader threads must not interleave between stamping and writing,
       or followers would observe out-of-order timestamps (Figure 3). *)
    stream_publish_k t tuple (fun () ->
        let clockv = Lamport.tick vst.clocks.(tuple) in
        let event =
          Event.make
            ~kind:(if is_exit then Event.Ev_exit else Event.Ev_syscall)
            ~tid:vst.unit_tid.(unit_idx) ~args:int_args ~ret:result.Args.ret
            ?payload
            ~payload_len ?inline_out ?grant ~clock:clockv
            (Sysno.to_int sysno)
        in
        (* Every active stream consumer releases the payload after
           reading it — followers, and in shared-ring mode any recorder
           client too. Counting only followers would free a chunk under
           the recorder's feet (readers = 0 with a lone recorder). *)
        let readers =
          match t.pump_queues with
          | None -> Ring.active_consumers t.rings.(tuple)
          | Some _ -> nfoll
        in
        register_payload t event readers;
        (* Tape capture flattens the payload now, from the leader's own
           result buffer — the pool chunk may be recycled long before a
           respawned follower replays this entry. *)
        if t.lifecycle <> None then
          Tape.append t.tapes.(tuple) event ~out:result.Args.out;
        event);
    vst.st.events_published <- vst.st.events_published + 1
  in
  let publish result = if nconsumers > 0 then publish result in
  if is_exit then begin
    (* Publish before executing: the kernel-side exit never returns. *)
    publish (Args.ok 0);
    K.exec t.k proc sysno args
  end
  else begin
    let result = K.exec t.k proc sysno args in
    publish result;
    result
  end

(* ------------------------------------------------------------------ *)
(* Follower path                                                       *)
(* ------------------------------------------------------------------ *)

let charge_wait_cost t vst sysno blocked_cycles ~slept =
  let c = t.cost in
  ignore sysno;
  vst.st.stall_blocks <- vst.st.stall_blocks + 1;
  vst.st.stall_cycles <- vst.st.stall_cycles + blocked_cycles;
  let charge = if slept then c.Cost.waitlock_block else c.Cost.spin_check in
  vst.st.wait_charge_cycles <- vst.st.wait_charge_cycles + charge;
  E.consume charge

(* The adaptive wait for a stream that has nothing for this unit yet:
   spin for a short window first; only if nothing arrives does the
   follower sleep in the futex — and only sleeping followers force the
   leader to pay a wake on publish (§3.3.1). *)
let follower_wait t vst tuple sysno =
  let t0 = Int64.to_int (E.now_cycles ()) in
  let uses_waitlock =
    t.cfg.Config.follower_wait = Config.Waitlock && Sysno.is_blocking sysno
  in
  let slept =
    if not uses_waitlock then begin
      stream_wait t vst tuple;
      false
    end
    else if
      wait_activity_timeout t vst tuple t.cost.Cost.waitlock_spin_cycles
    then false
    else begin
      (* A remote follower sleeps on the mirror ring; its wake is the
         bridge receiver's publish, not a leader-side futex — don't make
         the leader pay for it. *)
      let counted = not (tuple = 0 && is_remote t vst.idx) in
      if counted then
        t.waitlock_sleepers.(tuple) <- t.waitlock_sleepers.(tuple) + 1;
      Fun.protect
        ~finally:(fun () ->
          if counted then
            t.waitlock_sleepers.(tuple) <- t.waitlock_sleepers.(tuple) - 1)
        (fun () -> stream_wait t vst tuple);
      true
    end
  in
  let blocked = Int64.to_int (E.now_cycles ()) - t0 in
  charge_wait_cost t vst sysno blocked ~slept

(* Wait until this unit's stream has an event addressed to this unit.
   Raises [Promote] when the variant has been elected leader and the
   stream is drained, and [Divergence_kill] when no leader remains. *)
let rec await_event t vst ~unit_idx ~tuple sysno =
  (* A sibling thread may have promoted the whole variant while this unit
     was parked: take the leader path instead of reading the (gone)
     consumer. *)
  if vst.promoted.(unit_idx) then raise Promote;
  match vst.lanes with
  | Some ln when tuple = 0 -> (
    Lanes.pump ln;
    match Lanes.peek ln ~tid:vst.unit_tid.(unit_idx) with
    | Some e -> e
    | None ->
      if t.leader_idx = vst.idx then
        if Lanes.is_empty ln then
          (* A just-run pump plus empty lanes means the ring is drained
             too (a sync event would have been routed): promotion-safe. *)
          raise Promote
        else begin
          (* Elected, but siblings still hold routed events that must be
             replayed before this variant leads; their last consume pokes
             the ring. *)
          stream_wait t vst tuple;
          await_event t vst ~unit_idx ~tuple sysno
        end
      else if not t.vstates.(t.leader_idx).alive && alive_followers t = 0
      then begin
        degrade t "no leader remains";
        raise E.Killed
      end
      else begin
        follower_wait t vst tuple sysno;
        await_event t vst ~unit_idx ~tuple sysno
      end)
  | _ -> (
    match stream_peek t vst tuple with
    | Some e when e.Event.tid = vst.unit_tid.(unit_idx) -> e
    | Some _ ->
      (* Head event belongs to a sibling thread; wait for it to advance. *)
      stream_wait t vst tuple;
      await_event t vst ~unit_idx ~tuple sysno
    | None ->
      if t.leader_idx = vst.idx then raise Promote
      else if not t.vstates.(t.leader_idx).alive && alive_followers t = 0
      then begin
        (* Nobody can feed this stream again: degrade to native execution
           with a reported reason and unwind this unit quietly instead of
           escaping with Divergence_kill. *)
        degrade t "no leader remains";
        raise E.Killed
      end
      else begin
        follower_wait t vst tuple sysno;
        await_event t vst ~unit_idx ~tuple sysno
      end)

let decode_event_result t vst (disp : Syscall_table.disposition) proc
    (e : Event.t) : Args.result =
  let c = t.cost in
  (match disp with
  | Syscall_table.Virtual -> E.consume c.Cost.consume_vdso
  | _ -> E.consume c.Cost.consume_event);
  let out =
    match e.Event.payload with
    | None -> e.Event.inline_out
    | Some chunk ->
      E.consume
        (Cost.copy_cycles ~rate_c100:c.Cost.shmem_copy_follower_c100
           e.Event.payload_len);
      (* The out-buffer escapes to the replayed syscall's caller, so one
         copy out of the shared chunk is unavoidable — but exactly one:
         [read_into] fills a right-sized caller buffer directly, with no
         intermediate allocation. *)
      let n = min e.Event.payload_len (Pool.size chunk) in
      let bytes = Bytes.create n in
      let _ = Pool.read_into chunk bytes ~len:n in
      if vst.drop_release then vst.drop_release <- false
      else release_payload t e;
      Some bytes
  in
  (match e.Event.grant with
  | Some g ->
    E.consume c.Cost.fd_recv;
    K.install_grant t.k proc (Obj.obj g : K.fd_grant)
  | None -> ());
  vst.st.events_consumed <- vst.st.events_consumed + 1;
  { Args.ret = e.Event.ret; out; fd_object = None }

let divergence_log_limit = 256

let log_divergence t vst (e : Event.t) sysno verdict =
  if t.divergence_log_len < divergence_log_limit then begin
    let leader_name =
      match Sysno.of_int e.Event.sysno with
      | Some s -> Sysno.name s
      | None -> string_of_int e.Event.sysno
    in
    t.divergence_log <-
      {
        dv_variant = vst.variant.Variant.v_name;
        dv_follower_call = Sysno.name sysno;
        dv_leader_event = leader_name;
        dv_verdict = verdict;
      }
      :: t.divergence_log;
    t.divergence_log_len <- t.divergence_log_len + 1
  end

let run_rewrite_rule t vst (e : Event.t) sysno args =
  match vst.variant.Variant.rules with
  | None ->
    raise
      (Divergence_kill
         (Printf.sprintf "follower wants %s, leader streamed %s"
            (Sysno.name sysno)
            (match Sysno.of_int e.Event.sysno with
            | Some s -> Sysno.name s
            | None -> string_of_int e.Event.sysno)))
  | Some prog ->
    let int_args =
      Array.map
        (function
          | Args.Int n -> n
          | Args.Str _ -> 1
          | Args.Buf_in b -> Bytes.length b
          | Args.Buf_out n -> n)
        args
    in
    (* Rules are compiled once per variant on first divergence; each
       subsequent event pays neither verification nor dispatch. *)
    let compiled =
      match vst.compiled_rules with
      | Some f -> f
      | None ->
        let f = Interp.compile prog in
        vst.compiled_rules <- Some f;
        f
    in
    let out =
      compiled
        {
          Interp.ctx_data = { Interp.nr = Sysno.to_int sysno; args = int_args };
          ctx_event =
            {
              Interp.ev_nr = e.Event.sysno;
              ev_ret = e.Event.ret;
              ev_args = e.Event.args;
            };
        }
    in
    vst.st.bpf_steps <- vst.st.bpf_steps + out.Interp.steps;
    E.consume (t.cost.Cost.bpf_per_insn * out.Interp.steps);
    Rules.verdict_of_action out.Interp.action

let run_signal_handler proc signo =
  match K.handler_for proc signo with
  | Some f -> f signo
  | None -> ()

let rec follower_replay t vst ~unit_idx ~tuple proc
    (disp : Syscall_table.disposition) sysno args =
  fault_follower_hook t vst tuple;
  let e = await_event t vst ~unit_idx ~tuple sysno in
  let tid = vst.unit_tid.(unit_idx) in
  (* With lanes the clock check already ran at demux time (in stream
     order); per-tid consumption order would trip it here. *)
  let check_clock = t.cfg.Config.enforce_clock_order
                    && not (lanes_active vst tuple) in
  let pkey = partial_key vst tuple ~tid in
  if e.Event.kind = Event.Ev_signal then begin
    (* A signal the leader received at this point in the stream: consume
       the event and run our own handler, then resume the pending call. *)
    if check_clock then
      ignore (Lamport.try_advance vst.clocks.(tuple) e.Event.clock);
    stream_advance t vst tuple ~tid;
    E.consume t.cost.Cost.consume_event;
    vst.st.events_consumed <- vst.st.events_consumed + 1;
    run_signal_handler proc e.Event.sysno;
    follower_replay t vst ~unit_idx ~tuple proc disp sysno args
  end
  else if
    (* Coalescing (§2.3 pattern ii): the leader's single buffered write
       covers several smaller writes in this follower. Serve this call a
       slice of the event and keep the event at the head until its bytes
       are exhausted. Gated to In_buffer calls, whose result is a byte
       count. *)
    e.Event.sysno = Sysno.to_int sysno
    && Sysno.transfer_class sysno = Sysno.In_buffer
    && e.Event.ret > 0
    &&
    let requested = Args.payload_size args in
    let used =
      Option.value ~default:0 (Hashtbl.find_opt vst.partial_consumed pkey)
    in
    requested > 0 && e.Event.ret - used > requested
  then begin
    let requested = Args.payload_size args in
    let used =
      Option.value ~default:0 (Hashtbl.find_opt vst.partial_consumed pkey)
    in
    Hashtbl.replace vst.partial_consumed pkey (used + requested);
    E.consume t.cost.Cost.consume_event;
    vst.st.divergences_coalesced <- vst.st.divergences_coalesced + 1;
    { Args.ret = requested; out = None; fd_object = None }
  end
  else if e.Event.sysno = Sysno.to_int sysno then begin
    if check_clock then begin
      let ok = Lamport.try_advance vst.clocks.(tuple) e.Event.clock in
      (* With a shared cursor the head event always carries the next
         timestamp; a violation indicates stream corruption. *)
      if not ok then
        raise
          (Divergence_kill
             (Printf.sprintf "clock violation: at %d got stamp %d"
                (Lamport.current vst.clocks.(tuple))
                e.Event.clock))
    end;
    (* If earlier coalesced calls took a prefix of this event, this final
       call receives only the remainder. *)
    let remainder_adjust r =
      match Hashtbl.find_opt vst.partial_consumed pkey with
      | Some used when used > 0
                       && Sysno.transfer_class sysno = Sysno.In_buffer ->
        Hashtbl.remove vst.partial_consumed pkey;
        { r with Args.ret = max 0 (r.Args.ret - used) }
      | _ -> r
    in
    stream_advance t vst tuple ~tid;
    if e.Event.kind = Event.Ev_exit then begin
      (* The leader exited here: the follower's process must die too, so
         execute the exit locally (it unwinds the unit task). *)
      vst.st.events_consumed <- vst.st.events_consumed + 1;
      K.exec t.k proc sysno args
    end
    else begin
      (* Descriptor-freeing calls execute in every variant: a grant
         installed the fd into this follower's table, so the follower
         must release its own slot too, or a later promotion would
         allocate descriptors out of step with native numbering. The
         observable result still comes from the leader's event. *)
      if sysno = Sysno.Close && e.Event.ret >= 0 then
        ignore (K.exec t.k proc sysno args);
      remainder_adjust (decode_event_result t vst disp proc e)
    end
  end
  else begin
    match run_rewrite_rule t vst e sysno args with
    | Rules.Execute_follower_call ->
      log_divergence t vst e sysno "execute-follower-call";
      vst.st.divergences_executed <- vst.st.divergences_executed + 1;
      (* The follower performs its additional call itself; the leader's
         event stays for the next match attempt. *)
      K.exec t.k proc sysno args
    | Rules.Skip_leader_event ->
      log_divergence t vst e sysno "skip-leader-event";
      vst.st.divergences_skipped <- vst.st.divergences_skipped + 1;
      if check_clock then
        ignore (Lamport.try_advance vst.clocks.(tuple) e.Event.clock);
      stream_advance t vst tuple ~tid;
      (* Keep descriptor tables aligned even for skipped events. *)
      (match e.Event.grant with
      | Some g -> K.install_grant t.k proc (Obj.obj g : K.fd_grant)
      | None -> ());
      release_payload t e;
      follower_replay t vst ~unit_idx ~tuple proc disp sysno args
    | Rules.Kill | Rules.Other _ ->
      log_divergence t vst e sysno "kill";
      raise (Divergence_kill "rewrite rule returned kill")
  end

(* ------------------------------------------------------------------ *)
(* The interposed syscall entry point                                  *)
(* ------------------------------------------------------------------ *)

(* Transparent failover: adopt the leader role, stop consuming (our
   cursor must no longer hold the ring back); the caller then restarts
   the in-flight operation as leader (§3.2, §5.1). *)
let do_promote t vst ~unit_idx ~tuple =
  (match vst.variant.Variant.program.Variant.unit_kind with
  | Variant.Thread ->
    Array.fill vst.promoted 0 (Array.length vst.promoted) true
  | Variant.Process -> vst.promoted.(unit_idx) <- true);
  (* A leader does not demultiplex: lanes go away with the consumer
     (they are empty here — promotion requires a drained stream — so the
     drain is a safety net for the payload invariant). *)
  (match vst.lanes with
  | Some ln ->
    List.iter (release_payload t) (Lanes.drain ln);
    vst.lanes <- None
  | None -> ());
  (match t.pump_queues with
  | None -> (
    match vst.consumers.(tuple) with
    | Some c ->
      Ring.unsubscribe c;
      vst.consumers.(tuple) <- None
    | None -> ())
  | Some _ -> ());
  (* Sibling units parked on stream activity must re-examine the world:
     they now find [promoted] set and take the leader path themselves. *)
  Ring.poke t.rings.(tuple);
  if vst.vrole = Follower then begin
    vst.vrole <- Leader;
    vst.table <- Syscall_table.leader;
    Lamport.force vst.clocks.(tuple) (Lamport.current vst.clocks.(tuple));
    (match t.oracle with
    | Some o -> Oracle.note_promotion o ~idx:vst.idx
    | None -> ())
  end;
  (* A catching-up variant only promotes once its stream is drained —
     the recorded prefix is fully replayed, so it continues natively. *)
  (match t.lifecycle with
  | Some lc ->
    let en = Lifecycle.entry lc vst.idx in
    if Lifecycle.state en = Lifecycle.Catching_up then begin
      Array.fill vst.catchup_until 0 (Array.length vst.catchup_until) (-1);
      Lifecycle.transition lc en Lifecycle.Healthy
    end
  | None -> ());
  E.consume t.cost.Cost.failover_promote

(* Publish a signal-delivery event: followers must run their handler at
   the same stream position (§2.2). *)
let leader_publish_signal t vst ~unit_idx ~tuple signo =
  let nfoll = alive_followers t in
  let nconsumers =
    match t.pump_queues with
    | None -> Ring.active_consumers t.rings.(tuple)
    | Some _ -> nfoll
  in
  let nconsumers = if t.lifecycle <> None then max nconsumers 1 else nconsumers in
  if nconsumers > 0 then begin
    E.consume (publish_cost t Syscall_table.Stream nfoll);
    stream_publish_k t tuple (fun () ->
        let clockv = Lamport.tick vst.clocks.(tuple) in
        let event =
          Event.make ~kind:Event.Ev_signal ~tid:vst.unit_tid.(unit_idx)
            ~clock:clockv signo
        in
        if t.lifecycle <> None then
          Tape.append t.tapes.(tuple) event ~out:None;
        event);
    vst.st.events_published <- vst.st.events_published + 1
  end

let interposed t vst ~unit_idx proc sysno args =
  let tuple = tuple_of_unit vst unit_idx in
  let t0 = E.now_cycles () in
  (* Cycle attribution: the gap since the last interposition returned is
     the variant body's own computation; the interposed call itself is
     the syscall-exec phase, exclusive of inner waits (ring, kernel) and
     the digest charge, which credit the stolen ledger as they go. *)
  let reg = Prof.region_enter () in
  if reg.Prof.r_tid >= 0 then Phase.gap_charge reg.Prof.r_tid t0;
  let traced = !Trace.enabled in
  let trace_tid = if traced then (E.self () :> int) else 0 in
  if traced then
    Trace.begin_span ~ts:t0
      ~lamport:(Lamport.current vst.clocks.(tuple))
      ~pid:t.trace_pid ~tid:trace_tid (Sysno.name sysno);
  (* Runs on the normal return AND the unwind path (exit syscalls and
     divergence kills raise): an unclosed span would corrupt this
     track's nesting for the rest of the trace. *)
  let obs_exit ts =
    Prof.region_exit Phase.syscall_exec reg;
    if reg.Prof.r_tid >= 0 then Phase.gap_mark reg.Prof.r_tid ts;
    if traced then
      Trace.end_span ~ts
        ~lamport:(Lamport.current vst.clocks.(tuple))
        ~pid:t.trace_pid ~tid:trace_tid (Sysno.name sysno)
  in
  (* Deliver pending caught signals at the interception boundary: the
     leader streams an Ev_signal first so followers replay the handler at
     the same point. *)
  (if t.leader_idx = vst.idx && vst.promoted.(unit_idx) then
     let rec drain () =
       match K.take_pending_signal proc with
       | None -> ()
       | Some signo ->
         leader_publish_signal t vst ~unit_idx ~tuple signo;
         run_signal_handler proc signo;
         drain ()
     in
     drain ());
  let disp = Syscall_table.lookup vst.table sysno in
  charge_interception t vst disp sysno;
  let result =
    try
      match disp with
      | Syscall_table.Local ->
        vst.st.local_calls <- vst.st.local_calls + 1;
        K.exec t.k proc sysno args
      | Syscall_table.Unsupported ->
        Logs.err (fun m ->
            m "varan: unhandled system call %s in %s" (Sysno.name sysno)
              vst.variant.Variant.v_name);
        Args.err Errno.ENOSYS
      | Syscall_table.Stream | Syscall_table.Virtual -> (
        let leading = t.leader_idx = vst.idx && vst.promoted.(unit_idx) in
        if leading then
          leader_execute_and_record t vst ~unit_idx ~tuple proc disp sysno
            args
        else begin
          try follower_replay t vst ~unit_idx ~tuple proc disp sysno args
          with Promote ->
            do_promote t vst ~unit_idx ~tuple;
            leader_execute_and_record t vst ~unit_idx ~tuple proc disp sysno
              args
        end)
    with exn ->
      obs_exit (E.now_cycles ());
      raise exn
  in
  vst.st.syscalls <- vst.st.syscalls + 1;
  let t1 = E.now_cycles () in
  vst.st.sys_cycles <- Int64.add vst.st.sys_cycles (Int64.sub t1 t0);
  obs_exit t1;
  result

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

(* Build the monitor-interposed API for one execution unit, including the
   NVX fork hook (§3.3.3). *)
let rec make_unit_api t vst ~unit_idx proc =
  let api =
    Api.with_sys proc (fun sysno args ->
        interposed t vst ~unit_idx proc sysno args)
  in
  let scale =
    vst.variant.Variant.compute_multiplier_c1000
    * Cost.mem_slowdown_c1000 t.cost
        ~intensity_c1000:vst.variant.Variant.mem_intensity_c1000
        ~variants:(Array.length t.vstates)
    / 1000
  in
  api.Api.compute_scale_c1000 <- scale;
  api.Api.fork_child <- Some (fun body -> nvx_fork t vst ~unit_idx proc body);
  (* Debuggability (§3.1): the monitor does not occupy the tracing slot,
     so an strace wrapper composes with the interposed API. *)
  let api =
    if t.cfg.Config.trace_first_variant && vst.idx = 0 && unit_idx = 0
       && t.tracer = None
    then begin
      let traced, tracer = Varan_kernel.Strace.attach api in
      traced.Api.fork_child <- api.Api.fork_child;
      t.tracer <- Some tracer;
      traced
    end
    else api
  in
  (* Cooperative checkpointing: a snapshot-capable program calls the hook
     at every syscall boundary; the capture only happens when the
     watchdog armed one (and this unit's shape qualifies). *)
  (if t.lifecycle <> None then begin
     let incarnation = vst.incarnation in
     api.Api.checkpoint_hook <-
       Some
         (fun encode ->
           maybe_capture_checkpoint t vst ~unit_idx ~incarnation proc encode)
   end);
  vst.apis <- api :: vst.apis;
  api

(* fork(2) under NVX: the leader allocates a fresh tuple (ring buffer),
   streams an Ev_fork event carrying the tuple id and the child pid, forks
   its own child and waits for every live follower to subscribe to the new
   ring before the child starts publishing; followers replay the event by
   forking their own child subscribed to that ring (§3.3.3). *)
and nvx_fork t vst ~unit_idx parent_proc body =
  let tuple = tuple_of_unit vst unit_idx in
  let child_name =
    Printf.sprintf "%s.fork%d" vst.variant.Variant.v_name
      (Array.length vst.unit_tuple)
  in
  let spawn_child_unit ~promoted ~new_tu child_proc ~pre =
    let child_unit = new_unit vst ~tuple:new_tu ~tid:0 ~promoted in
    let child_api = make_unit_api t vst ~unit_idx:child_unit child_proc in
    vst.all_procs <- child_proc :: vst.all_procs;
    let incarnation = vst.incarnation in
    let tid =
      E.spawn_here ~name:child_name (fun () ->
          try
            pre ();
            body child_api
          with
          | E.Killed -> ()
          | exn -> if vst.incarnation = incarnation then handle_crash t vst exn)
    in
    K.register_task t.k child_proc tid
  in
  let leading = t.leader_idx = vst.idx && vst.promoted.(unit_idx) in
  if leading then begin
    fault_leader_hook t vst parent_proc tuple;
    let new_tu = new_tuple t in
    let child_proc = K.fork_proc t.k parent_proc child_name in
    E.consume (t.cost.Cost.native_base Sysno.Fork);
    let nfoll = alive_followers t in
    let nconsumers = Ring.active_consumers t.rings.(tuple) in
    let nconsumers =
      if t.lifecycle <> None then max nconsumers 1 else nconsumers
    in
    if nconsumers > 0 then begin
      if t.waitlock_sleepers.(tuple) > 0 then
        E.consume t.cost.Cost.waitlock_wake;
      E.consume (publish_cost t Syscall_table.Stream nfoll);
      stream_publish_k t tuple (fun () ->
          let clockv = Lamport.tick vst.clocks.(tuple) in
          let event =
            Event.make ~kind:Event.Ev_fork ~tid:vst.unit_tid.(unit_idx)
              ~args:[| new_tu |] ~ret:child_proc.Types.pid ~clock:clockv
              (Sysno.to_int Sysno.Fork)
          in
          if t.lifecycle <> None then
            Tape.append t.tapes.(tuple) event ~out:None;
          event);
      vst.st.events_published <- vst.st.events_published + 1
    end;
    (* "The leader then continues execution, but the coordinator waits
       until all followers fork", so the child only starts once every
       live follower has subscribed to the new ring. *)
    let barrier () =
      while t.tuple_ready.(new_tu) < alive_followers t do
        E.Cond.wait t.ready_cond
      done
    in
    spawn_child_unit ~promoted:true ~new_tu child_proc ~pre:barrier;
    child_proc.Types.pid
  end
  else begin
    fault_follower_hook t vst tuple;
    match await_event t vst ~unit_idx ~tuple Sysno.Fork with
    | exception Promote ->
      do_promote t vst ~unit_idx ~tuple;
      nvx_fork t vst ~unit_idx parent_proc body
    | e ->
      if e.Event.kind <> Event.Ev_fork then
        raise
          (Divergence_kill
             "follower called fork but the leader streamed another event");
      if t.cfg.Config.enforce_clock_order && not (lanes_active vst tuple) then
        ignore (Lamport.try_advance vst.clocks.(tuple) e.Event.clock);
      stream_advance t vst tuple ~tid:vst.unit_tid.(unit_idx);
      E.consume t.cost.Cost.consume_event;
      vst.st.events_consumed <- vst.st.events_consumed + 1;
      let new_tu = e.Event.args.(0) in
      let child_proc = K.fork_proc t.k parent_proc child_name in
      E.consume (t.cost.Cost.native_base Sysno.Fork);
      vst.consumers.(new_tu) <- Some (Ring.subscribe t.rings.(new_tu));
      (* A catching-up follower replays this Ev_fork from the tape while
         the child tuple's live ring may be far ahead: the child unit
         gets its own catch-up range ending at that ring's head. *)
      (if t.lifecycle <> None then begin
         let head = Ring.published t.rings.(new_tu) in
         if head > 0 then begin
           vst.catchup_pos.(new_tu) <- 0;
           vst.catchup_until.(new_tu) <- head
         end
       end);
      t.tuple_ready.(new_tu) <- t.tuple_ready.(new_tu) + 1;
      E.Cond.broadcast t.ready_cond;
      spawn_child_unit ~promoted:false ~new_tu child_proc
        ~pre:(fun () -> ());
      e.Event.ret
  end

let start_units t vst =
  let program = vst.variant.Variant.program in
  let main_proc =
    match vst.main_proc with Some p -> p | None -> assert false
  in
  let nunits = program.Variant.units in
  vst.unit_procs <-
    Array.init nunits (fun u ->
        match program.Variant.unit_kind with
        | Variant.Thread -> main_proc
        | Variant.Process ->
          if u = 0 then main_proc
          else
            K.fork_proc t.k main_proc
              (Printf.sprintf "%s.worker%d" vst.variant.Variant.v_name u));
  vst.all_procs <-
    Array.fold_left
      (fun acc p -> if List.memq p acc then acc else p :: acc)
      vst.all_procs vst.unit_procs;
  let incarnation = vst.incarnation in
  for u = 0 to nunits - 1 do
    let proc = vst.unit_procs.(u) in
    let api = make_unit_api t vst ~unit_idx:u proc in
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
            if vst.incarnation = incarnation then handle_crash t vst exn)
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
  let ntuples =
    match shape.Variant.unit_kind with
    | Variant.Thread -> 1
    | Variant.Process -> shape.Variant.units
  in
  let nvariants = Array.length variants in
  if config.Config.lifecycle <> None && config.Config.streaming = Config.Event_pump
  then
    invalid_arg
      "Session.launch: the follower lifecycle manager requires shared-ring \
       streaming";
  let ring_size = effective_ring_size config in
  let rings =
    Array.init ntuples (fun i ->
        Ring.create ~size:ring_size (Printf.sprintf "ring%d" i))
  in
  let pump_queues =
    match config.Config.streaming with
    | Config.Shared_ring -> None
    | Config.Event_pump ->
      Some
        (Array.init ntuples (fun tu ->
             Array.init nvariants (fun v ->
                 Ring.create ~size:ring_size
                   (Printf.sprintf "pump%d.%d" tu v))))
  in
  let vstates =
    Array.mapi
      (fun idx variant ->
        {
          idx;
          variant;
          vrole = (if idx = 0 then Leader else Follower);
          main_proc = None;
          unit_procs = [||];
          consumers = Array.make ntuples None;
          lanes = None;
          compiled_rules = None;
          clocks =
            (match shape.Variant.unit_kind with
            | Variant.Thread ->
              let c = Lamport.create () in
              Array.make ntuples c
            | Variant.Process ->
              Array.init ntuples (fun _ -> Lamport.create ()));
          promoted = Array.make shape.Variant.units (idx = 0);
          unit_tuple =
            (match shape.Variant.unit_kind with
            | Variant.Thread -> Array.make shape.Variant.units 0
            | Variant.Process -> Array.init shape.Variant.units Fun.id);
          unit_tid = Array.init shape.Variant.units Fun.id;
          partial_consumed = Hashtbl.create 4;
          drop_release = false;
          alive = true;
          catchup_pos = Array.make ntuples 0;
          catchup_until = Array.make ntuples (-1);
          incarnation = 0;
          all_procs = [];
          table =
            (if idx = 0 then Syscall_table.leader else Syscall_table.follower);
          trap_share_c1000 = 0;
          rewrite = None;
          trap_acc = 0;
          spawn_ns = 0.;
          spawn_preps = 0;
          st = fresh_vstats ();
          apis = [];
          checkpoint_due = false;
          last_checkpoint_at = 0L;
          pending_restore = None;
        })
      variants
  in
  let t =
    {
      k;
      cfg = config;
      cost = config.Config.cost;
      pool = Pool.create ~pool_bytes:config.Config.pool_bytes ();
      ntuples;
      rings;
      pump_queues;
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
      tapes =
        (match config.Config.lifecycle with
        | Some _ -> Array.init ntuples (fun _ -> Tape.create ())
        | None -> [||]);
      (* The checkpoint store stays per-session even under a shared hub:
         snapshots are keyed by variant index, which collides across
         sessions. Only the zygote and the rewrite cache are shared. *)
      checkpoints = Checkpoint.create ?scope ();
      degraded = None;
      max_lag = 0;
      waitlock_sleepers = Array.make ntuples 0;
      tuple_ready = Array.make ntuples 0;
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
  (match t.oracle with
  | Some o ->
    Array.iteri
      (fun i ring ->
        Oracle.attach_ring o ~tuple:i ring;
        (* Every producer stall reports the consumers holding the gate:
           the oracle flags any that were quarantined — the leader must
           never again wait on one. *)
        Ring.set_stall_hook ring
          (Some (fun cids -> Oracle.note_gate_wait o ~tuple:i ~cids)))
      rings
  | None -> ());
  (* Distributed mode: carve the last [remote_followers] variants onto a
     simulated remote node behind the cross-node ring bridge. Must wire
     up before the first publish on ring 0 — the bridge's sender
     sequence accounting starts at zero. *)
  (match config.Config.net with
  | None -> ()
  | Some ncfg ->
    if t.lifecycle = None then
      invalid_arg "Session.launch: net mode requires the lifecycle manager";
    if config.Config.streaming <> Config.Shared_ring then
      invalid_arg "Session.launch: net mode requires shared-ring streaming";
    if
      ncfg.Config.remote_followers < 1
      || ncfg.Config.remote_followers > nvariants - 1
    then
      invalid_arg
        "Session.launch: net.remote_followers must be in [1, variants - 1]";
    let eng = k.Types.eng in
    let local_node = Net_node.create ~eng "node0" in
    let remote_node = Net_node.create ~eng "node1" in
    (* The mirror gets no oracle tap: attaching it would double-register
       tuple 0 and its consumer ids collide with the local ring's. The
       oracle still audits the local ring the bridge consumes from, and
       the harness digests audit remote followers end to end. *)
    let mirror = Ring.create ~size:ring_size "mirror0" in
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
      Bridge.create ~local_node ~remote_node ~local:rings.(0) ~mirror
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
        ignore (E.spawn_here ~name:"bridge-heal" (fun () -> heal_work t))));
  (* The follower watchdog rides the engine tick. *)
  (match t.lifecycle with
  | Some lc ->
    let p = Lifecycle.policy lc in
    E.add_ticker k.Types.eng ~period:p.Lifecycle.watchdog_period (fun () ->
        watchdog_tick t)
  | None -> ());
  (* Register ring consumers for followers (and pump consumers). *)
  (match pump_queues with
  | None ->
    (* Multi-threaded variants get per-tid lanes in front of the ring;
       catch-up replay (lifecycle mode) reads the tape through the shared
       cursor, so lanes are reserved for the live-only configuration. *)
    let use_lanes =
      config.Config.lifecycle = None
      && shape.Variant.units > 1
      && shape.Variant.unit_kind = Variant.Thread
    in
    Array.iter
      (fun vst ->
        if vst.idx <> 0 then begin
          for tu = 0 to ntuples - 1 do
            (* Remote followers consume tuple 0 from the bridge mirror. *)
            let ring =
              match t.net with
              | Some ns when tu = 0 && ns.n_remote.(vst.idx) -> ns.n_mirror
              | _ -> rings.(tu)
            in
            vst.consumers.(tu) <- Some (Ring.subscribe ring)
          done;
          if use_lanes then
            vst.lanes <-
              Some
                (Lanes.create
                   ~consumer:(stream_consumer vst 0)
                   ~is_sync:lane_sync_event
                   ~capacity:(max 64 (2 * shape.Variant.units))
                   ~on_route:(fun e ->
                     (* The Lamport check runs here, at demux time, where
                        stream order is still visible (§3.3.3). *)
                     if config.Config.enforce_clock_order then
                       let ok =
                         Lamport.try_advance vst.clocks.(0) e.Event.clock
                       in
                       if not ok then
                         raise
                           (Divergence_kill
                              (Printf.sprintf
                                 "clock violation at demux: at %d got stamp \
                                  %d"
                                 (Lamport.current vst.clocks.(0))
                                 e.Event.clock))))
        end)
      vstates
  | Some pq ->
    (* The pump is the only consumer of the leader's queues; followers
       each consume their own queue (consumer id 0 by construction). *)
    for tu = 0 to ntuples - 1 do
      let pump_consumer = Ring.subscribe rings.(tu) in
      Array.iter
        (fun vst ->
          if vst.idx <> 0 then begin
            let c = Ring.subscribe pq.(tu).(vst.idx) in
            assert (Ring.consumer_cid c = 0);
            vst.consumers.(tu) <- Some c
          end)
        vstates;
      ignore
        (E.spawn k.Types.eng ~name:(Printf.sprintf "event-pump%d" tu)
           (fun () ->
             let c = t.cost in
             (* Drain the leader's queue in runs: a lagging pump catches
                up with one gate check and one wakeup per batch instead
                of per event. Per-event costs are still charged. *)
             let rec loop () =
               let batch =
                 Array.of_list
                   (Ring.consume_batch_h pump_consumer ~max:64)
               in
               let n = Array.length batch in
               E.consume (c.Cost.consume_event * n);
               Array.iter
                 (fun vst ->
                   if vst.idx <> t.leader_idx && vst.alive then begin
                     E.consume (c.Cost.publish_event * n);
                     Ring.publish_batch pq.(tu).(vst.idx) batch
                   end)
                 vstates;
               loop ()
             in
             loop ()))
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

type divergence_entry = {
  d_variant : string;
  d_follower_call : string;
  d_leader_event : string;
  d_verdict : string;
}

let divergence_log t =
  List.rev_map
    (fun r ->
      {
        d_variant = r.dv_variant;
        d_follower_call = r.dv_follower_call;
        d_leader_event = r.dv_leader_event;
        d_verdict = r.dv_verdict;
      })
    t.divergence_log

let trace_lines t =
  match t.tracer with
  | Some tr -> Varan_kernel.Strace.lines tr
  | None -> []

let sample_lag t idx =
  let vst = t.vstates.(idx) in
  if vst.alive && idx <> t.leader_idx && vst.consumers.(0) <> None then
    stream_lag t vst 0
  else 0

let observe_lags t =
  Array.iter
    (fun vst ->
      if vst.alive && vst.idx <> t.leader_idx && vst.consumers.(0) <> None
      then t.max_lag <- max t.max_lag (stream_lag t vst 0))
    t.vstates

let tuple_ring (t : t) tu = t.rings.(tu)

let tuple_tape (t : t) tu =
  if tu < Array.length t.tapes then Some t.tapes.(tu) else None

let checkpoint_store (t : t) = t.checkpoints
let pristine_image (t : t) profile = Hashtbl.find_opt t.pristine.images profile
let flight (t : t) = t.fl
