(* The monitor state that a session's parts share: the session record,
   the per-variant record, and the bookkeeping every part touches
   (payload references, tuples and units, stream subscription). Stream
   reads events, Recovery handles crashes and the lifecycle, Interpose
   runs the leader and follower syscall paths, and Session composes
   them; all four open this module. Session re-exports [t], [role],
   [Divergence_kill] and [divergence_entry]. *)

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
  (* Per tuple: this follower's read handle on the tuple's stream (ring,
     pump queue or bridge mirror, tape catch-up, tuple 0's per-tid
     lanes); [None] when not a consumer there. *)
  mutable streams : Stream.t option array;
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
  mutable incarnation : int; (* respawns of this variant's image *)
  (* Every process ever created for this variant's current incarnation,
     so a quarantine can kill the whole variant (fork children are not
     reachable from its units). *)
  mutable all_procs : Types.proc list;
  mutable trap_share_c1000 : int;
  mutable rewrite : Rewriter.stats option;
  mutable trap_acc : int;
  mutable spawn_ns : float; (* wall-clock ns spent in prepare_image, total *)
  mutable spawn_preps : int; (* prepare_image runs (1 + respawns) *)
  st : vstats;
  (* Checkpoint/restore fast rejoin (rr-style): the watchdog arms
     [checkpoint_due] every [checkpoint_interval] cycles; the follower
     captures at its next syscall boundary through the program's
     checkpoint hook. [pending_restore] carries the snapshot a respawn
     chose, applied when the fresh incarnation's unit 0 starts. *)
  mutable checkpoint_due : bool;
  mutable last_checkpoint_at : int64;
  mutable pending_restore : Checkpoint.snapshot option;
}

type divergence_entry = {
  d_variant : string;
  d_follower_call : string;
  d_leader_event : string;
  d_verdict : string;
}

type t = {
  k : Types.t;
  cfg : Config.t;
  cost : Cost.t;
  pool : Pool.t;
  (* Shared_ring mode: one ring per tuple. Event_pump mode: the leader's
     private queues, one per tuple. Tuples grow when processes fork. *)
  mutable rings : Event.t Ring.t array;
  (* Event_pump mode only: the per-tuple, per-variant follower queues. *)
  pump : Stream.pump option;
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
  mutable divergence_log : divergence_entry list; (* reversed, bounded *)
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
(* Stream subscription                                                 *)
(* ------------------------------------------------------------------ *)

let is_remote t idx =
  match t.net with Some ns -> ns.n_remote.(idx) | None -> false

(* Where variant [vst] reads tuple [tu] from, with the global sequence of
   that ring's sequence 0 and the ring it mirrors. Remote followers
   consume tuple 0 from the bridge's mirror ring, not the leader's ring;
   forked tuples are consumed directly (same-process license — the model
   is the bridge shipping their deltas too). *)
let source t vst tu =
  match (t.pump, t.net) with
  | Some p, _ -> (Stream.pump_queue p ~tuple:tu ~idx:vst.idx, 0, None)
  | None, Some ns when tu = 0 && ns.n_remote.(vst.idx) ->
    (ns.n_mirror, ns.n_base, Some t.rings.(0))
  | None, _ -> (t.rings.(tu), 0, None)

let subscribe t vst tu =
  let ring, base, upstream = source t vst tu in
  let tape = if t.lifecycle <> None then Some t.tapes.(tu) else None in
  let s = Stream.subscribe ?tape ~base ?upstream ring in
  vst.streams.(tu) <- Some s;
  s

(* The consumer's stream position in global tuple-stream coordinates,
   tape mode included (used by the fault hooks, the checkpoint capture
   and the watchdog's progress ledger). *)
let stream_position vst tuple = Option.map Stream.position vst.streams.(tuple)

(* A crashed follower dies with events still unread; its payload
   references go away with its cursor, or the chunks leak (caught by the
   oracle's pool-balance invariant). *)
let stream_remove t vst =
  Array.iteri
    (fun tu s ->
      match s with
      | None -> ()
      | Some s ->
        Stream.remove s ~release:(release_payload t);
        vst.streams.(tu) <- None)
    vst.streams;
  match t.pump with
  | None -> ()
  | Some p ->
    (* Waking the private queues lets the pump notice the departure. *)
    Stream.pump_poke p ~idx:vst.idx

(* The rejoin moment: the last recorded prefix ran out, the next read
   comes from the live ring at exactly the splice sequence. *)
let finish_rejoin t vst =
  match t.lifecycle with
  | None -> ()
  | Some lc ->
    let en = Lifecycle.entry lc vst.idx in
    let catching = Option.fold ~none:false ~some:Stream.in_catchup in
    if
      Lifecycle.state en = Lifecycle.Catching_up
      && not (Array.exists catching vst.streams)
    then Lifecycle.transition lc en Lifecycle.Healthy

(* ------------------------------------------------------------------ *)
(* Variants, tuples and units                                          *)
(* ------------------------------------------------------------------ *)

(* Everything one incarnation of a variant owns, in its launch shape:
   launch builds every variant's first incarnation with it and a respawn
   the next one. Only variant 0 at launch starts as [leader]. *)
let incarnate vst ~ntuples ~leader =
  let shape = vst.variant.Variant.program in
  let nunits = shape.Variant.units in
  vst.vrole <- (if leader then Leader else Follower);
  vst.main_proc <- None;
  vst.all_procs <- [];
  vst.streams <- Array.make ntuples None;
  vst.clocks <- Array.init ntuples (fun _ -> Lamport.create ());
  vst.promoted <- Array.make nunits leader;
  vst.unit_tuple <-
    (match shape.Variant.unit_kind with
    | Variant.Thread -> Array.make nunits 0
    | Variant.Process -> Array.init nunits Fun.id);
  vst.unit_tid <- Array.init nunits Fun.id;
  Hashtbl.reset vst.partial_consumed;
  vst.drop_release <- false;
  vst.alive <- true;
  vst.pending_restore <- None

let new_vstate idx variant =
  let vst =
    {
      idx;
      variant;
      vrole = Follower;
      main_proc = None;
      streams = [||];
      compiled_rules = None;
      clocks = [||];
      promoted = [||];
      unit_tuple = [||];
      unit_tid = [||];
      partial_consumed = Hashtbl.create 4;
      drop_release = false;
      alive = true;
      incarnation = 0;
      all_procs = [];
      trap_share_c1000 = 0;
      rewrite = None;
      trap_acc = 0;
      spawn_ns = 0.;
      spawn_preps = 0;
      st = fresh_vstats ();
      checkpoint_due = false;
      last_checkpoint_at = 0L;
      pending_restore = None;
    }
  in
  incarnate vst ~ntuples:0 ~leader:(idx = 0);
  vst

let grow_array a len fill =
  if Array.length a >= len then a
  else begin
    let bigger = Array.make len fill in
    Array.blit a 0 bigger 0 (Array.length a);
    bigger
  end

(* The tuples a variant's initial units stream on, [0, n): one shared
   tuple for threads, one per process. Forked tuples come later. *)
let initial_tuples (shape : Variant.program) =
  match shape.Variant.unit_kind with
  | Variant.Thread -> 1
  | Variant.Process -> shape.Variant.units

(* Ring capacity after any Ring_pressure injection in the fault plan. *)
let effective_ring_size (cfg : Config.t) =
  match Fault.ring_shrink cfg.Config.fault_plan with
  | Some n -> max 1 (min n cfg.Config.ring_size)
  | None -> cfg.Config.ring_size

(* Allocate a fresh tuple: its own ring buffer and bookkeeping slots.
   Launch allocates the initial tuples, a leader fork each later one. *)
let new_tuple t =
  let idx = Array.length t.rings in
  let n = idx + 1 in
  let fresh =
    Ring.create ~size:(effective_ring_size t.cfg) (Printf.sprintf "ring%d" idx)
  in
  (match t.oracle with
  | Some o ->
    Oracle.attach_ring o ~tuple:idx fresh;
    (* Every producer stall reports the consumers holding the gate: the
       oracle flags any that were quarantined — the leader must never
       again wait on one. *)
    Ring.set_stall_hook fresh
      (Some (fun cids -> Oracle.note_gate_wait o ~tuple:idx ~cids))
  | None -> ());
  t.rings <- grow_array t.rings n fresh;
  if t.lifecycle <> None then t.tapes <- grow_array t.tapes n (Tape.create ());
  t.waitlock_sleepers <- grow_array t.waitlock_sleepers n 0;
  t.tuple_ready <- grow_array t.tuple_ready n 0;
  Array.iter
    (fun vst ->
      vst.streams <- grow_array vst.streams n None;
      vst.clocks <- grow_array vst.clocks n (Lamport.create ()))
    t.vstates;
  idx

(* Allocate a unit slot in a variant (a forked child process); each
   array grows by exactly the new slot, which [grow_array] fills. *)
let new_unit vst ~tuple ~tid ~promoted =
  let u = Array.length vst.unit_tuple in
  vst.unit_tuple <- grow_array vst.unit_tuple (u + 1) tuple;
  vst.unit_tid <- grow_array vst.unit_tid (u + 1) tid;
  vst.promoted <- grow_array vst.promoted (u + 1) promoted;
  u

(* Wake every task parked on the world changing: stream waiters and the
   fork rendezvous both re-examine it when woken. *)
let wake_all t =
  Array.iter Ring.poke t.rings;
  (match t.net with Some ns -> Ring.poke ns.n_mirror | None -> ());
  (match t.pump with None -> () | Some p -> Stream.pump_poke_all p);
  E.Cond.broadcast t.ready_cond

let alive_followers t =
  Array.fold_left
    (fun n v -> if v.alive && v.idx <> t.leader_idx then n + 1 else n)
    0 t.vstates
