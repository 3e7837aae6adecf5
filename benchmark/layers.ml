(* Per-layer metrics of a traced job, read from the layers' public
   [stats] after the run. A metric a workload never reports (no bridge
   on a local pool, no router outside the serving pool) reads 0 in the
   result. *)

module E = Varan_sim.Engine
module Session = Varan_nvx.Session
module Ring = Varan_ringbuf.Ring
module Pool = Varan_shmem.Pool
module Tape = Varan_nvx.Tape
module Checkpoint = Varan_nvx.Checkpoint
module Rewrite_cache = Varan_binary.Rewrite_cache
module Bridge = Varan_net.Bridge
module Link = Varan_net.Link
module Profile = Varan_obs.Profile

let f = float_of_int
let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum g l = List.fold_left (fun acc x -> acc + g x) 0 l
let sum64 g l = List.fold_left (fun acc x -> Int64.add acc (g x)) 0L l

let ring_publishes sessions =
  sum
    (fun s -> Array.fold_left (fun a r -> a + r.Ring.publishes) 0 (Session.stats s).Session.rings)
    sessions

let sessions rep sessions ~caches =
  let l = Job.layer rep in
  let stats = List.map Session.stats sessions in
  let vs = List.concat_map (fun st -> Array.to_list st.Session.variants) stats in
  let leaders, followers =
    List.partition (fun v -> v.Session.vs_role = Session.Leader) vs
  in
  let per_call group =
    ratio
      (Int64.to_float (sum64 (fun v -> v.Session.vs_sys_cycles) group))
      (f (sum (fun v -> v.Session.vs_syscalls) group))
  in
  let consumed = f (sum (fun v -> v.Session.vs_events_consumed) followers) in
  l "nvx.syscalls" (f (sum (fun v -> v.Session.vs_syscalls) vs));
  l "nvx.jump_dispatches" (f (sum (fun v -> v.Session.vs_jump_dispatches) vs));
  l "nvx.trap_dispatches" (f (sum (fun v -> v.Session.vs_trap_dispatches) vs));
  l "nvx.vdso_dispatches" (f (sum (fun v -> v.Session.vs_vdso_dispatches) vs));
  l "nvx.leader_sys_cyc_per_call" (per_call leaders);
  l "nvx.follower_sys_cyc_per_call" (per_call followers);
  l "nvx.follower_stall_blocks_per_event"
    (ratio (f (sum (fun v -> v.Session.vs_stall_blocks) followers)) consumed);
  l "nvx.follower_stall_cyc_per_event"
    (ratio (Int64.to_float (sum64 (fun v -> v.Session.vs_stall_cycles) followers)) consumed);
  l "nvx.wait_charge_cyc"
    (Int64.to_float (sum64 (fun v -> v.Session.vs_wait_charge_cycles) vs));
  l "nvx.max_lag"
    (f (List.fold_left (fun a st -> max a st.Session.max_observed_lag) 0 stats));
  l "nvx.spawn_ms" (List.fold_left (fun a v -> a +. v.Session.vs_spawn_ns) 0.0 vs /. 1e6);
  let rings = List.concat_map (fun st -> Array.to_list st.Session.rings) stats in
  let ring name g = l ("ring." ^ name) (f (sum g rings)) in
  ring "publishes" (fun r -> r.Ring.publishes);
  ring "consumes" (fun r -> r.Ring.consumes);
  ring "producer_stalls" (fun r -> r.Ring.producer_stalls);
  ring "consumer_stalls" (fun r -> r.Ring.consumer_stalls);
  ring "publish_wakeups" (fun r -> r.Ring.publish_wakeups);
  ring "consume_wakeups" (fun r -> r.Ring.consume_wakeups);
  ring "gate_recomputes" (fun r -> r.Ring.gate_recomputes);
  let pools = List.map (fun st -> st.Session.pool) stats in
  l "pool.allocs" (f (sum (fun p -> p.Pool.allocs) pools));
  l "pool.live_chunks_end" (f (sum (fun p -> p.Pool.live_chunks) pools));
  l "pool.lock_acquisitions" (f (sum (fun p -> p.Pool.lock_acquisitions) pools));
  let tapes = List.concat_map (fun st -> Array.to_list st.Session.tapes) stats in
  let resident = f (sum (fun t -> t.Tape.resident_bytes) tapes) in
  l "tape.resident_bytes" resident;
  l "tape.bytes_per_event" (ratio resident (f (ring_publishes sessions)));
  l "checkpoint.taken"
    (f (sum (fun st -> st.Session.checkpoints.Checkpoint.taken) stats));
  l "rewrite.cold" (f (sum (fun c -> c.Rewrite_cache.misses) caches));
  l "rewrite.rebases" (f (sum (fun c -> c.Rewrite_cache.rebases) caches));
  let bridges = List.filter_map (fun st -> st.Session.bridge) stats in
  let links = List.filter_map (fun st -> st.Session.link) stats in
  let batches = f (sum (fun b -> b.Bridge.batches) bridges) in
  let forwarded = f (sum (fun b -> b.Bridge.events_forwarded) bridges) in
  l "bridge.batches" batches;
  l "bridge.events_per_batch" (ratio forwarded batches);
  l "bridge.wire_bytes_per_event"
    (ratio (f (sum (fun b -> b.Bridge.bytes_on_wire) bridges)) forwarded);
  l "bridge.bytes_saved" (f (sum (fun b -> b.Bridge.bytes_saved) bridges));
  l "bridge.retransmits" (f (sum (fun b -> b.Bridge.retransmits) bridges));
  l "link.frames_sent" (f (sum (fun k -> k.Link.frames_sent) links))

(* Scheduler work against the events the monitors streamed. [run_s] is
   host time inside the engine loops. *)
let engine rep ~engines ~run_s ~sessions =
  let dispatches = f (sum E.task_switches engines) in
  Job.layer rep "sim.dispatches" dispatches;
  Job.layer rep "sim.dispatches_per_event"
    (ratio dispatches (f (ring_publishes sessions)));
  Job.layer rep "sim.dispatch_ns" (ratio (run_s *. 1e9) dispatches);
  Job.layer rep "sim.run_s" run_s

let clients rep ~completed ~errors =
  let late_cyc, late = Profile.backlog () in
  Job.layer rep "client.completed" (f completed);
  Job.layer rep "client.errors" (f errors);
  Job.layer rep "client.gen_late_sends" (f late);
  Job.layer rep "client.gen_late_cyc_mean" (ratio (Int64.to_float late_cyc) (f late))

(* Cycle attribution in virtual cycles per operation; the phases plus
   [unattributed] add up to the engines' total task-cycles. *)
let profile rep ~engines ~ops =
  let total = Int64.to_float (sum64 E.total_task_cycles engines) in
  List.init Profile.n_phases Fun.id
  |> List.iter (fun p ->
         Job.layer rep
           ("profile." ^ String.map (function '-' -> '_' | c -> c) (Profile.phase_name p))
           (ratio (Int64.to_float (Profile.cycles p)) ops));
  let attributed = Int64.to_float (Profile.total ()) in
  Job.layer rep "profile.unattributed" (ratio (total -. attributed) ops);
  Job.layer rep "profile.coverage" (ratio attributed total)

let gc rep ~ops =
  let gc = Gc.quick_stat () in
  Job.layer rep "gc.minor_words_per_op" (ratio gc.Gc.minor_words ops);
  Job.layer rep "gc.major_collections" (f gc.Gc.major_collections);
  Job.layer rep "gc.top_heap_mb" (Job.heap_mb ())
