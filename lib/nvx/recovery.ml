open Monitor

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
          let c =
            match vst.streams.(0) with
            | Some s when Stream.in_catchup s -> min c (Stream.position s)
            | _ -> c
          in
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
    match stream_position vst 0 with
    | None -> ()
    | Some seq ->
      (match Checkpoint.latest_seq t.checkpoints ~idx:vst.idx with
      | Some s when s >= seq ->
        (* Nothing consumed since the last capture; arming stays cheap. *)
        ()
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
        if Array.length t.tapes > 0 then
          Tape.retire t.tapes.(0) ~keep_from:(checkpoint_floor t));
      vst.checkpoint_due <- false;
      vst.last_checkpoint_at <- E.now_cycles ()
  end

(* ------------------------------------------------------------------ *)
(* Post-mortem bundles                                                 *)
(* ------------------------------------------------------------------ *)

(* The bundle's "counters" object: this session's own checkpoint and
   lifecycle tallies, sorted by name. *)
let bundle_counters t =
  let ck = Checkpoint.stats t.checkpoints in
  [
    ("checkpoint.dedup_hits", ck.Checkpoint.dedup_hits);
    ("checkpoint.delta_events", ck.Checkpoint.delta_events);
    ("checkpoint.restores", ck.Checkpoint.restores);
    ("checkpoint.taken", ck.Checkpoint.taken);
  ]
  @
  match t.lifecycle with
  | None -> []
  | Some lc ->
    let r =
      Lifecycle.report lc ~leader_idx:t.leader_idx ~degraded:t.degraded
    in
    [
      ("lifecycle.deaths", r.Lifecycle.deaths);
      ("lifecycle.degradations", if t.degraded = None then 0 else 1);
      ("lifecycle.quarantines", r.Lifecycle.quarantines);
      ("lifecycle.rejoins", r.Lifecycle.rejoins);
      ("lifecycle.respawns", r.Lifecycle.respawns);
      ("lifecycle.unreachable", r.Lifecycle.unreachable);
    ]

(* Dump the flight recorder, when post-mortems are armed. *)
let postmortem t ~at ~reason =
  ignore (Flight.maybe_dump t.fl ~at ~reason ~counters:(bundle_counters t))

(* ------------------------------------------------------------------ *)
(* Follower lifecycle: quarantine, respawn, graceful degradation        *)
(* ------------------------------------------------------------------ *)

(* Native-speed fallback: record the reason instead of raising. The
   leader keeps executing at full speed (with zero stream consumers it
   pays no recording cost beyond the lifecycle tape, which is retained
   so fresh followers can still be provisioned from it). *)
let degrade t reason =
  match t.degraded with
  | Some _ -> () (* first reason wins *)
  | None ->
    t.degraded <- Some reason;
    let at = E.now t.k.Types.eng in
    Flight.record t.fl ~at "session.degrade" reason;
    postmortem t ~at ~reason:("session degraded: " ^ reason);
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

(* A follower leaves for good: the terminal transition, its post-mortem
   bundle (which names [why]), and the degradation floor it may break. *)
let declare_dead t lc en vst ~why =
  Lifecycle.transition lc en Lifecycle.Dead;
  postmortem t ~at:(E.now t.k.Types.eng)
    ~reason:(Printf.sprintf "follower %d dead: %s" vst.idx why);
  check_degraded_floor t

(* Take a follower out of the stream: drop its consumers, releasing
   their unread payload grants so the leader's gate can never again wait
   on it, and kill every process of its incarnation. *)
let retire t vst =
  vst.alive <- false;
  stream_remove t vst;
  List.iter
    (fun p -> K.kill_proc t.k p Varan_kernel.Flags.sigkill)
    vst.all_procs

(* The states of a follower that is consuming the stream, the only ones
   the watchdog checks and a quarantine or a link park can leave. *)
let in_stream en =
  match Lifecycle.state en with
  | Lifecycle.Healthy | Lifecycle.Lagging | Lifecycle.Catching_up -> true
  | Lifecycle.Quarantined | Lifecycle.Respawning | Lifecycle.Unreachable
  | Lifecycle.Dead -> false

(* Move an [in_stream] follower to [Quarantined] or [Unreachable],
   noting why and at which tuple-0 position it left. *)
let park lc en vst ~reason state =
  en.Lifecycle.e_reason <- reason;
  (match stream_position vst 0 with
  | Some s -> en.Lifecycle.e_quarantine_seq <- s
  | None -> ());
  Lifecycle.transition lc en state

(* Transition a follower into quarantine (pure bookkeeping, callable
   from the watchdog's scheduler context). Returns false when the entry
   is already quarantined, respawning or dead — the caller must not
   double-quarantine. *)
let begin_quarantine t vst ~reason =
  match t.lifecycle with
  | None -> false
  | Some lc ->
    let en = Lifecycle.entry lc vst.idx in
    in_stream en
    && begin
      Flight.record t.fl ~at:(E.now t.k.Types.eng) "lifecycle.quarantine"
        (Printf.sprintf "variant %d: %s" vst.idx reason);
      park lc en vst ~reason Lifecycle.Quarantined;
      true
    end

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
    else if t.degraded <> None then begin
      (* The session degraded while this respawn was backing off (or the
         partition was healing); a late rejoin would resurrect NVX behind
         the report's back. *)
      en.Lifecycle.e_reason <- "respawn cancelled: session degraded";
      declare_dead t lc en vst ~why:en.Lifecycle.e_reason
    end
    else begin
      let remote = is_remote t vst.idx in
      (* The global tuple-0 sequence this rejoin will splice at: for a
         remote follower that is the mirror's head in global coordinates
         (the bridge was reattached at [n_base] before any heal-respawn
         runs), never the local ring's head — a checkpoint above the
         mirror head would leave the restored state ahead of the splice. *)
      let nunits = vst.variant.Variant.program.Variant.units in
      let rejoin_head =
        let ring, base, _ = source t vst 0 in
        base + Ring.published ring
      in
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
        declare_dead t lc en vst ~why:en.Lifecycle.e_reason
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
      incarnate vst ~ntuples:(Array.length t.rings) ~leader:false;
      vst.incarnation <- vst.incarnation + 1;
      (* The live consumer's cursor parks at the ring head; the recorded
         prefix [start, head) replays from the tape — [start] is 0 or the
         restored checkpoint's position — so the splice lands at exactly
         the head sequence and the Lamport clock arrives at the live
         stream's stamp. *)
      List.iter
        (fun tu ->
          let s = subscribe t vst tu in
          let head = Stream.position s in
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
          Stream.catch_up s ~from:start;
          (* The mirror ring is outside the oracle's tuple map (its cids
             collide with the local ring's); remote rejoins are audited
             end to end by the harness digests instead. *)
          match t.oracle with
          | Some o when not (Stream.remote s) ->
            Oracle.note_rejoin o ~idx:vst.idx ~tuple:tu ~cid:(Stream.cid s)
              ~splice_seq:head
          | _ -> ())
        (* Forked tuples are re-entered when their Ev_fork replays from
           the tape. *)
        (List.init (initial_tuples vst.variant.Variant.program) Fun.id);
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
      (match t.hub.sp_zygote with
      | Some z -> ignore (Zygote.fork_request z vst.variant.Variant.v_name)
      | None -> ())
      end
    end

(* The effectful half of a quarantine; the entry is already in state
   [Quarantined] (via {!begin_quarantine}). Retires the follower — the
   leader's gate can never again wait on it — and either schedules a
   backed-off respawn or declares the follower dead when the restart
   budget is spent. Task context. *)
let quarantine_work t vst =
  match t.lifecycle with
  | None -> ()
  | Some lc ->
    let en = Lifecycle.entry lc vst.idx in
    let p = Lifecycle.policy lc in
    (match t.oracle with
    | Some o ->
      Array.iteri
        (fun tu s ->
          match s with
          | Some s when not (Stream.remote s) ->
            (* Mirror-ring consumers live outside the oracle's tuple
               map; noting their cids would collide with ring 0's. *)
            Oracle.note_quarantine o ~idx:vst.idx ~tuple:tu ~cid:(Stream.cid s)
          | _ -> ())
        vst.streams
    | None -> ());
    retire t vst;
    (* The leader may be parked on this follower's gate or a fork
       rendezvous. *)
    wake_all t;
    if en.Lifecycle.e_restarts >= p.Lifecycle.max_restarts then
      declare_dead t lc en vst
        ~why:
          (Printf.sprintf "restart budget exhausted (%s)"
             en.Lifecycle.e_reason)
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
          if in_stream en then begin
            park lc en vst ~reason Lifecycle.Unreachable;
            vst :: acc
          end
          else acc
        end
        else acc)
      [] t.vstates
  | _ -> []

(* The effectful half of a link-degradation park: detach the bridge —
   its local consumer unsubscribes, so the leader's gate is freed even
   when no follower was left to park — then retire the parked
   followers. The oracle is not told: an [Unreachable] park is not a
   quarantine, and mirror-ring cids live outside its tuple map. Task
   context. *)
let unreachable_work t parked =
  match t.net with
  | None -> ()
  | Some ns ->
    Bridge.detach ns.n_bridge;
    List.iter (retire t) parked;
    wake_all t;
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

(* Cycles of bridge window stall before the watchdog parks the remote
   followers in [Unreachable]. It stays above the lifecycle
   [stall_timeout] so an individually-stuck remote follower is
   quarantined (its problem) before the link is declared down
   (everyone's problem). *)
let unreachable_after = 300_000

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
       waits for a heal probe instead of a backoff timer. *)
    (match t.net with
    | Some ns when not (Bridge.detached ns.n_bridge) -> (
      match Bridge.stalled_since ns.n_bridge with
      | Some t0
        when Int64.sub now t0
             >= Int64.of_int unreachable_after ->
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
        let en = Lifecycle.entry lc vst.idx in
        if vst.idx <> t.leader_idx && vst.alive && in_stream en then begin
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
             right now. The stall quarantine must not use [lag]:
             during a partition the backlog is the link's fault, not
             the follower's (the bridge watchdog owns that case). *)
          let lag = ref 0 and consumable = ref 0 in
          Array.iter
            (function
              | Some s ->
                lag := max !lag (Stream.total_lag s);
                consumable := max !consumable (Stream.lag s)
              | None -> ())
            vst.streams;
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
       postmortem t ~at ~reason:("divergence: " ^ msg)
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
               match
                 Array.find_opt
                   (fun v -> v.alive && not (is_remote t v.idx))
                   t.vstates
               with
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
             wake_all t))
  end
