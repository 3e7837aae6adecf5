open Monitor

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

(* The register view of a call's arguments (what BPF rules and events
   see): strings count 1, buffers their length. *)
let int_args args =
  Array.map
    (function
      | Args.Int n -> n
      | Args.Str _ -> 1
      | Args.Buf_in b -> Bytes.length b
      | Args.Buf_out n -> n)
    args

let sysno_name n =
  match Sysno.of_int n with Some s -> Sysno.name s | None -> string_of_int n

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
    match stream_position vst tuple with
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

(* Whether a leader event on [tuple] is recorded at all. With nobody
   consuming the stream (no followers, no recorder), the leader skips
   recording entirely: running VARAN with zero followers measures pure
   interception overhead, as in Figure 5's first bars. The lifecycle
   recorder keeps the stream flowing even with every follower
   quarantined or the session degraded: the tape is what a respawned
   follower replays to splice back in. *)
let stream_readers t tuple ~nfoll =
  match t.pump with
  | None -> Ring.active_consumers t.rings.(tuple)
  | Some _ -> nfoll

let recording t tuple ~nfoll =
  t.lifecycle <> None || stream_readers t tuple ~nfoll > 0

(* The one leader publish: syscall results, signal deliveries and forks
   all stream through here. Followers asleep in a waitlock need a futex
   wake — a real system call on the leader's fast path (§3.3.1) — which
   the syscall and fork paths pay ([wake]) and the signal path does not.
   The Lamport tick happens atomically with the slot claim: sibling
   leader threads must not interleave between stamping and writing, or
   followers would observe out-of-order timestamps (Figure 3). [out] is
   the result buffer the tape flattens into its entry. *)
let publish t vst ~unit_idx ~tuple ~nfoll ~wake disp ~kind ?args ?ret ?payload
    ?payload_len ?inline_out ?grant ~out sysno =
  let c = t.cost in
  if wake && t.waitlock_sleepers.(tuple) > 0 then E.consume c.Cost.waitlock_wake;
  let base =
    match (disp : Syscall_table.disposition) with
    | Syscall_table.Virtual -> c.Cost.publish_event * 4 / 5
    | _ -> c.Cost.publish_event
  in
  E.consume (base + (c.Cost.publish_per_follower * nfoll));
  Ring.publish_k t.rings.(tuple) (fun () ->
      let clock = Lamport.tick vst.clocks.(tuple) in
      let event =
        Event.make ~kind ~tid:vst.unit_tid.(unit_idx) ?args ?ret ?payload
          ?payload_len ?inline_out ?grant ~clock sysno
      in
      (* Every active stream consumer releases the payload after
         reading it — followers, and in shared-ring mode any recorder
         client too. Counting only followers would free a chunk under
         the recorder's feet (readers = 0 with a lone recorder). *)
      register_payload t event (stream_readers t tuple ~nfoll);
      (* Tape capture flattens the payload now, from the leader's own
         result buffer — the pool chunk may be recycled long before a
         respawned follower replays this entry. *)
      if t.lifecycle <> None then Tape.append t.tapes.(tuple) event ~out;
      event);
  vst.st.events_published <- vst.st.events_published + 1

let leader_execute_and_record t vst ~unit_idx ~tuple proc
    (disp : Syscall_table.disposition) sysno args =
  fault_leader_hook t vst proc tuple;
  let c = t.cost in
  let is_exit = sysno = Sysno.Exit || sysno = Sysno.Exit_group in
  let nfoll = alive_followers t in
  let recording = recording t tuple ~nfoll in
  let publish_result result =
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
    let args = int_args args in
    let args = if Array.length args > 6 then Array.sub args 0 6 else args in
    publish t vst ~unit_idx ~tuple ~nfoll ~wake:true disp
      ~kind:(if is_exit then Event.Ev_exit else Event.Ev_syscall)
      ~args ~ret:result.Args.ret ?payload ~payload_len ?inline_out ?grant
      ~out:result.Args.out (Sysno.to_int sysno)
  in
  let publish_result result = if recording then publish_result result in
  if is_exit then begin
    (* Publish before executing: the kernel-side exit never returns. *)
    publish_result (Args.ok 0);
    K.exec t.k proc sysno args
  end
  else begin
    let result = K.exec t.k proc sysno args in
    publish_result result;
    result
  end

(* ------------------------------------------------------------------ *)
(* Follower path                                                       *)
(* ------------------------------------------------------------------ *)

(* Resolved at every step: a quarantine may remove it while we park. *)
let stream vst tuple =
  match vst.streams.(tuple) with
  | Some s -> s
  | None -> invalid_arg "Session: not a stream consumer on this tuple"

let charge_wait_cost t vst blocked_cycles ~slept =
  let c = t.cost in
  vst.st.stall_blocks <- vst.st.stall_blocks + 1;
  vst.st.stall_cycles <- vst.st.stall_cycles + blocked_cycles;
  let charge = if slept then c.Cost.waitlock_block else c.Cost.spin_check in
  vst.st.wait_charge_cycles <- vst.st.wait_charge_cycles + charge;
  E.consume charge

(* The adaptive wait for a stream that has nothing for this unit yet:
   spin for a short window first; only if nothing arrives does the
   follower sleep in the futex — and only sleeping followers force the
   leader to pay a wake on publish (§3.3.1). *)
let follower_wait t vst s ~tuple sysno =
  let t0 = Int64.to_int (E.now_cycles ()) in
  let uses_waitlock =
    t.cfg.Config.follower_wait = Config.Waitlock && Sysno.is_blocking sysno
  in
  let slept =
    if not uses_waitlock then begin
      Stream.wait s;
      false
    end
    else if Stream.wait_timeout s t.cost.Cost.waitlock_spin_cycles then false
    else begin
      (* A remote follower sleeps on the mirror ring; its wake is the
         bridge receiver's publish, not a leader-side futex — don't make
         the leader pay for it. *)
      let counted = not (Stream.remote s) in
      if counted then
        t.waitlock_sleepers.(tuple) <- t.waitlock_sleepers.(tuple) + 1;
      Fun.protect
        ~finally:(fun () ->
          if counted then
            t.waitlock_sleepers.(tuple) <- t.waitlock_sleepers.(tuple) - 1)
        (fun () -> Stream.wait s);
      true
    end
  in
  let blocked = Int64.to_int (E.now_cycles ()) - t0 in
  charge_wait_cost t vst blocked ~slept

(* Wait until this unit's stream has an event addressed to this unit.
   Raises [Promote] when the variant has been elected leader and the
   stream is drained, and [E.Killed] after degrading when no leader
   remains. *)
let rec await_event t vst ~unit_idx ~tuple sysno =
  (* A sibling thread may have promoted the whole variant while this unit
     was parked: take the leader path instead of reading the (gone)
     consumer. *)
  if vst.promoted.(unit_idx) then raise Promote;
  let s = stream vst tuple in
  let tid = vst.unit_tid.(unit_idx) in
  match Stream.peek s ~tid with
  | Some e when e.Event.tid = tid -> e
  | Some _ ->
    (* Head event belongs to a sibling thread; wait for it to advance. *)
    Stream.wait s;
    await_event t vst ~unit_idx ~tuple sysno
  | None when t.leader_idx = vst.idx ->
    if Stream.siblings_pending s then begin
      (* Elected, but siblings still hold routed events that must be
         replayed before this variant leads; their last consume pokes
         the ring. *)
      Stream.wait s;
      await_event t vst ~unit_idx ~tuple sysno
    end
    else
      (* Nothing for this tid and nothing routed to a sibling: the stream
         is drained (with lanes, a just-run pump would have routed a sync
         event), so promotion is safe. *)
      raise Promote
  | None when (not t.vstates.(t.leader_idx).alive) && alive_followers t = 0
    ->
    (* Nobody can feed this stream again: degrade to native execution
       with a reported reason and unwind this unit quietly instead of
       escaping with Divergence_kill. *)
    Recovery.degrade t "no leader remains";
    raise E.Killed
  | None ->
    follower_wait t vst s ~tuple sysno;
    await_event t vst ~unit_idx ~tuple sysno

(* Consume the head event of this unit's stream; the consumption that
   ends a tape catch-up is the rejoin moment. *)
let advance t vst ~tuple ~tid =
  if Stream.advance (stream vst tuple) ~tid then finish_rejoin t vst

(* With lanes the clock check already ran at demux time (in stream
   order); per-tid consumption order would trip it at replay. *)
let check_clock t ~demuxed = t.cfg.Config.enforce_clock_order && not demuxed

(* Consume a head event that is not a syscall result (a signal or a
   fork): clock check, advance, and the consume cost. *)
let consume_head t vst ~tuple ~tid (e : Event.t) =
  if check_clock t ~demuxed:(Stream.demuxed (stream vst tuple)) then
    ignore (Lamport.try_advance vst.clocks.(tuple) e.Event.clock);
  advance t vst ~tuple ~tid;
  E.consume t.cost.Cost.consume_event;
  vst.st.events_consumed <- vst.st.events_consumed + 1

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
    t.divergence_log <-
      {
        d_variant = vst.variant.Variant.v_name;
        d_follower_call = Sysno.name sysno;
        d_leader_event = sysno_name e.Event.sysno;
        d_verdict = verdict;
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
            (Sysno.name sysno) (sysno_name e.Event.sysno)))
  | Some prog ->
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
          Interp.ctx_data =
            { Interp.nr = Sysno.to_int sysno; args = int_args args };
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
  let demuxed = Stream.demuxed (stream vst tuple) in
  let check_clock = check_clock t ~demuxed in
  (* Coalescing state is per head event. With one shared cursor that
     means per tuple; with lanes every tid has its own head, so the key
     shards by tid (lanes imply a single tuple, so the key spaces cannot
     collide). *)
  let pkey = if demuxed then tid else tuple in
  if e.Event.kind = Event.Ev_signal then begin
    (* A signal the leader received at this point in the stream: consume
       the event and run our own handler, then resume the pending call. *)
    consume_head t vst ~tuple ~tid e;
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
    advance t vst ~tuple ~tid;
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
      (* Unlike {!consume_head}, a skip charges no consume and does not
         count as consumption (the watchdog's progress measure). *)
      if check_clock then
        ignore (Lamport.try_advance vst.clocks.(tuple) e.Event.clock);
      advance t vst ~tuple ~tid;
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
  (match vst.streams.(0) with
  | Some s -> Stream.drop_lanes s ~release:(release_payload t)
  | None -> ());
  (match (t.pump, vst.streams.(tuple)) with
  | None, Some s ->
    Stream.unsubscribe s;
    vst.streams.(tuple) <- None
  | _ -> ());
  (* Sibling units parked on stream activity must re-examine the world:
     they now find [promoted] set and take the leader path themselves. *)
  Ring.poke t.rings.(tuple);
  if vst.vrole = Follower then begin
    vst.vrole <- Leader;
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
      Array.iter (Option.iter Stream.end_catchup) vst.streams;
      Lifecycle.transition lc en Lifecycle.Healthy
    end
  | None -> ());
  E.consume t.cost.Cost.failover_promote

let interposed t vst ~unit_idx proc sysno args =
  let tuple = vst.unit_tuple.(unit_idx) in
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
     the same stream position (§2.2). *)
  (if t.leader_idx = vst.idx && vst.promoted.(unit_idx) then
     let rec drain () =
       match K.take_pending_signal proc with
       | None -> ()
       | Some signo ->
         let nfoll = alive_followers t in
         if recording t tuple ~nfoll then
           publish t vst ~unit_idx ~tuple ~nfoll ~wake:false
             Syscall_table.Stream ~kind:Event.Ev_signal ~out:None signo;
         run_signal_handler proc signo;
         drain ()
     in
     drain ());
  let table =
    if vst.vrole = Leader then Syscall_table.leader else Syscall_table.follower
  in
  let disp = Syscall_table.lookup table sysno in
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
           Recovery.maybe_capture_checkpoint t vst ~unit_idx ~incarnation proc
             encode)
   end);
  api

(* fork(2) under NVX: the leader allocates a fresh tuple (ring buffer),
   streams an Ev_fork event carrying the tuple id and the child pid, forks
   its own child and waits for every live follower to subscribe to the new
   ring before the child starts publishing; followers replay the event by
   forking their own child subscribed to that ring (§3.3.3). *)
and nvx_fork t vst ~unit_idx parent_proc body =
  let tuple = vst.unit_tuple.(unit_idx) in
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
          | exn ->
            if vst.incarnation = incarnation then
              Recovery.handle_crash t vst exn)
    in
    K.register_task t.k child_proc tid
  in
  let leading = t.leader_idx = vst.idx && vst.promoted.(unit_idx) in
  if leading then begin
    fault_leader_hook t vst parent_proc tuple;
    (* The event-pump ablation predates multi-process support, as did
       the prototype's first design. *)
    if t.pump <> None then
      invalid_arg "Session: fork is unsupported in event-pump mode";
    let new_tu = new_tuple t in
    let child_proc = K.fork_proc t.k parent_proc child_name in
    E.consume (t.cost.Cost.native_base Sysno.Fork);
    let nfoll = alive_followers t in
    if recording t tuple ~nfoll then
      publish t vst ~unit_idx ~tuple ~nfoll ~wake:true Syscall_table.Stream
        ~kind:Event.Ev_fork ~args:[| new_tu |] ~ret:child_proc.Types.pid
        ~out:None (Sysno.to_int Sysno.Fork);
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
      consume_head t vst ~tuple ~tid:vst.unit_tid.(unit_idx) e;
      let new_tu = e.Event.args.(0) in
      let child_proc = K.fork_proc t.k parent_proc child_name in
      E.consume (t.cost.Cost.native_base Sysno.Fork);
      let s = subscribe t vst new_tu in
      (* A catching-up follower replays this Ev_fork from the tape while
         the child tuple's live ring may be far ahead: the child unit
         gets its own catch-up range ending at that ring's head. *)
      if t.lifecycle <> None then Stream.catch_up s ~from:0;
      t.tuple_ready.(new_tu) <- t.tuple_ready.(new_tu) + 1;
      E.Cond.broadcast t.ready_cond;
      spawn_child_unit ~promoted:false ~new_tu child_proc
        ~pre:(fun () -> ());
      e.Event.ret
  end
