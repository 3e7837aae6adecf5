module Ring = Varan_ringbuf.Ring
module Event = Varan_ringbuf.Event
module Pool = Varan_shmem.Pool

type consumer_state = {
  mutable started : bool;
  mutable next_seq : int;
  mutable last_clock : int;
}

type tuple_state = {
  tu : int;
  mutable published : Event.t option array;
  mutable nevents : int;
  mutable digest : int;
  consumers : (int, consumer_state) Hashtbl.t;
}

type t = {
  tuples : (int, tuple_state) Hashtbl.t;
  mutable violations : string list; (* reversed *)
  mutable nviolations : int;
  mutable consumed : int;
  mutable crashes : int;
  mutable leader_crashes : int;
  mutable promotions : int;
  promoted_variants : (int, unit) Hashtbl.t;
  fork_refs : (int, unit) Hashtbl.t; (* tuples claimed by an Ev_fork *)
  payloads : (int, int ref) Hashtbl.t; (* addr -> outstanding readers *)
  (* Lifecycle bookkeeping: consumer ids retired by a quarantine (the
     leader's gate must never wait on one again), and the exact splice
     sequence each rejoined consumer must first read. *)
  quarantined_cids : (int * int, unit) Hashtbl.t; (* (tuple, cid) *)
  splice_expect : (int * int, int) Hashtbl.t; (* (tuple, cid) -> seq *)
  respawn_counts : (int, int ref) Hashtbl.t; (* variant -> respawns *)
  (* Checkpoint/restore bookkeeping: the stream positions each variant
     has checkpointed — a restore must land on one of them, at or below
     its splice point, or the rejoin skipped or re-consumed events. *)
  checkpoint_seqs : (int * int, unit) Hashtbl.t; (* (variant, seq) *)
  latest_checkpoint : (int, int) Hashtbl.t; (* variant -> newest seq *)
  mutable quarantines : int;
  mutable respawns : int;
  mutable rejoins : int;
  mutable checkpoints : int;
  mutable restores : int;
  mutable gate_waits : int;
  mutable gate_waits_on_quarantined : int;
}

let violation_cap = 64

let create () =
  {
    tuples = Hashtbl.create 4;
    violations = [];
    nviolations = 0;
    consumed = 0;
    crashes = 0;
    leader_crashes = 0;
    promotions = 0;
    promoted_variants = Hashtbl.create 4;
    fork_refs = Hashtbl.create 4;
    payloads = Hashtbl.create 16;
    quarantined_cids = Hashtbl.create 4;
    splice_expect = Hashtbl.create 4;
    respawn_counts = Hashtbl.create 4;
    checkpoint_seqs = Hashtbl.create 8;
    latest_checkpoint = Hashtbl.create 4;
    quarantines = 0;
    respawns = 0;
    rejoins = 0;
    checkpoints = 0;
    restores = 0;
    gate_waits = 0;
    gate_waits_on_quarantined = 0;
  }

let violate t fmt =
  Printf.ksprintf
    (fun msg ->
      t.nviolations <- t.nviolations + 1;
      if t.nviolations <= violation_cap then t.violations <- msg :: t.violations)
    fmt

(* ------------------------------------------------------------------ *)
(* Structural stream digest                                            *)
(* ------------------------------------------------------------------ *)

(* Explicit byte-level mixing: [Hashtbl.hash] caps the nodes it visits,
   which would silently ignore long payloads. The digest covers exactly
   the fields that survive record/replay serialization — descriptor
   grants and the payload's transport (pool chunk vs inline) do not. *)
let mix h v = (h * 0x01000193) + v

let digest_event (e : Event.t) =
  let h = ref 0x811c9dc5 in
  let add v = h := mix !h v in
  add
    (match e.Event.kind with
    | Event.Ev_syscall -> 0
    | Event.Ev_signal -> 1
    | Event.Ev_fork -> 2
    | Event.Ev_exit -> 3);
  add e.Event.sysno;
  add e.Event.tid;
  add e.Event.ret;
  add e.Event.clock;
  Array.iter add e.Event.args;
  (match e.Event.payload with
  | Some chunk ->
    (* Hash the pooled payload in place — a scoped borrow of the chunk,
       no allocation, same mixing as the inline branch. *)
    Pool.view chunk ~len:e.Event.payload_len (fun data off len ->
        add len;
        for i = off to off + len - 1 do
          add (Char.code (Bytes.get data i))
        done)
  | None -> (
    match e.Event.inline_out with
    | None -> add (-1)
    | Some out ->
      add (Bytes.length out);
      Bytes.iter (fun c -> add (Char.code c)) out));
  !h

(* ------------------------------------------------------------------ *)
(* Taps                                                                *)
(* ------------------------------------------------------------------ *)

let grow ts needed =
  let len = Array.length ts.published in
  if needed >= len then begin
    let bigger = Array.make (max (2 * len) (needed + 1)) None in
    Array.blit ts.published 0 bigger 0 len;
    ts.published <- bigger
  end

let on_publish t ts ~seq (e : Event.t) =
  if seq <> ts.nevents then
    violate t "tuple %d: publish sequence gap (got %d, expected %d)" ts.tu seq
      ts.nevents;
  (* Stamp [s + 1] at sequence [s]: strict per-tuple monotonicity, and a
     promotion that lost or duplicated events would break the arithmetic
     for every event after the failover point. *)
  if e.Event.clock <> seq + 1 then
    violate t "tuple %d: event %d carries Lamport stamp %d, expected %d"
      ts.tu seq e.Event.clock (seq + 1);
  grow ts seq;
  ts.published.(seq) <- Some e;
  ts.nevents <- max ts.nevents (seq + 1);
  ts.digest <- mix ts.digest (digest_event e);
  if e.Event.kind = Event.Ev_fork then begin
    match Array.length e.Event.args with
    | 0 -> violate t "tuple %d: fork event %d carries no tuple id" ts.tu seq
    | _ ->
      let target = e.Event.args.(0) in
      if not (Hashtbl.mem t.tuples target) then
        violate t "tuple %d: fork event %d references unknown tuple %d" ts.tu
          seq target
      else if Hashtbl.mem t.fork_refs target then
        violate t "tuple %d: fork event %d claims tuple %d a second time"
          ts.tu seq target
      else Hashtbl.replace t.fork_refs target ()
  end

let on_consume t ts ~cid ~seq (e : Event.t) =
  t.consumed <- t.consumed + 1;
  let cs =
    match Hashtbl.find_opt ts.consumers cid with
    | Some cs -> cs
    | None ->
      let cs = { started = false; next_seq = 0; last_clock = 0 } in
      Hashtbl.replace ts.consumers cid cs;
      cs
  in
  (* Consumers may register mid-stream (a recorder, a forked follower),
     so the prefix starts wherever they first read; from there it must be
     gapless. *)
  if cs.started && seq <> cs.next_seq then
    violate t "tuple %d: consumer %d jumped from seq %d to %d" ts.tu cid
      cs.next_seq seq;
  (* A rejoined consumer is stricter: its first live read must land at
     exactly the splice sequence the session recorded at resubscribe. *)
  (if not cs.started then
     match Hashtbl.find_opt t.splice_expect (ts.tu, cid) with
     | Some expected when seq <> expected ->
       violate t
         "tuple %d: rejoined consumer %d spliced at seq %d, expected %d"
         ts.tu cid seq expected
     | _ -> ());
  (if Hashtbl.mem t.quarantined_cids (ts.tu, cid) then
     violate t "tuple %d: quarantined consumer %d read seq %d after removal"
       ts.tu cid seq);
  cs.started <- true;
  cs.next_seq <- seq + 1;
  (if seq >= ts.nevents then
     violate t "tuple %d: consumer %d read unpublished seq %d" ts.tu cid seq
   else
     match ts.published.(seq) with
     | Some pub when pub == e -> ()
     | _ ->
       violate t
         "tuple %d: consumer %d observed a different event at seq %d than \
          the leader published"
         ts.tu cid seq);
  if e.Event.clock <= cs.last_clock then
    violate t "tuple %d: consumer %d saw clock %d after %d" ts.tu cid
      e.Event.clock cs.last_clock;
  cs.last_clock <- e.Event.clock

let attach_ring t ~tuple ring =
  if Hashtbl.mem t.tuples tuple then
    violate t "tuple %d: a second ring was created for this tuple" tuple
  else begin
    let ts =
      {
        tu = tuple;
        published = Array.make 64 None;
        nevents = 0;
        digest = 0x811c9dc5;
        consumers = Hashtbl.create 4;
      }
    in
    Hashtbl.replace t.tuples tuple ts;
    Ring.set_tap ring
      (Some
         {
           Ring.tap_publish = (fun ~seq e -> on_publish t ts ~seq e);
           Ring.tap_consume = (fun ~cid ~seq e -> on_consume t ts ~cid ~seq e);
         })
  end

(* ------------------------------------------------------------------ *)
(* Session notes                                                       *)
(* ------------------------------------------------------------------ *)

let note_crash t ~idx ~was_leader =
  ignore idx;
  t.crashes <- t.crashes + 1;
  if was_leader then t.leader_crashes <- t.leader_crashes + 1

let note_promotion t ~idx =
  t.promotions <- t.promotions + 1;
  if Hashtbl.mem t.promoted_variants idx then
    violate t "variant %d was promoted to leader twice" idx
  else Hashtbl.replace t.promoted_variants idx ();
  if t.promotions > t.leader_crashes then
    violate t "promotion of variant %d without a preceding leader crash" idx

let note_quarantine t ~idx ~tuple ~cid =
  ignore idx;
  t.quarantines <- t.quarantines + 1;
  Hashtbl.replace t.quarantined_cids (tuple, cid) ()

let note_respawn t ~idx ~max_restarts =
  t.respawns <- t.respawns + 1;
  let r =
    match Hashtbl.find_opt t.respawn_counts idx with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Hashtbl.replace t.respawn_counts idx r;
      r
  in
  incr r;
  if !r > max_restarts then
    violate t "variant %d respawned %d times, beyond max_restarts %d" idx !r
      max_restarts

let note_rejoin t ~idx ~tuple ~cid ~splice_seq =
  ignore idx;
  t.rejoins <- t.rejoins + 1;
  Hashtbl.replace t.splice_expect (tuple, cid) splice_seq

let note_checkpoint t ~idx ~seq =
  t.checkpoints <- t.checkpoints + 1;
  (match Hashtbl.find_opt t.latest_checkpoint idx with
  | Some prev when seq < prev ->
    violate t
      "variant %d checkpointed at seq %d after already checkpointing seq %d"
      idx seq prev
  | _ -> Hashtbl.replace t.latest_checkpoint idx seq);
  Hashtbl.replace t.checkpoint_seqs (idx, seq) ()

let note_restore t ~idx ~seq ~splice_seq =
  t.restores <- t.restores + 1;
  if not (Hashtbl.mem t.checkpoint_seqs (idx, seq)) then
    violate t "variant %d restored seq %d, which it never checkpointed" idx
      seq;
  if seq > splice_seq then
    violate t
      "variant %d restored checkpoint seq %d past its splice point %d \
       (events would be skipped)"
      idx seq splice_seq

let note_gate_wait t ~tuple ~cids =
  t.gate_waits <- t.gate_waits + 1;
  List.iter
    (fun cid ->
      if Hashtbl.mem t.quarantined_cids (tuple, cid) then begin
        t.gate_waits_on_quarantined <- t.gate_waits_on_quarantined + 1;
        violate t
          "tuple %d: leader gate waited on quarantined consumer %d" tuple cid
      end)
    cids

let note_payload_register t ~addr ~readers =
  Hashtbl.replace t.payloads addr (ref readers)

let note_payload_release t ~addr =
  match Hashtbl.find_opt t.payloads addr with
  | None -> violate t "payload at addr %d released but never registered" addr
  | Some r ->
    decr r;
    if !r <= 0 then Hashtbl.remove t.payloads addr

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

type report = {
  tuples : int;
  events : int;
  consumed : int;
  crashes : int;
  leader_crashes : int;
  promotions : int;
  quarantines : int;
  respawns : int;
  rejoins : int;
  checkpoints : int;
  restores : int;
  gate_waits : int;
  gate_waits_on_quarantined : int;
  outstanding_payloads : int;
  digests : (int * int * int) list;
  violations : string list;
}

let report t =
  let outstanding = Hashtbl.length t.payloads in
  let finals = ref [] in
  if outstanding > 0 then
    finals :=
      Printf.sprintf
        "%d shared-memory payload(s) still registered at end of run"
        outstanding
      :: !finals;
  if t.nviolations > violation_cap then
    finals :=
      Printf.sprintf "(%d further violations suppressed)"
        (t.nviolations - violation_cap)
      :: !finals;
  let digests =
    (* Sorted, so the table's order never reaches the report. *)
    Hashtbl.fold (fun tu ts acc -> (tu, ts.nevents, ts.digest) :: acc) t.tuples []
    |> List.sort compare
  in
  let events = List.fold_left (fun acc (_, n, _) -> acc + n) 0 digests in
  {
    tuples = Hashtbl.length t.tuples;
    events;
    consumed = t.consumed;
    crashes = t.crashes;
    leader_crashes = t.leader_crashes;
    promotions = t.promotions;
    quarantines = t.quarantines;
    respawns = t.respawns;
    rejoins = t.rejoins;
    checkpoints = t.checkpoints;
    restores = t.restores;
    gate_waits = t.gate_waits;
    gate_waits_on_quarantined = t.gate_waits_on_quarantined;
    outstanding_payloads = outstanding;
    digests;
    violations = List.rev t.violations @ List.rev !finals;
  }

let ok r = r.violations = []

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>oracle: %d tuple(s), %d event(s) published, %d consumed@,\
     crashes=%d (leader=%d) promotions=%d outstanding_payloads=%d@,"
    r.tuples r.events r.consumed r.crashes r.leader_crashes r.promotions
    r.outstanding_payloads;
  if r.quarantines > 0 || r.respawns > 0 || r.gate_waits > 0 then
    Format.fprintf ppf
      "lifecycle: quarantines=%d respawns=%d rejoins=%d gate_waits=%d \
       (on quarantined: %d)@,"
      r.quarantines r.respawns r.rejoins r.gate_waits
      r.gate_waits_on_quarantined;
  if r.checkpoints > 0 || r.restores > 0 then
    Format.fprintf ppf "checkpoints: taken=%d restores=%d@," r.checkpoints
      r.restores;
  List.iter
    (fun (tu, n, d) ->
      Format.fprintf ppf "tuple %d: %d events, digest %08x@," tu n
        (d land 0xffffffff))
    r.digests;
  (match r.violations with
  | [] -> Format.fprintf ppf "invariants: all hold"
  | vs ->
    Format.fprintf ppf "VIOLATIONS:@,";
    List.iter (fun v -> Format.fprintf ppf "  - %s@," v) vs);
  Format.fprintf ppf "@]"
