module E = Varan_sim.Engine
module Cond = E.Cond
module Phase = Varan_obs.Profile

type 'a tap = {
  tap_publish : seq:int -> 'a -> unit;
  tap_consume : cid:int -> seq:int -> 'a -> unit;
}

type stats = {
  publishes : int;
  consumes : int;
  producer_stalls : int;
  consumer_stalls : int;
  publish_wakeups : int;
  consume_wakeups : int;
  gate_recomputes : int;
}

type listener = { on_publish : unit -> unit; on_poke : unit -> unit }

type 'a t = {
  rname : string;
  slots : 'a option array;
  mutable head : int; (* next sequence number to publish *)
  (* O(1) consumer registry, keyed by cid. Slots of departed consumers are
     [None]; the array only ever grows (cids are never reused). *)
  mutable registry : 'a consumer option array;
  mutable next_cid : int;
  mutable nactive : int;
  (* Gating sequence (Disruptor-style): a conservative lower bound on the
     minimum consumer cursor. The producer checks fullness against this
     cache and folds over the registry only when the cached gate is
     actually reached, so consumer progress costs the producer nothing
     until the ring really wraps onto the slowest cursor. *)
  mutable gate : int;
  not_empty : Cond.cond;
  not_full : Cond.cond;
  activity : Cond.cond;
  mutable n_publishes : int;
  mutable n_consumes : int;
  mutable n_producer_stalls : int;
  mutable n_consumer_stalls : int;
  mutable n_publish_wakeups : int;
  mutable n_consume_wakeups : int;
  mutable n_gate_recomputes : int;
  mutable tap : 'a tap option;
  (* Called each time the producer parks because the ring is full, with
     the cids whose cursors sit on the gating sequence — who the producer
     is actually waiting for. The lifecycle oracle uses it to prove the
     leader never blocks on a quarantined consumer. *)
  mutable stall_hook : (int list -> unit) option;
  mutable listeners : listener list;  (* in registration order *)
}

and 'a consumer = {
  c_ring : 'a t;
  cid : int;
  mutable cursor : int;
  mutable active : bool;
}

let create ?(size = 256) rname =
  if size < 1 then invalid_arg "Ring.create: size must be positive";
  {
    rname;
    slots = Array.make size None;
    head = 0;
    registry = Array.make 4 None;
    next_cid = 0;
    nactive = 0;
    gate = 0;
    not_empty = Cond.create (rname ^ "-not-empty");
    not_full = Cond.create (rname ^ "-not-full");
    activity = Cond.create (rname ^ "-activity");
    n_publishes = 0;
    n_consumes = 0;
    n_producer_stalls = 0;
    n_consumer_stalls = 0;
    n_publish_wakeups = 0;
    n_consume_wakeups = 0;
    n_gate_recomputes = 0;
    tap = None;
    stall_hook = None;
    listeners = [];
  }

let set_tap t tap = t.tap <- tap
let set_stall_hook t hook = t.stall_hook <- hook

(* ------------------------------------------------------------------ *)
(* Consumer registry                                                   *)
(* ------------------------------------------------------------------ *)

let subscribe t =
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  if cid >= Array.length t.registry then begin
    let bigger = Array.make (2 * Array.length t.registry) None in
    Array.blit t.registry 0 bigger 0 (Array.length t.registry);
    t.registry <- bigger
  end;
  let c = { c_ring = t; cid; cursor = t.head; active = true } in
  t.registry.(cid) <- Some c;
  t.nactive <- t.nactive + 1;
  (* A new cursor starts at [head >= gate], so the cached gate stays a
     valid lower bound. *)
  c

let consumer_cid c = c.cid

let unsubscribe c =
  let t = c.c_ring in
  if c.active then begin
    c.active <- false;
    t.registry.(c.cid) <- None;
    t.nactive <- t.nactive - 1;
    (* The departed consumer may have been the one holding the ring full. *)
    Cond.broadcast_if_waiting t.not_full
  end

let active_consumers t = t.nactive

let listen c l = c.c_ring.listeners <- c.c_ring.listeners @ [ l ]

let unlisten c l =
  c.c_ring.listeners <- List.filter (( != ) l) c.c_ring.listeners

(* ------------------------------------------------------------------ *)
(* Gating                                                              *)
(* ------------------------------------------------------------------ *)

let recompute_gate t =
  t.n_gate_recomputes <- t.n_gate_recomputes + 1;
  let m = ref t.head in
  Array.iter
    (function
      | Some c -> if c.active && c.cursor < !m then m := c.cursor
      | None -> ())
    t.registry;
  t.gate <- !m

let is_full t =
  t.head - t.gate >= Array.length t.slots
  && begin
       recompute_gate t;
       t.head - t.gate >= Array.length t.slots
     end

(* Sequence slots available for publishing with no further gate check. At
   least 1 whenever [is_full t] just returned false. *)
let available t = Array.length t.slots - (t.head - t.gate)

(* Active consumers whose cursor equals the current minimum — the ones a
   full ring is actually gated on. Recomputes the gate so the answer is
   exact even between producer checks. *)
let gating_cids t =
  recompute_gate t;
  if t.head - t.gate < Array.length t.slots then []
  else
    Array.fold_left
      (fun acc c ->
        match c with
        | Some c when c.active && c.cursor = t.gate -> c.cid :: acc
        | _ -> acc)
      [] t.registry
    |> List.rev

(* One producer park: count it and report who is holding the gate. *)
let producer_stall t =
  t.n_producer_stalls <- t.n_producer_stalls + 1;
  if !Varan_obs.Trace.enabled then
    Varan_obs.Trace.instant ~ts:(E.now_cycles ())
      ~tid:(E.self () :> int)
      (t.rname ^ ".full");
  match t.stall_hook with
  | Some hook -> hook (gating_cids t)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Publish                                                             *)
(* ------------------------------------------------------------------ *)

let wake_consumers t =
  if Cond.has_waiters t.not_empty || Cond.has_waiters t.activity then begin
    t.n_publish_wakeups <- t.n_publish_wakeups + 1;
    Cond.broadcast_if_waiting t.not_empty;
    Cond.broadcast_if_waiting t.activity
  end;
  List.iter (fun l -> l.on_publish ()) t.listeners

(* Write one slot without waking anyone: batch paths wake once per run. *)
let publish_slot t v =
  (* Slots behind every consumer are dead; overwriting implements the
     paper's immediate deallocation of consumed events. *)
  let seq = t.head in
  t.slots.(seq mod Array.length t.slots) <- Some v;
  t.head <- seq + 1;
  t.n_publishes <- t.n_publishes + 1;
  match t.tap with Some tp -> tp.tap_publish ~seq v | None -> ()

let publish_now t v =
  publish_slot t v;
  wake_consumers t

(* Park until the gate opens, attributing the stalled vtime to the
   ring-gate phase (leader blocked behind its slowest consumer). The
   attribution wrapper only engages once the ring is actually full, so
   the uncontended publish path is untouched. *)
let wait_not_full t =
  if is_full t then begin
    let prev = E.enter_phase Phase.ring_gate in
    while is_full t do
      producer_stall t;
      Cond.wait t.not_full
    done;
    E.leave_phase prev
  end

let publish t v =
  wait_not_full t;
  publish_now t v

let publish_k t make =
  wait_not_full t;
  (* No effects between the space check and the slot write: the claimed
     sequence number and the caller's timestamp stay in order. *)
  publish_now t (make ())

let try_publish t v =
  if is_full t then begin
    t.n_producer_stalls <- t.n_producer_stalls + 1;
    false
  end
  else begin
    publish_now t v;
    true
  end

let publish_batch t vs =
  let n = Array.length vs in
  let i = ref 0 in
  while !i < n do
    wait_not_full t;
    (* Claim the longest run the gate allows with this one check, write
       every slot, then wake consumers once for the whole run. *)
    let take = min (available t) (n - !i) in
    for j = !i to !i + take - 1 do
      publish_slot t vs.(j)
    done;
    i := !i + take;
    wake_consumers t
  done

(* ------------------------------------------------------------------ *)
(* Consume                                                             *)
(* ------------------------------------------------------------------ *)

(* A consume opens producer space only if this cursor sat on the gate
   itself; anyone stalled behind [wait_activity] still needs the head
   advance (sibling-thread ordering in the NVX layer relies on it). *)
let wake_after_consume t ~was_gating =
  if
    (was_gating && Cond.has_waiters t.not_full) || Cond.has_waiters t.activity
  then begin
    t.n_consume_wakeups <- t.n_consume_wakeups + 1;
    if was_gating then Cond.broadcast_if_waiting t.not_full;
    Cond.broadcast_if_waiting t.activity
  end

let consume_slot t c =
  let seq = c.cursor in
  match t.slots.(seq mod Array.length t.slots) with
  | None -> assert false
  | Some v ->
    c.cursor <- seq + 1;
    t.n_consumes <- t.n_consumes + 1;
    (match t.tap with
    | Some tp -> tp.tap_consume ~cid:c.cid ~seq v
    | None -> ());
    v

let consume_now t c =
  let was_gating = c.cursor = t.gate in
  let v = consume_slot t c in
  wake_after_consume t ~was_gating;
  v

(* Park until events arrive, attributing the stalled vtime to the
   ring-wait phase (follower ahead of its leader). *)
let wait_not_empty t c =
  if c.cursor >= t.head then begin
    let prev = E.enter_phase Phase.ring_wait in
    while c.cursor >= t.head do
      t.n_consumer_stalls <- t.n_consumer_stalls + 1;
      Cond.wait t.not_empty
    done;
    E.leave_phase prev
  end

let consume_h c =
  let t = c.c_ring in
  wait_not_empty t c;
  consume_now t c

let try_consume_h c =
  let t = c.c_ring in
  if c.cursor >= t.head then begin
    t.n_consumer_stalls <- t.n_consumer_stalls + 1;
    None
  end
  else Some (consume_now t c)

let consume_batch_h c ~max =
  if max < 1 then invalid_arg "Ring.consume_batch_h: max must be positive";
  let t = c.c_ring in
  wait_not_empty t c;
  (* Drain the run with one gate check and one wakeup at the end. *)
  let was_gating = c.cursor = t.gate in
  let run = min max (t.head - c.cursor) in
  let out = List.init run (fun _ -> consume_slot t c) in
  wake_after_consume t ~was_gating;
  out

let try_consume_batch_h c ~max =
  let t = c.c_ring in
  if c.cursor >= t.head then []
  else begin
    let was_gating = c.cursor = t.gate in
    let run = min max (t.head - c.cursor) in
    let out = List.init run (fun _ -> consume_slot t c) in
    wake_after_consume t ~was_gating;
    out
  end

let peek_h c =
  let t = c.c_ring in
  if c.cursor >= t.head then None
  else t.slots.(c.cursor mod Array.length t.slots)

let lag_h c = c.c_ring.head - c.cursor
let cursor_h c = c.cursor

let unread_h c =
  let t = c.c_ring in
  let len = Array.length t.slots in
  let rec go seq acc =
    if seq >= t.head then List.rev acc
    else
      go (seq + 1)
        (match t.slots.(seq mod len) with
        | Some v -> v :: acc
        | None -> acc)
  in
  go c.cursor []

let published t = t.head

let stats t =
  {
    publishes = t.n_publishes;
    consumes = t.n_consumes;
    producer_stalls = t.n_producer_stalls;
    consumer_stalls = t.n_consumer_stalls;
    publish_wakeups = t.n_publish_wakeups;
    consume_wakeups = t.n_consume_wakeups;
    gate_recomputes = t.n_gate_recomputes;
  }

let capacity t = Array.length t.slots
let wait_activity t = Cond.wait t.activity
let wait_publish t = Cond.wait t.not_empty
let wait_publish_timeout t cycles = Cond.wait_timeout t.not_empty cycles
let wait_activity_timeout t cycles = Cond.wait_timeout t.activity cycles

let poke t =
  Cond.broadcast_if_waiting t.not_empty;
  Cond.broadcast_if_waiting t.not_full;
  Cond.broadcast_if_waiting t.activity;
  List.iter (fun l -> l.on_poke ()) t.listeners
