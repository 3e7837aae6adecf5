module E = Varan_sim.Engine
module Ring = Varan_ringbuf.Ring
module Event = Varan_ringbuf.Event
module Lanes = Varan_ringbuf.Lanes
module Sysno = Varan_syscall.Sysno
module Cost = Varan_cycles.Cost
module Phase = Varan_obs.Profile

(* The consumer handle is resolved once, at subscription, so the
   per-event accessors are field reads: no registry lookup, no mode
   dispatch. Tape catch-up serves [\[pos, until)] from the tape before
   the live consumer, whose cursor waits at the splice sequence [until];
   [until] is -1 once live, so [pos < until] is the whole catch-up test.
   Tape indices coincide with stream sequence numbers: the tape records
   every published event from sequence 0. *)
type t = {
  ring : Event.t Ring.t;
  c : Event.t Ring.consumer;
  base : int;
  upstream : Event.t Ring.t option;
  tape : Tape.t option;
  mutable pos : int;
  mutable until : int;
  (* Tuple 0 of a multi-threaded variant only: forked tuples are process
     children with a single unit each, so head-serialization costs them
     nothing. *)
  mutable lanes : Lanes.t option;
}

let subscribe ?tape ?(base = 0) ?upstream ring =
  {
    ring;
    c = Ring.subscribe ring;
    base;
    upstream;
    tape;
    pos = 0;
    until = -1;
    lanes = None;
  }

let cid s = Ring.consumer_cid s.c
let remote s = match s.upstream with Some _ -> true | None -> false
let in_catchup s = s.pos < s.until

let peek s ~tid =
  if s.pos < s.until then Some (Tape.get (Option.get s.tape) s.pos)
  else
    match s.lanes with
    | None -> Ring.peek_h s.c
    | Some ln -> Lanes.peek ln ~tid

let advance s ~tid =
  if s.pos < s.until then begin
    s.pos <- s.pos + 1;
    let spliced = s.pos >= s.until in
    if spliced then s.until <- -1;
    (* Tape progress is invisible to the ring, but sibling units of this
       variant park on ring activity while waiting for their tid to reach
       the head — wake them. *)
    Ring.poke s.ring;
    spliced
  end
  else begin
    (match s.lanes with
    | Some ln -> Lanes.advance ln ~tid
    | None -> ignore (Ring.try_consume_h s.c));
    false
  end

let demuxed s = match s.lanes with Some _ -> true | None -> false
let position s = if s.pos < s.until then s.pos else s.base + Ring.cursor_h s.c

let lag s =
  (* Routed-but-unreplayed lane events have passed the ring cursor but
     are still this follower's backlog. *)
  let live =
    match s.lanes with
    | Some ln -> Ring.lag_h s.c + Lanes.outstanding ln
    | None -> Ring.lag_h s.c
  in
  if s.pos < s.until then live + (s.until - s.pos) else live

let total_lag s =
  match s.upstream with
  | None -> lag s
  | Some up -> max (lag s) (Ring.published up - position s)

(* Every wait parks the follower until events (or a poke) arrive: that
   park is the ring-wait phase of the cycle attribution, charged here
   because followers wait on ring activity or on their lane, not in the
   ring's own consume stall loop. *)
let wait s ~tid =
  let prev = E.enter_phase Phase.ring_wait in
  (match s.lanes with
  | Some ln -> Lanes.wait ln ~tid
  | None -> Ring.wait_activity s.ring);
  E.leave_phase prev

let spin s ~tid window =
  let prev = E.enter_phase Phase.ring_wait in
  let r =
    match s.lanes with
    | Some ln -> Lanes.spin ln ~tid window
    | None -> Ring.wait_activity_timeout s.ring window
  in
  E.leave_phase prev;
  r

let wait_siblings s ~tid =
  match s.lanes with
  | Some ln when Lanes.outstanding ln > 0 ->
    let prev = E.enter_phase Phase.ring_wait in
    Lanes.wait_drained ln ~tid;
    E.leave_phase prev;
    true
  | _ -> false

let catch_up s ~from =
  if s.tape = None then invalid_arg "Stream.catch_up: no tape";
  let head = position s in
  if head > from then begin
    s.pos <- from;
    s.until <- head
  end

let end_catchup s = s.until <- -1

(* A futex is ordered per lock word, a close per descriptor (keys
   complemented to stay apart from lock words). Fork, exit, signals and
   grants reshape the variant or allocate descriptors: barriers. *)
let lane_order (e : Event.t) =
  if e.Event.kind <> Event.Ev_syscall || e.Event.grant <> None
     || Array.length e.Event.args = 0
  then Lanes.Global
  else if e.Event.sysno = Sysno.to_int Sysno.Futex then
    Lanes.Key e.Event.args.(0)
  else if e.Event.sysno = Sysno.to_int Sysno.Close then
    Lanes.Key (lnot e.Event.args.(0))
  else Lanes.Free

let demux s ~capacity ~on_route =
  s.lanes <-
    Some (Lanes.create ~consumer:s.c ~classify:lane_order ~capacity ~on_route)

let lane_stats s = Option.map Lanes.stats s.lanes

let drop_lanes s ~release =
  match s.lanes with
  | Some ln ->
    List.iter release (Lanes.drain ln);
    s.lanes <- None
  | None -> ()

let unsubscribe s = Ring.unsubscribe s.c

let remove s ~release =
  (* Lane events already passed the ring cursor, so [Ring.unread_h]
     cannot see them: release their payloads from the lanes first. *)
  drop_lanes s ~release;
  List.iter release (Ring.unread_h s.c);
  Ring.unsubscribe s.c

type pump = Event.t Ring.t array array (* per tuple, per variant *)

let pump_create ~size ~tuples ~variants =
  Array.init tuples (fun tu ->
      Array.init variants (fun v ->
          Ring.create ~size (Printf.sprintf "pump%d.%d" tu v)))

let pump_queue (p : pump) ~tuple ~idx = p.(tuple).(idx)
let pump_poke (p : pump) ~idx = Array.iter (fun q -> Ring.poke q.(idx)) p
let pump_poke_all (p : pump) = Array.iter (Array.iter Ring.poke) p

let pump_spawn (p : pump) eng ~tuple ~source ~cost ~live =
  let queues = p.(tuple) in
  ignore
    (E.spawn eng ~name:(Printf.sprintf "event-pump%d" tuple) (fun () ->
         (* Drain the leader's queue in runs: a lagging pump catches up
            with one gate check and one wakeup per batch instead of per
            event. Per-event costs are still charged. *)
         let rec loop () =
           let batch = Array.of_list (Ring.consume_batch_h source ~max:64) in
           let n = Array.length batch in
           E.consume (cost.Cost.consume_event * n);
           Array.iteri
             (fun idx q ->
               if live idx then begin
                 E.consume (cost.Cost.publish_event * n);
                 Ring.publish_batch q batch
               end)
             queues;
           loop ()
         in
         loop ()))
