(* Per-tid event lanes: one ring consumer demultiplexed into per-thread
   FIFO queues with per-key order (see lanes.mli). *)

module E = Varan_sim.Engine
module Cond = E.Cond

type order = Free | Key of int | Global
type entry = { ev : Event.t; order : order }
type lane = { q : entry Queue.t; ready : Cond.cond }

type t = {
  consumer : Event.t Ring.consumer;
  classify : Event.t -> order;
  on_route : Event.t -> unit;
  capacity : int;  (* max routed-but-unconsumed events *)
  mutable lanes : lane array;  (* indexed by tid, grown on demand *)
  keys : (int, entry Queue.t) Hashtbl.t;  (* unconsumed entries per key *)
  mutable outstanding : int;
  mutable barrier : bool;  (* a routed global event is unconsumed *)
  mutable failed : exn option;  (* [on_route]'s, raised at the next peek *)
  mutable last_publish : int;
  drained : Cond.cond;
  listener : Ring.listener;
  mutable routed : int;
  mutable order_waits : int;
  mutable max_depth : int;
}

type stats = { routed : int; order_waits : int; max_depth : int }

let new_lane _ = { q = Queue.create (); ready = Cond.create "lane" }

let lane t tid =
  if tid < 0 then invalid_arg "Lanes: negative tid";
  let n = Array.length t.lanes in
  if tid >= n then begin
    let n' = ref (n * 2) in
    while tid >= !n' do n' := !n' * 2 done;
    t.lanes <-
      Array.init !n' (fun i -> if i < n then t.lanes.(i) else new_lane i)
  end;
  t.lanes.(tid)

let consumable t en =
  match en.order with
  | Free | Global -> true
  | Key k -> Queue.peek (Hashtbl.find t.keys k) == en

(* [drained] waiters have an empty lane of their own: tell them too. *)
let signal t ln =
  Cond.broadcast_if_waiting ln.ready;
  Cond.broadcast_if_waiting t.drained

let wake_all t = Array.iter (signal t) t.lanes

let route t ev order =
  let ln = lane t ev.Event.tid in
  let en = { ev; order } in
  Queue.push en ln.q;
  (match order with
  | Key k ->
    if not (Hashtbl.mem t.keys k) then Hashtbl.add t.keys k (Queue.create ());
    let kq = Hashtbl.find t.keys k in
    if not (Queue.is_empty kq) then t.order_waits <- t.order_waits + 1;
    Queue.push en kq
  | Global -> t.barrier <- true
  | Free -> ());
  t.outstanding <- t.outstanding + 1;
  t.routed <- t.routed + 1;
  t.max_depth <- max t.max_depth (Queue.length ln.q);
  (* The hook's failure is the follower's, not this publisher's. *)
  match t.on_route ev with
  | () -> if Queue.length ln.q = 1 && consumable t en then signal t ln
  | exception exn ->
    t.failed <- Some exn;
    wake_all t

let rec pump t =
  if Option.is_none t.failed && (not t.barrier) && t.outstanding < t.capacity
  then
    match Ring.peek_h t.consumer with
    | None -> ()
    | Some ev -> (
      match t.classify ev with
      | Global when t.outstanding > 0 -> t.order_waits <- t.order_waits + 1
      | order ->
        ignore (Ring.try_consume_h t.consumer);
        route t ev order;
        pump t)

let create ~consumer ~classify ~on_route ~capacity =
  if capacity < 1 then invalid_arg "Lanes.create: capacity < 1";
  let rec t =
    {
      consumer;
      classify;
      on_route;
      capacity;
      lanes = Array.init 8 new_lane;
      keys = Hashtbl.create 16;
      outstanding = 0;
      barrier = false;
      failed = None;
      last_publish = 0;
      drained = Cond.create "lanes-drained";
      listener =
        {
          Ring.on_publish =
            (fun () ->
              t.last_publish <- Int64.to_int (E.now_cycles ());
              pump t);
          on_poke = (fun () -> wake_all t);
        };
      routed = 0;
      order_waits = 0;
      max_depth = 0;
    }
  in
  Ring.listen consumer t.listener;
  t

let peek t ~tid =
  Option.iter raise t.failed;
  match Queue.peek_opt (lane t tid).q with
  | Some en when consumable t en -> Some en.ev
  | _ -> None

let advance t ~tid =
  let en =
    try Queue.pop (lane t tid).q
    with Queue.Empty -> invalid_arg "Lanes.advance: empty lane"
  in
  (* Routing resumes when the barrier lifts, the lanes drop below
     capacity or they empty (a held global event gets through). *)
  let unblocks = t.outstanding >= t.capacity || t.outstanding = 1 in
  t.outstanding <- t.outstanding - 1;
  let lifted =
    match en.order with
    | Key k ->
      let kq = Hashtbl.find t.keys k in
      ignore (Queue.pop kq);
      Option.iter
        (fun next ->
          let nl = t.lanes.(next.ev.Event.tid) in
          if Queue.peek nl.q == next then signal t nl)
        (Queue.peek_opt kq);
      false
    | Global ->
      t.barrier <- false;
      true
    | Free -> false
  in
  if unblocks || lifted then pump t;
  if t.outstanding = 0 then Cond.broadcast_if_waiting t.drained

let wait t ~tid = Cond.wait (lane t tid).ready

let spin t ~tid window =
  let ready = (lane t tid).ready in
  let start = Int64.to_int (E.now_cycles ()) in
  let rec go () =
    let now = Int64.to_int (E.now_cycles ()) in
    let left = max start t.last_publish + window - now in
    left > 0 && (Cond.wait_timeout ready left || go ())
  in
  go ()

let wait_drained t ~tid =
  let ln = lane t tid in
  Cond.wait (if Queue.is_empty ln.q then t.drained else ln.ready)

let outstanding t = t.outstanding

let drain t =
  Ring.unlisten t.consumer t.listener;
  (* Units parked on a lane must see that the stream is going away. *)
  wake_all t;
  List.rev
    (Array.fold_left
       (fun acc ln -> Queue.fold (fun acc en -> en.ev :: acc) acc ln.q)
       [] t.lanes)

let stats (t : t) =
  { routed = t.routed; order_waits = t.order_waits; max_depth = t.max_depth }
