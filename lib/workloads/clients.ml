open Varan_kernel
module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Errno = Varan_syscall.Errno
module Cost = Varan_cycles.Cost
module Floatbuf = Varan_util.Floatbuf
module Stats = Varan_util.Stats
module Prng = Varan_util.Prng
module Phase = Varan_obs.Profile

type load = {
  connections : int;
  requests_per_conn : int;
  request_of : conn:int -> seq:int -> Bytes.t;
  think_cycles : int;
  warmup_requests : int;
}

type result = {
  mutable completed : int;
  mutable errors : int;
  lat : Floatbuf.t;
  mutable first_send : int64;
  mutable last_reply : int64;
  mutable conns_done : int;
}

let fresh_result () =
  {
    completed = 0;
    errors = 0;
    lat = Floatbuf.create ();
    first_send = Int64.max_int;
    last_reply = 0L;
    conns_done = 0;
  }

let latencies_us r = Floatbuf.to_list r.lat
let latency_count r = Floatbuf.length r.lat
let latency_summary r = Floatbuf.summary r.lat

let rec connect_retry api fd port attempts =
  match Api.connect api fd port with
  | Ok () -> Ok ()
  | Error Errno.ECONNREFUSED when attempts > 0 ->
    E.sleep 5_000;
    connect_retry api fd port (attempts - 1)
  | Error e -> Error e

(* Dial-until-listening while the server boots: idle time from the
   client's point of view, and a large one at scale — every worker spins
   here for the whole variant-launch window. The phase is pinned, so
   the retry sleeps AND the failed-connect attempt costs, the entire
   dial window, land in [client_idle]. *)
let dial api fd port attempts =
  let prev = E.enter_phase (Phase.pinned Phase.client_idle) in
  let r = connect_retry api fd port attempts in
  E.leave_phase prev;
  r

let launch k ~cost ~port_of load =
  let r = fresh_result () in
  for conn = 0 to load.connections - 1 do
    let proc = K.new_proc k (Printf.sprintf "client%d" conn) in
    let tid =
      E.spawn (Varan_kernel.Kernel.engine k) ~name:(Printf.sprintf "client%d" conn)
        (fun () ->
          let api = Api.direct k proc in
          match Api.socket api with
          | Error _ -> r.errors <- r.errors + 1
          | Ok fd -> (
            match dial api fd (port_of conn) 2000 with
            | Error _ -> r.errors <- r.errors + 1
            | Ok () ->
              for seq = 0 to load.requests_per_conn - 1 do
                let counted = seq >= load.warmup_requests in
                let request = load.request_of ~conn ~seq in
                let t0 = E.now_cycles () in
                if counted && t0 < r.first_send then r.first_send <- t0;
                (match Proto.send_msg api fd request with
                | Error _ -> r.errors <- r.errors + 1
                | Ok () -> (
                  match Proto.recv_msg api fd with
                  | Ok (Some _reply) ->
                    let t1 = E.now_cycles () in
                    if counted then begin
                      if t1 > r.last_reply then r.last_reply <- t1;
                      r.completed <- r.completed + 1;
                      Floatbuf.push r.lat
                        (Cost.cycles_to_us cost (Int64.sub t1 t0))
                    end
                  | Ok None | Error _ -> r.errors <- r.errors + 1));
                if load.think_cycles > 0 then E.consume load.think_cycles
              done;
              ignore (Api.close api fd);
              r.conns_done <- r.conns_done + 1))
    in
    K.register_task k proc tid
  done;
  r

let duration_cycles r =
  if r.last_reply <= r.first_send then 0L else Int64.sub r.last_reply r.first_send

let throughput_rps cost r =
  let cycles = Int64.to_float (duration_cycles r) in
  if cycles <= 0.0 then 0.0
  else float_of_int r.completed /. (cycles /. (cost.Cost.cpu_ghz *. 1e9))

let mean_latency_us r =
  if Floatbuf.is_empty r.lat then 0.0
  else Floatbuf.fold ( +. ) 0.0 r.lat /. float_of_int (Floatbuf.length r.lat)

(* ------------------------------------------------------------------ *)
(* Open-loop generator                                                 *)
(* ------------------------------------------------------------------ *)

type open_load = {
  ol_clients : int;
  ol_requests : int;
  ol_mean_gap_cycles : float;
  ol_request_of : client:int -> seq:int -> Bytes.t;
  ol_seed : int;
  ol_workers : int;
  ol_warmup : int;
  ol_preconnect : int list;
}

(* Open-loop load (the closed loop above is wrk; this is the Poisson
   arrival process of a serving benchmark): request arrival times come
   from an exponential inter-arrival draw and advance regardless of
   completions, so latency includes the queueing delay a real client
   would see — closed loops hide exactly that (coordinated omission).

   Millions of simulated clients multiplex over [ol_workers] engine
   tasks. Workers share one arrival schedule: each draw hands out the
   next (seq, client, arrival-time) triple, so the schedule is a single
   Poisson process regardless of worker count, and each worker holds one
   connection per distinct port it ever dials (client identity maps to a
   port via [port_of], normally through the shard router).

   Latency for request i is [completion_i - scheduled_arrival_i]: if the
   system falls behind, the backlog shows up in the tail percentiles
   rather than silently stretching the arrival process. *)
let launch_open k ~cost ~port_of load =
  if load.ol_workers < 1 then invalid_arg "Clients.launch_open: workers";
  if load.ol_clients < 1 then invalid_arg "Clients.launch_open: clients";
  let r = fresh_result () in
  let rng = Prng.create load.ol_seed in
  let issued = ref 0 in
  let arrival = ref 0.0 in
  (* One shared schedule: whichever worker is free draws the next
     arrival. The engine is deterministic, so the draw order (and thus
     the whole run) is a pure function of the seed. *)
  let draw () =
    if !issued >= load.ol_requests then None
    else begin
      let seq = !issued in
      incr issued;
      arrival := !arrival +. Prng.exponential rng load.ol_mean_gap_cycles;
      let client = Prng.int rng load.ol_clients in
      Some (seq, client, Int64.of_float !arrival)
    end
  in
  (* Schedule epoch: arrivals are offsets from launch time. [E.now] works
     outside task context (launch_open is called before the engine runs). *)
  let base = E.now (K.engine k) in
  for w = 0 to load.ol_workers - 1 do
    let proc = K.new_proc k (Printf.sprintf "olworker%d" w) in
    let tid =
      E.spawn (K.engine k) ~name:(Printf.sprintf "olworker%d" w) (fun () ->
          let api = Api.direct k proc in
          let conns = Hashtbl.create 8 in
          let conn_to port =
            match Hashtbl.find_opt conns port with
            | Some fd -> Some fd
            | None -> (
              match Api.socket api with
              | Error _ -> None
              | Ok fd -> (
                match dial api fd port 2000 with
                | Error _ -> None
                | Ok () ->
                  Hashtbl.replace conns port fd;
                  Some fd))
          in
          (* Dial the known ports up front: servers size their
             expected-connection count to the worker pool, so the
             connection universe is fixed before the first request and
             rerouting mid-run reuses a live connection instead of
             dialing one. *)
          List.iter (fun port -> ignore (conn_to port)) load.ol_preconnect;
          let rec pump () =
            match draw () with
            | None ->
              (* Close in port order: the FINs reach the servers in
                 this order, so it must not depend on hash order. *)
              Hashtbl.fold (fun port fd acc -> (port, fd) :: acc) conns []
              |> List.sort compare
              |> List.iter (fun (_, fd) -> ignore (Api.close api fd));
              r.conns_done <- r.conns_done + 1
            | Some (seq, client, at) ->
              let counted = seq >= load.ol_warmup in
              let at = Int64.add base at in
              let now = E.now_cycles () in
              if at > now then begin
                (* Ahead of schedule: waiting for the next Poisson
                   arrival is idle time, not service time. *)
                let prev = E.enter_phase Phase.client_idle in
                E.sleep (Int64.to_int (Int64.sub at now));
                E.leave_phase prev
              end
              else if !Phase.enabled then
                Phase.note_backlog (Int64.sub now at);
              let port = port_of client in
              (match conn_to port with
              | None -> r.errors <- r.errors + 1
              | Some fd ->
                (* The whole send-to-reply window is [client_wait]; the
                   pin folds the kernel blocks inside send/recv into it
                   instead of splitting them out. *)
                let prev = E.enter_phase (Phase.pinned Phase.client_wait) in
                let t0 = E.now_cycles () in
                if counted && t0 < r.first_send then r.first_send <- t0;
                (match
                   Proto.send_msg api fd (load.ol_request_of ~client ~seq)
                 with
                | Error _ -> r.errors <- r.errors + 1
                | Ok () -> (
                  match Proto.recv_msg api fd with
                  | Ok (Some _reply) ->
                    let t1 = E.now_cycles () in
                    if counted then begin
                      if t1 > r.last_reply then r.last_reply <- t1;
                      r.completed <- r.completed + 1;
                      (* Open-loop latency: from the scheduled arrival,
                         not from the send — queueing delay counts. *)
                      Floatbuf.push r.lat
                        (Cost.cycles_to_us cost (Int64.sub t1 at))
                    end
                  | Ok None | Error _ -> r.errors <- r.errors + 1));
                E.leave_phase prev);
              pump ()
          in
          pump ())
    in
    K.register_task k proc tid
  done;
  r
