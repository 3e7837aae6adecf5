(* A thread grid without sockets: sibling threads take turns on a small
   set of contended futex locks, under a leader and two followers with
   the trace oracle attached, and once natively. Followers replay
   the leader's lock order through the per-thread event lanes, so the
   scheduler, the lanes and futex replay carry the run. *)

module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Cost = Varan_cycles.Cost
module Config = Varan_nvx.Config
module Variant = Varan_nvx.Variant
module Session = Varan_nvx.Session
module Oracle = Varan_trace.Oracle
module Floatbuf = Varan_util.Floatbuf
module Stats = Varan_util.Stats
module Profile = Varan_obs.Profile

let threads = 256
let locks = 16
let rounds = 16
let followers = 2

(* One variant's run: per-thread acquisition logs (equal logs mean the
   same global lock order), the completion time of its last thread, and
   the host time its first thread started. *)
type variant_run = {
  logs : Buffer.t array;
  mutable done_at : int64;
  mutable entered : float;
}

(* Every thread does [rounds] of lock, critical section, unlock, local
   work, on the locks [Catalog.thread_grid] assigns; the seed draws each
   critical section's length (150 to 250 cycles), so every seed keeps the
   same contention structure. [lat] collects lock-to-unlock round
   latencies in virtual µs. *)
let body ~seed ~t0 ~lat v ~unit_idx api =
  if v.entered = 0.0 then v.entered <- Spans.seconds_since t0;
  let b = v.logs.(unit_idx) in
  for r = 0 to rounds - 1 do
    let word = 0x1000 + ((unit_idx + r) mod locks) in
    let start = E.now_cycles () in
    let acq = Api.futex_lock api word in
    Api.compute api (150 + (Hashtbl.hash (seed, unit_idx, r) mod 101));
    ignore (Api.futex_unlock api word);
    Option.iter
      (fun l -> Floatbuf.push l (Cost.cycles_to_us Cost.default (Int64.sub (E.now_cycles ()) start)))
      lat;
    Buffer.add_string b (Printf.sprintf "%d:%d=%d;" r word acq);
    Api.compute api 100
  done;
  v.done_at <- max v.done_at (E.now_cycles ())

let fresh () =
  { logs = Array.init threads (fun _ -> Buffer.create 128); done_at = 0L; entered = 0.0 }

let digest v = Digest.string (String.concat "|" (Array.to_list (Array.map Buffer.contents v.logs)))

let makespan runs = Array.fold_left (fun a v -> max a v.done_at) 0L runs

let run ~traced rep ~seed =
  let t0 = Spans.now_ns () in
  let lat = Floatbuf.create () in
  let n = followers + 1 in
  let runs = Array.init n (fun _ -> fresh ()) in
  let oracle = Oracle.create () in
  Profile.enabled := traced;
  let eng = Spans.span "machine build" E.create in
  let k = K.create eng in
  let session =
    Spans.span "Session.launch" (fun () ->
        Session.launch
          ~config:{ Config.default with Config.oracle = Some oracle }
          k
          (List.init n (fun i ->
               Variant.make
                 ~profile:{ Variant.code_bytes = 6_000; syscall_share = 0.05; code_seed = 19 }
                 ~mem_intensity_c1000:10 (Printf.sprintf "grid.v%d" i)
                 {
                   Variant.units = threads;
                   unit_kind = Variant.Thread;
                   body = body ~seed ~t0 ~lat:(Some lat) runs.(i);
                 })))
  in
  if traced then
    E.add_ticker eng ~period:20_000 (fun () ->
        Session.observe_lags session;
        true);
  let r0 = Spans.now_ns () in
  Spans.span "Engine.run_until_quiescent" (fun () -> E.run_until_quiescent eng);
  let run_s = Spans.seconds_since r0 in
  Profile.enabled := false;
  let wall_s = Spans.seconds_since t0 in
  let native = fresh () in
  let neng = E.create () in
  let nk = K.create neng in
  let proc = K.new_proc nk "grid.native" in
  for u = 0 to threads - 1 do
    let tid =
      E.spawn neng ~name:(Printf.sprintf "grid.native.t%d" u) (fun () ->
          body ~seed ~t0 ~lat:None native ~unit_idx:u (Api.direct nk proc))
    in
    K.register_task nk proc tid
  done;
  Spans.span "native run" (fun () -> E.run_until_quiescent neng);
  (* Checks: the oracle saw a clean stream, no variant crashed, and every
     follower reproduced the leader's lock order thread by thread. *)
  let report = Oracle.report oracle in
  let leader = digest runs.(0) in
  let bad =
    List.filter
      (fun i -> (not (Session.is_alive session i)) || digest runs.(i) <> leader)
      (List.init n Fun.id)
  in
  let failed = if Oracle.ok report then List.length bad else n in
  Job.count rep ~attempted:n ~failed;
  Job.check rep (Oracle.ok report) "oracle: %s"
    (String.concat "; " report.Oracle.violations);
  Job.check rep (Session.crash_count session = 0) "%d variant crashes"
    (Session.crash_count session);
  Job.check rep (bad = []) "variants %s dead or off the leader's lock order"
    (String.concat "," (List.map string_of_int bad));
  Job.check rep
    (Floatbuf.length lat = n * threads * rounds)
    "completed %d of %d lock rounds" (Floatbuf.length lat) (n * threads * rounds);
  let nvx_span = Int64.to_float (makespan runs) in
  let s = Option.get (Floatbuf.summary lat) in
  Job.virt rep "p50_us" s.Stats.median;
  Job.virt rep "p99_us" s.p99;
  Job.virt rep "p999_us" s.p999;
  Job.virt rep "capacity_rps"
    (float_of_int (threads * rounds) /. (nvx_span /. (Cost.default.Cost.cpu_ghz *. 1e9)));
  Job.virt rep "nvx_overhead" (nvx_span /. Int64.to_float native.done_at);
  Job.host rep "wall_s" wall_s;
  Job.host rep "setup_s" (Array.fold_left (fun a v -> max a v.entered) 0.0 runs);
  if traced then begin
    Layers.sessions rep [ session ] ~caches:[ (Session.stats session).Session.rewrite_cache ];
    Layers.engine rep ~engines:[ eng ] ~run_s ~sessions:[ session ];
    Job.layer rep "oracle.events" (float_of_int report.Oracle.events);
    Job.layer rep "oracle.violations" (float_of_int (List.length report.Oracle.violations));
    let ops = float_of_int report.Oracle.events in
    Layers.profile rep ~engines:[ eng ] ~ops;
    Layers.gc rep ~ops
  end
