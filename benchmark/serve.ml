(* The two open-loop serving workloads: a pool of monitor shards behind
   the sticky router, each shard running the memcached-style cache
   server under N-version execution, driven by Poisson arrivals from a
   million client ids. Composed from [Shard.launch] and
   [Clients.launch_open] rather than [Serving.run], which exposes neither
   the request mix nor remote followers. *)

module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Cost = Varan_cycles.Cost
module Config = Varan_nvx.Config
module Variant = Varan_nvx.Variant
module Session = Varan_nvx.Session
module Shard = Varan_nvx.Shard
module Router = Varan_nvx.Router
module Clients = Varan_workloads.Clients
module Serving = Varan_workloads.Serving
module Cache_server = Varan_workloads.Cache_server
module Floatbuf = Varan_util.Floatbuf
module Profile = Varan_obs.Profile

type spec = {
  followers : int;  (** per shard *)
  remote : int;  (** of those, how many replay behind the ring bridge *)
  set_every : int;  (** one set per [set_every] requests, gets otherwise *)
  value_bytes : int;
  rate : float;  (** offered load of the fixed-rate run, req/s *)
  arrivals : int;  (** of the fixed-rate run *)
  probe_arrivals : int;  (** of each capacity probe *)
}

let shards = 4
let units = 2
let workers = 48
let clients = 1_000_000
let keys = 4096
let work_cycles = 9_000

(* Arrivals left out of every run's statistics. The remote followers'
   start-up disturbs the first ~1,500 arrivals of a replicated pool. *)
let warmup = 3_000

(* The capacity search: the highest offered rate whose p99 stays within
   the latency limit while the pool keeps up with the arrivals. A probe's
   realised arrival rate is within ~1.5% of the offered one, so keeping
   up means 95% of it. *)
let p99_limit_us = 200.0
let keep_up = 0.95
let probes = 7
let rate_lo = 0.25e6
let rate_hi = 2.0e6

let read =
  {
    followers = 1;
    remote = 0;
    set_every = 10;
    value_bytes = 256;
    rate = 1.0e6;
    arrivals = 60_000;
    probe_arrivals = 13_000;
  }

let replicated_write =
  {
    followers = 3;
    remote = 2;
    set_every = 2;
    value_bytes = 2048;
    rate = 0.8e6;
    arrivals = 38_000;
    probe_arrivals = 8_000;
  }

let cycles_per_s = Cost.default.Cost.cpu_ghz *. 1e9

(* Every worker preconnects to every unit's port, so each unit serves
   [workers] connections; the server splits [expected_conns] across its
   units and exits after that many closes, so a smaller count would
   leave the last in-flight requests unanswered. *)
let server_config shard =
  {
    Cache_server.port = Serving.port_base shard;
    units;
    work_cycles;
    expected_conns = workers * units;
  }

(* One image for every variant of every shard, as in [Serving]: the
   shared rewrite cache rewrites it once and rebases the rest. *)
let variants_of spec shard =
  let profile =
    { Variant.code_bytes = 10_000; syscall_share = 0.01; code_seed = 13 }
  in
  List.init (spec.followers + 1) (fun j ->
      Variant.make ~profile ~mem_intensity_c1000:70
        (Printf.sprintf "shard%d.cache.v%d" shard j)
        {
          Variant.units;
          unit_kind = Variant.Thread;
          body = Cache_server.make_body (server_config shard) ();
        })

let config spec =
  {
    Config.default with
    Config.lifecycle = Some Serving.serving_policy;
    net =
      (if spec.remote = 0 then None
       else Some { Config.default_net with Config.remote_followers = spec.remote });
  }

(* The seed draws the whole load: the Poisson schedule and the client
   ids (in [run]) and the key each client reads and writes. *)
let request_of spec ~seed =
  let value = Bytes.make spec.value_bytes 'v' in
  fun ~client ~seq ->
    let key = Printf.sprintf "key-%d" (Hashtbl.hash (seed, client) mod keys) in
    if seq mod spec.set_every = 0 then Cache_server.set_cmd key value
    else Cache_server.get_cmd key

(* Per-call host cost of [Shard.route], measured only in traced runs. *)
let route_ns = ref 0L
let route_calls = ref 0

type run = {
  result : Clients.result;
  arrivals : int;
  pool : Shard.t option;  (** [None] for the native baseline *)
  eng : E.t;
  setup_s : float;
  wall_s : float;
  run_s : float;  (** host seconds inside the engine loop *)
}

(* One open-loop run at [rate] req/s; [native] starts the same servers
   without a monitor, behind a router of its own. *)
let run ?(native = false) ?(traced = false) spec ~seed ~rate ~arrivals =
  let t0 = Spans.now_ns () in
  let first_request = ref 0.0 in
  let eng, k =
    Spans.span "machine build" (fun () ->
        let eng = E.create () in
        (eng, K.create ~link_latency:3_500 eng))
  in
  let pool, route =
    if native then begin
      let router = Router.create ~shards () in
      for s = 0 to shards - 1 do
        let proc = K.new_proc k (Printf.sprintf "native%d" s) in
        let body = Cache_server.make_body (server_config s) () in
        for u = 0 to units - 1 do
          let tid =
            E.spawn eng ~name:(Printf.sprintf "native%d.unit%d" s u) (fun () ->
                try body ~unit_idx:u (Api.direct k proc) with E.Killed -> ())
          in
          K.register_task k proc tid
        done
      done;
      (None, fun client -> Router.route router ~conn:client)
    end
    else
      let pool =
        Spans.span "Shard.launch" (fun () ->
            Shard.launch ~config:(config spec) k ~shards
              ~variants_of:(variants_of spec))
      in
      if traced then
        E.add_ticker eng ~period:20_000 (fun () ->
            for s = 0 to shards - 1 do
              Session.observe_lags (Shard.session pool s)
            done;
            true);
      (Some pool, fun client -> Shard.route pool ~conn:client)
  in
  let port_of client =
    let shard =
      if traced then begin
        let t = Spans.now_ns () in
        let s = route client in
        route_ns := Int64.add !route_ns (Int64.sub (Spans.now_ns ()) t);
        incr route_calls;
        s
      end
      else route client
    in
    Serving.port_base shard + (client mod units)
  in
  let mix = request_of spec ~seed in
  let request_of ~client ~seq =
    if !first_request = 0.0 then first_request := Spans.seconds_since t0;
    mix ~client ~seq
  in
  let result =
    Clients.launch_open k ~cost:(K.cost k) ~port_of
      {
        Clients.ol_clients = clients;
        ol_requests = arrivals;
        ol_mean_gap_cycles = cycles_per_s /. rate;
        ol_request_of = request_of;
        ol_seed = seed;
        ol_workers = workers;
        ol_warmup = warmup;
        ol_preconnect =
          List.concat
            (List.init shards (fun s ->
                 List.init units (fun u -> Serving.port_base s + u)));
      }
  in
  let r0 = Spans.now_ns () in
  Spans.span "Engine.run_until_quiescent" (fun () ->
      E.run_until_quiescent ~cycle_budget:20_000_000_000L eng);
  {
    result;
    arrivals;
    pool;
    eng;
    setup_s = !first_request;
    wall_s = Spans.seconds_since t0;
    run_s = Spans.seconds_since r0;
  }

let summary r =
  match Floatbuf.summary r.result.Clients.lat with
  | Some s -> s
  | None -> failwith "no request completed"

let achieved r = Clients.throughput_rps Cost.default r.result

(* Output checks: every counted request answered without error, no
   shard degraded or lost a variant, and the one shared zygote forked
   every variant. *)
let check rep spec r =
  let res = r.result in
  let expected = r.arrivals - warmup in
  Job.count rep ~attempted:expected
    ~failed:(res.Clients.errors + max 0 (expected - res.Clients.completed));
  Job.check rep (res.Clients.errors = 0) "%d client errors" res.Clients.errors;
  Job.check rep
    (res.Clients.completed = expected)
    "completed %d of %d requests" res.Clients.completed expected;
  match r.pool with
  | None -> ()
  | Some pool ->
    Job.check rep (Shard.degraded pool = []) "%d shards degraded"
      (List.length (Shard.degraded pool));
    let forks = shards * (spec.followers + 1) in
    Job.check rep
      (Shard.zygote_forks pool = forks)
      "zygote forked %d variants, expected %d" (Shard.zygote_forks pool) forks;
    for s = 0 to shards - 1 do
      let ses = Shard.session pool s in
      Job.check rep
        (Session.crash_count ses = 0 && Session.alive_count ses = spec.followers + 1)
        "shard %d: %d crashes, %d variants alive" s (Session.crash_count ses)
        (Session.alive_count ses)
    done

(* The fixed-rate run: latency percentiles, host costs, and in a traced
   job every layer's counters. *)
let fixed ~traced rep spec ~seed =
  Profile.enabled := traced;
  let r = run ~traced spec ~seed ~rate:spec.rate ~arrivals:spec.arrivals in
  Profile.enabled := false;
  check rep spec r;
  let s = summary r in
  Job.virt rep "p50_us" s.Varan_util.Stats.median;
  Job.virt rep "p99_us" s.p99;
  Job.virt rep "p999_us" s.p999;
  Job.host rep "wall_s" r.wall_s;
  Job.host rep "setup_s" r.setup_s;
  if traced then begin
    let pool = Option.get r.pool in
    let sessions = List.init shards (Shard.session pool) in
    let cache = Varan_binary.Rewrite_cache.stats (Session.shared_cache (Shard.hub pool)) in
    Layers.sessions rep sessions ~caches:[ cache ];
    Layers.engine rep ~engines:[ r.eng ] ~run_s:r.run_s ~sessions;
    let rs = Router.stats (Shard.router pool) in
    Job.layer rep "router.route_ns"
      (Int64.to_float !route_ns /. float_of_int (max 1 !route_calls));
    Job.layer rep "router.routes" (float_of_int rs.Router.routed);
    Job.layer rep "router.assigned" (float_of_int rs.Router.assigned);
    Job.layer rep "router.max_share"
      (float_of_int (Array.fold_left max 0 rs.Router.per_shard)
      /. float_of_int (max 1 rs.Router.assigned));
    Job.layer rep "router.drained" (float_of_int rs.Router.drained);
    Layers.clients rep ~completed:r.result.Clients.completed
      ~errors:r.result.Clients.errors;
    let ops = float_of_int r.result.Clients.completed in
    Layers.profile rep ~engines:[ r.eng ] ~ops;
    Layers.gc rep ~ops
  end

(* The native baseline and the capacity search: virtual results that
   need runs of their own. Each run's set-up time is one more sample. *)
let extra rep spec ~seed =
  let nvx = run spec ~seed ~rate:spec.rate ~arrivals:spec.probe_arrivals in
  let nat = run ~native:true spec ~seed ~rate:spec.rate ~arrivals:spec.probe_arrivals in
  List.iter (check rep spec) [ nvx; nat ];
  Job.host rep "setup_s" nvx.setup_s;
  Job.virt rep "nvx_overhead"
    (Clients.mean_latency_us nvx.result /. Clients.mean_latency_us nat.result);
  (* Bisect, then interpolate p99 across the final bracket to place the
     limit between its two rates. *)
  let lo = ref (rate_lo, None) and hi = ref (rate_hi, None) in
  for _ = 1 to probes do
    let mid = (fst !lo +. fst !hi) /. 2.0 in
    let r = run spec ~seed ~rate:mid ~arrivals:spec.probe_arrivals in
    check rep spec r;
    Job.host rep "setup_s" r.setup_s;
    let p99 = (summary r).p99 in
    if p99 <= p99_limit_us && achieved r >= keep_up *. mid then lo := (mid, Some p99)
    else hi := (mid, Some p99)
  done;
  let capacity =
    match (!lo, !hi) with
    | (l, Some pl), (h, Some ph) when ph > p99_limit_us ->
      l +. ((h -. l) *. (p99_limit_us -. pl) /. (ph -. pl))
    | (l, _), _ -> l
  in
  Job.virt rep "capacity_rps" capacity
