module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Cost = Varan_cycles.Cost
module Config = Varan_nvx.Config
module Variant = Varan_nvx.Variant
module Lifecycle = Varan_nvx.Lifecycle
module Shard = Varan_nvx.Shard
module Router = Varan_nvx.Router
module Session = Varan_nvx.Session
module Rewrite_cache = Varan_binary.Rewrite_cache

(* The sharded serving scenario: N monitor shards (one NVX session each,
   memcached-style multi-unit server inside) behind the sticky router,
   driven by the open-loop Poisson generator. One simulated machine runs
   everything — shards genuinely overlap in virtual time, so measured
   req/s is the pool's capacity, and driving the arrival rate above the
   largest pool's saturation point makes throughput-vs-shard-count a
   capacity curve rather than an echo of the offered load. *)

type spec = {
  sv_shards : int;
  sv_followers : int; (* per shard *)
  sv_units : int; (* server units (threads) per shard *)
  sv_work_cycles : int; (* per-command server work *)
  sv_clients : int; (* distinct simulated client identities *)
  sv_requests : int; (* total open-loop arrivals *)
  sv_mean_gap_cycles : float; (* Poisson inter-arrival mean *)
  sv_workers : int; (* client tasks multiplexing the ids *)
  sv_warmup : int; (* arrivals excluded from stats *)
  sv_seed : int;
  sv_policy : Lifecycle.policy option; (* per-shard watchdog policy *)
}

(* The default watchdog is tuned for torture runs (quarantine at 64
   events of lag); a saturated serving shard legitimately runs its
   followers deep behind the leader, so the serving default keeps the
   watchdog alive but backs its thresholds far away from the operating
   point — shards degrade on real deaths, not on honest backlog. *)
let serving_policy =
  {
    Lifecycle.default_policy with
    Lifecycle.lag_threshold = 1_000_000;
    stall_timeout = 50_000_000;
  }

let default =
  {
    sv_shards = 1;
    sv_followers = 1;
    sv_units = 2;
    sv_work_cycles = 9_000;
    sv_clients = 1_000_000;
    sv_requests = 4_000;
    sv_mean_gap_cycles = 200.0;
    sv_workers = 48;
    sv_warmup = 200;
    sv_seed = 424_242;
    sv_policy = Some serving_policy;
  }

type outcome = {
  o_measurement : Driver.measurement;
  o_result : Clients.result;
  o_router : Router.stats;
  o_degraded : (int * string) list;
  o_zygote_forks : int; (* served by the one shared zygote *)
  o_rewrite_cache : Rewrite_cache.stats; (* shared across shards *)
  o_total_task_cycles : int64; (* profile coverage denominator *)
}

(* Shard port bases are spread so each shard's units own a disjoint port
   range on the one simulated machine. *)
let port_base i = 9_300 + (i * 32)

let variants_of spec shard =
  let cfg =
    {
      Cache_server.port = port_base shard;
      units = spec.sv_units;
      work_cycles = spec.sv_work_cycles;
      expected_conns = spec.sv_workers;
    }
  in
  (* Identical profile (and code seed) across shards on purpose: every
     shard's image hashes alike, so the shared rewrite cache rewrites
     once and serves the other (shards*(followers+1) - 1) spawns by
     rebase. *)
  let profile =
    { Variant.code_bytes = 10_000; syscall_share = 0.01; code_seed = 13 }
  in
  List.init
    (spec.sv_followers + 1)
    (fun j ->
      Variant.make ~profile ~mem_intensity_c1000:70
        (Printf.sprintf "shard%d.cache.v%d" shard j)
        {
          Variant.units = spec.sv_units;
          unit_kind = Variant.Thread;
          body = Cache_server.make_body cfg ();
        })

let value = Bytes.make 256 'v'

let request_of ~client ~seq =
  let key = Printf.sprintf "key-%d" (client mod 4096) in
  if seq mod 10 = 0 then Cache_server.set_cmd key value
  else Cache_server.get_cmd key

let run ?(label = "serving") spec =
  if spec.sv_shards < 1 then invalid_arg "Serving.run: shards";
  let eng = E.create () in
  let k = K.create ~link_latency:3_500 eng in
  let cost = K.cost k in
  let config =
    { Config.default with Config.lifecycle = spec.sv_policy }
  in
  let pool =
    Shard.launch ~config ~router_seed:spec.sv_seed k ~shards:spec.sv_shards
      ~variants_of:(variants_of spec)
  in
  let port_of client =
    let s = Shard.route pool ~conn:client in
    port_base s + (client mod spec.sv_units)
  in
  let preconnect =
    List.concat_map
      (fun s ->
        List.init spec.sv_units (fun u -> port_base s + u))
      (List.init spec.sv_shards Fun.id)
  in
  let result =
    Clients.launch_open k ~cost ~port_of
      {
        Clients.ol_clients = spec.sv_clients;
        ol_requests = spec.sv_requests;
        ol_mean_gap_cycles = spec.sv_mean_gap_cycles;
        ol_request_of = request_of;
        ol_seed = spec.sv_seed;
        ol_workers = spec.sv_workers;
        ol_warmup = spec.sv_warmup;
        ol_preconnect = preconnect;
      }
  in
  (* Liveness bound, not a deadline: a healthy run quiesces long before
     this; a routing or termination bug trips Cycle_budget instead of
     hanging the bench. *)
  E.run_until_quiescent ~cycle_budget:20_000_000_000L eng;
  {
    o_measurement = Driver.measurement_of_result label cost result;
    o_result = result;
    o_router = Router.stats (Shard.router pool);
    o_degraded = Shard.degraded pool;
    o_zygote_forks = Shard.zygote_forks pool;
    o_rewrite_cache =
      Rewrite_cache.stats (Session.shared_cache (Shard.hub pool));
    o_total_task_cycles = E.total_task_cycles eng;
  }
