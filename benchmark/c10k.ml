(* The paper's Figure 5 grid as a closed loop: the five C10k servers,
   each natively and under VARAN with 0 to 6 followers, with the
   catalog's own client counts. The seed jitters every client's think
   time between requests (same mean), so the request interleavings, and
   with them every latency, depend on it. *)

module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Cost = Varan_cycles.Cost
module Session = Varan_nvx.Session
module Clients = Varan_workloads.Clients
module Driver = Varan_workloads.Driver
module Workload = Varan_workloads.Workload
module Catalog = Varan_workloads.Catalog
module Floatbuf = Varan_util.Floatbuf
module Stats = Varan_util.Stats
module Profile = Varan_obs.Profile

let max_followers = 6

(* Think time becomes half the catalog's plus a seeded draw from
   [0, think]; [on_request] sees every request before it is timed. The
   draws are keyed by [server], not by run, so the native run and every
   follower count of one server see the same think times and only the
   monitor differs between them. *)
let seeded (w : Workload.t) ~seed ~server ~on_request =
  let load = w.Workload.load in
  let think = load.Clients.think_cycles in
  {
    w with
    Workload.load =
      {
        load with
        Clients.think_cycles = think / 2;
        request_of =
          (fun ~conn ~seq ->
            on_request ();
            E.consume (Hashtbl.hash (seed, server, conn, seq) mod (think + 1));
            load.Clients.request_of ~conn ~seq);
      };
  }

let expected_requests (w : Workload.t) =
  let l = w.Workload.load in
  l.Clients.connections * (l.Clients.requests_per_conn - l.Clients.warmup_requests)

(* The same machine [Driver.run] builds for an NVX cell (the client one
   microsecond away), kept open so the benchmark can read the session,
   the engine and the samples. *)
let nvx_cell ~traced (w : Workload.t) ~followers =
  let eng = E.create () in
  let k = K.create ~link_latency:3_500 eng in
  w.Workload.setup_fs k;
  let session =
    Spans.span "Session.launch" (fun () ->
        Session.launch k
          (List.init (followers + 1) (fun i ->
               Workload.fresh_variant w (Printf.sprintf "%s.v%d" w.Workload.w_name i))))
  in
  if traced then
    E.add_ticker eng ~period:20_000 (fun () ->
        Session.observe_lags session;
        true);
  let result =
    Clients.launch k ~cost:(K.cost k) ~port_of:(Workload.port_of_conn w) w.Workload.load
  in
  Spans.span "Engine.run_until_quiescent" (fun () -> E.run_until_quiescent eng);
  Session.observe_lags session;
  (eng, session, result)

let geomean xs = exp (Stats.mean (List.map log xs))

let run ~traced rep ~seed =
  let t0 = Spans.now_ns () in
  let lat = Floatbuf.create () in
  let overheads = ref [] and tputs = ref [] and errors = ref [] in
  let engines = ref [] and sessions = ref [] and caches = ref [] in
  let results = ref [] and run_s = ref 0.0 in
  List.iteri
    (fun wi (base : Workload.t) ->
      let paper = List.assoc base.Workload.w_name Paper.fig5 in
      (* Runs one cell of the grid on the seeded workload and records
         its set-up time: from the start to the first client request. *)
      let run_cell f =
        let start = Spans.now_ns () and first = ref 0.0 in
        let w =
          seeded base ~seed ~server:wi ~on_request:(fun () ->
              if !first = 0.0 then first := Spans.seconds_since start)
        in
        let x = f w in
        Job.host rep "setup_s" !first;
        x
      in
      let expected = expected_requests base in
      let native =
        Spans.span ("c10k " ^ base.Workload.w_name ^ " native") (fun () ->
            run_cell (fun w -> Driver.run w Driver.Native))
      in
      Job.count rep ~attempted:expected
        ~failed:(native.Driver.errors + max 0 (expected - native.Driver.requests));
      Job.check rep
        (native.Driver.errors = 0 && native.Driver.requests = expected)
        "%s native: %d of %d requests, %d errors" base.Workload.w_name
        native.Driver.requests expected native.Driver.errors;
      for followers = 0 to max_followers do
        Profile.enabled := traced;
        let r0 = Spans.now_ns () in
        let eng, session, res =
          Spans.span
            (Printf.sprintf "c10k %s %df" base.Workload.w_name followers)
            (fun () -> run_cell (nvx_cell ~traced ~followers))
        in
        run_s := !run_s +. Spans.seconds_since r0;
        Profile.enabled := false;
        let tput = Clients.throughput_rps Cost.default res in
        let ov = native.Driver.throughput_rps /. tput in
        Floatbuf.iter (Floatbuf.push lat) res.Clients.lat;
        overheads := ov :: !overheads;
        tputs := tput :: !tputs;
        errors := Float.abs (ov -. paper.(followers)) :: !errors;
        Job.count rep ~attempted:expected
          ~failed:(res.Clients.errors + max 0 (expected - res.Clients.completed));
        Job.check rep
          (res.Clients.errors = 0
          && res.Clients.completed = expected
          && Session.crash_count session = 0)
          "%s %df: %d of %d requests, %d errors, %d crashes" base.Workload.w_name
          followers res.Clients.completed expected res.Clients.errors
          (Session.crash_count session);
        if traced then begin
          engines := eng :: !engines;
          sessions := session :: !sessions;
          caches := (Session.stats session).Session.rewrite_cache :: !caches;
          results := res :: !results
        end
      done)
    Catalog.c10k_servers;
  let s = Option.get (Floatbuf.summary lat) in
  Job.virt rep "p50_us" s.Stats.median;
  Job.virt rep "p99_us" s.p99;
  Job.virt rep "p999_us" s.p999;
  Job.virt rep "capacity_rps" (geomean !tputs);
  Job.virt rep "nvx_overhead" (geomean !overheads);
  Job.virt rep "paper_mae" (Stats.mean !errors);
  Job.host rep "wall_s" (Spans.seconds_since t0);
  if traced then begin
    let completed = Layers.sum (fun r -> r.Clients.completed) !results in
    Job.layer rep "cost.paper_mae" (Stats.mean !errors);
    Layers.sessions rep !sessions ~caches:!caches;
    Layers.engine rep ~engines:!engines ~run_s:!run_s ~sessions:!sessions;
    Layers.clients rep ~completed ~errors:(Layers.sum (fun r -> r.Clients.errors) !results);
    Layers.profile rep ~engines:!engines ~ops:(float_of_int completed);
    Layers.gc rep ~ops:(float_of_int completed)
  end
