module E = Varan_sim.Engine
module Types = Varan_kernel.Types
module Flight = Varan_obs.Flight

(* Sharded serving layer: N independent monitor sessions — each with its
   own ring(s), lifecycle watchdog and tape — behind a sticky-hash
   connection router, all sharing one spawn hub (zygote + rewrite cache)
   so variant spawn cost is paid once for the whole pool.

   Everything per-shard is genuinely per-shard: a quarantined follower,
   a degraded session or a blown restart budget on shard 3 never gates a
   sibling — the only coupling is the health feed into the router, which
   drains a degraded shard's connections to survivors. *)

type shard = { sh_id : int; sh_session : Session.t }

type t = {
  shards : shard array;
  hub : Session.shared_spawn;
  router : Router.t;
  eng : E.t;
  mutable degraded_seen : bool array; (* health edge already reported *)
}

(* A shard is routable while its session still runs N-version execution
   (not degraded to native leader-only). A degraded session keeps
   serving its native leader, but the router prefers full-monitor
   siblings — that is the rebalancing the lifecycle isolation buys. *)
let shard_healthy sh = Session.degraded sh.sh_session = None

let refresh_health t =
  Array.iter
    (fun sh ->
      let up = shard_healthy sh in
      if (not up) && not t.degraded_seen.(sh.sh_id) then begin
        t.degraded_seen.(sh.sh_id) <- true;
        (* Pool-level view of the same edge: the shard's black box gets
           the moment the router stopped sending it fresh connections. *)
        Flight.record
          (Session.flight sh.sh_session)
          ~at:(E.now t.eng) "shard.drained"
          (Printf.sprintf "shard %d marked down, connections draining"
             sh.sh_id)
      end;
      if Router.healthy t.router sh.sh_id <> up then begin
        Router.set_healthy t.router sh.sh_id up;
        if not up then ignore (Router.rebalance t.router)
      end)
    t.shards

(* Router health-sync ticker period, cycles. *)
let health_period = 20_000

let launch ?config ?(router_seed = 0) k ~shards ~variants_of =
  if shards < 1 then invalid_arg "Shard.launch: shards";
  let hub = Session.shared_spawn () in
  let pool =
    Array.init shards (fun i ->
        let session =
          Session.launch ?config
            ~scope:(Printf.sprintf "shard%d" i) ~shared:hub k (variants_of i)
        in
        { sh_id = i; sh_session = session })
  in
  let t =
    {
      shards = pool;
      hub;
      router = Router.create ~seed:router_seed ~shards ();
      eng = k.Types.eng;
      degraded_seen = Array.make shards false;
    }
  in
  (* Health rides the engine tick, like the per-session watchdogs: sync
     session degradation into the router and drain eagerly on the edge. *)
  E.add_ticker k.Types.eng ~period:health_period (fun () ->
      refresh_health t;
      true);
  t

let count t = Array.length t.shards
let session t i = t.shards.(i).sh_session
let router t = t.router
let hub t = t.hub

let route t ~conn = Router.route t.router ~conn

let degraded t =
  Array.to_list t.shards
  |> List.filter_map (fun sh ->
         match Session.degraded sh.sh_session with
         | None -> None
         | Some reason -> Some (sh.sh_id, reason))

let zygote_forks t =
  match Session.shared_zygote t.hub with
  | None -> 0
  | Some z -> Zygote.forks_served z
