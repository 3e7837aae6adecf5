(* Connection-routing front layer for the sharded serving stack.

   Routing is sticky consistent hashing over shard indices: a fresh
   connection hashes to its primary shard and keeps that assignment for
   life — replaying a connection's events on one ring requires every
   request of the connection to reach the same session. The only thing
   that moves an assignment is shard health: when a shard is marked
   degraded, its connections drain to the first healthy shard along the
   probe sequence (deterministically — no RNG at route time), and fresh
   connections whose primary is degraded skip it the same way. *)

type t = {
  n : int;
  seed : int;
  healthy : bool array;
  assign : (int, int) Hashtbl.t; (* conn -> shard, sticky *)
  per_shard : int array; (* live assignments per shard *)
  mutable c_routed : int;
  mutable c_assigned : int;
  mutable c_drained : int;
}

type stats = {
  routed : int; (* route calls, total *)
  assigned : int; (* distinct connections ever assigned *)
  drained : int; (* sticky assignments moved off a degraded shard *)
  per_shard : int array;
}

let create ?(seed = 0) ~shards () =
  if shards < 1 then invalid_arg "Router.create: shards";
  {
    n = shards;
    seed;
    healthy = Array.make shards true;
    assign = Hashtbl.create 1024;
    per_shard = Array.make shards 0;
    c_routed = 0;
    c_assigned = 0;
    c_drained = 0;
  }

let healthy t s = t.healthy.(s)

(* Deterministic integer mix (fmix-style): route decisions must depend
   only on (conn, seed), never on arrival order. *)
let hash t conn =
  let h = ref (conn lxor (t.seed * 0x9E3779B9)) in
  h := !h lxor (!h lsr 16);
  h := !h * 0x85ebca6b;
  h := !h lxor (!h lsr 13);
  h := !h * 0xc2b2ae35;
  h := !h lxor (!h lsr 16);
  (!h land max_int) mod t.n

(* Primary shard, skipping degraded ones along the probe sequence. With
   every shard degraded the primary is returned anyway — the caller will
   observe the failure; inventing a different wrong answer helps nobody. *)
let pick t conn =
  let h = hash t conn in
  if t.healthy.(h) then h
  else begin
    let rec probe i =
      if i >= t.n then h
      else
        let s = (h + i) mod t.n in
        if t.healthy.(s) then s else probe (i + 1)
    in
    probe 1
  end

let route t ~conn =
  t.c_routed <- t.c_routed + 1;
  match Hashtbl.find_opt t.assign conn with
  | Some s when t.healthy.(s) -> s
  | prev ->
    let target = pick t conn in
    (match prev with
    | Some old ->
      t.per_shard.(old) <- t.per_shard.(old) - 1;
      t.c_drained <- t.c_drained + 1
    | None -> t.c_assigned <- t.c_assigned + 1);
    Hashtbl.replace t.assign conn target;
    t.per_shard.(target) <- t.per_shard.(target) + 1;
    target

let set_healthy t s up =
  if s < 0 || s >= t.n then invalid_arg "Router.set_healthy";
  t.healthy.(s) <- up

(* Eagerly move every sticky assignment off degraded shards (route does
   it lazily per connection; the shard layer calls this when a watchdog
   declares a shard down so the move shows up in stats at once). Returns
   the number of connections moved. The fold's order does not matter:
   [route] re-homes a connection from the connection and the shard
   health alone, so any order gives the same assignments and counts. *)
let rebalance t =
  let stale =
    Hashtbl.fold
      (fun conn s acc -> if t.healthy.(s) then acc else conn :: acc)
      t.assign []
  in
  List.iter (fun conn -> ignore (route t ~conn)) stale;
  List.length stale

let stats t =
  {
    routed = t.c_routed;
    assigned = t.c_assigned;
    drained = t.c_drained;
    per_shard = Array.copy t.per_shard;
  }
