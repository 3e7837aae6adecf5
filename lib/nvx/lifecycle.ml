(* ------------------------------------------------------------------ *)
(* Policy                                                              *)
(* ------------------------------------------------------------------ *)

type policy = {
  lag_threshold : int;
  stall_timeout : int;
  max_restarts : int;
  backoff : int;
  min_followers : int;
  watchdog_period : int;
  checkpoint_interval : int;
}

let default_policy =
  {
    lag_threshold = 64;
    stall_timeout = 500_000;
    max_restarts = 2;
    backoff = 100_000;
    min_followers = 1;
    watchdog_period = 25_000;
    checkpoint_interval = 0;
  }

(* Exponential backoff before respawn attempt [restarts + 1]. Saturates
   instead of overflowing for absurd restart counts. *)
let backoff_delay policy ~restarts =
  let shift = min restarts 20 in
  policy.backoff * (1 lsl shift)

(* ------------------------------------------------------------------ *)
(* State machine                                                       *)
(* ------------------------------------------------------------------ *)

type state =
  | Healthy
  | Lagging
  | Quarantined
  | Respawning
  | Catching_up
  | Unreachable
  | Dead

let state_name = function
  | Healthy -> "healthy"
  | Lagging -> "lagging"
  | Quarantined -> "quarantined"
  | Respawning -> "respawning"
  | Catching_up -> "catching-up"
  | Unreachable -> "unreachable"
  | Dead -> "dead"

(* The legal transition graph:
     Healthy <-> Lagging
     Lagging -> Quarantined -> Respawning -> Catching_up -> Healthy
     Quarantined -> Dead (restart budget exhausted, or degraded cancel)
   plus the crash edges: a crash quarantines from Healthy or Catching_up
   directly (no lag preceded it), and a variant that crashes while
   leading goes terminal at once — a dead leader never rejoins.

   Unreachable is the link-degraded sibling of Quarantined: the follower
   itself is presumed fine but the node hosting it is partitioned away,
   so it parks without burning restart budget. It leaves through the
   same respawn door when the partition heals, or to Dead when its tape
   prefix was retired while it was away (clean [Truncated] death) or the
   session degraded in the meantime.
   Anything else is a lifecycle-manager bug and is recorded. *)
let legal_transition a b =
  match (a, b) with
  | Healthy, Lagging
  | Lagging, Healthy
  | (Healthy | Lagging | Catching_up), Quarantined
  | Quarantined, (Respawning | Dead)
  | Respawning, Catching_up
  | Catching_up, Healthy
  | (Healthy | Lagging | Catching_up), Unreachable
  | Unreachable, (Respawning | Dead)
  | (Healthy | Lagging | Catching_up), Dead -> true
  | _ -> false

type entry = {
  e_idx : int;
  mutable e_state : state;
  mutable e_restarts : int; (* respawns performed so far *)
  mutable e_last_cursor : int; (* tuple-0 cursor at the last progress *)
  mutable e_last_progress : int64; (* virtual time of the last progress *)
  mutable e_quarantine_seq : int; (* tuple-0 cursor when quarantined *)
  mutable e_respawn_due : int64; (* when the next respawn may fire *)
  mutable e_reason : string; (* why the follower left Healthy *)
}

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

type follower_report = {
  fr_idx : int;
  fr_state : state;
  fr_restarts : int;
  fr_reason : string;
}

type report = {
  followers : follower_report list; (* non-leader entries, by idx *)
  lagging : int;
  recovered : int;
  quarantines : int;
  respawns : int;
  rejoins : int;
  unreachable : int;
  deaths : int;
  illegal_transitions : int;
  degraded_reason : string option;
}

type t = {
  policy : policy;
  entries : entry array; (* indexed by variant idx; entry 0 unused while
                            variant 0 leads *)
  (* The transition counters, as a report whose [followers] and
     [degraded_reason] stay empty: {!report} fills those in. *)
  mutable totals : report;
  (* Observability tap: called on every state change, before the entry
     mutates, with the entry's current reason. The session wires this to
     its flight recorder; it must be effect-free (the watchdog invokes
     transitions from scheduler context). *)
  mutable on_transition :
    idx:int -> from_:string -> to_:string -> reason:string -> unit;
}

let create policy ~variants =
  {
    policy;
    entries =
      Array.init variants (fun i ->
          {
            e_idx = i;
            e_state = Healthy;
            e_restarts = 0;
            e_last_cursor = 0;
            e_last_progress = 0L;
            e_quarantine_seq = 0;
            e_respawn_due = 0L;
            e_reason = "";
          });
    totals =
      {
        followers = [];
        lagging = 0;
        recovered = 0;
        quarantines = 0;
        respawns = 0;
        rejoins = 0;
        unreachable = 0;
        deaths = 0;
        illegal_transitions = 0;
        degraded_reason = None;
      };
    on_transition = (fun ~idx:_ ~from_:_ ~to_:_ ~reason:_ -> ());
  }

let entry t idx = t.entries.(idx)
let state e = e.e_state
let policy t = t.policy
let set_on_transition t f = t.on_transition <- f

let transition t e next =
  t.on_transition ~idx:e.e_idx ~from_:(state_name e.e_state)
    ~to_:(state_name next) ~reason:e.e_reason;
  let c = t.totals in
  let c =
    if legal_transition e.e_state next then c
    else { c with illegal_transitions = c.illegal_transitions + 1 }
  in
  (t.totals <-
     match next with
     | Lagging -> { c with lagging = c.lagging + 1 }
     | Healthy when e.e_state = Lagging -> { c with recovered = c.recovered + 1 }
     | Healthy when e.e_state = Catching_up -> { c with rejoins = c.rejoins + 1 }
     | Healthy | Catching_up -> c
     | Quarantined -> { c with quarantines = c.quarantines + 1 }
     | Respawning -> { c with respawns = c.respawns + 1 }
     | Unreachable -> { c with unreachable = c.unreachable + 1 }
     | Dead -> { c with deaths = c.deaths + 1 });
  e.e_state <- next

(* Followers that are not permanently gone: anything short of [Dead]
   either consumes the stream or will after a respawn. The degradation
   test compares this count against [min_followers]. [Unreachable]
   followers don't count — a partition has no deadline, so a session
   whose reachable follower set falls below the floor runs local-only
   rather than betting on a heal. *)
let recoverable_followers t ~leader_idx =
  Array.fold_left
    (fun n e ->
      if e.e_idx <> leader_idx && e.e_state <> Dead && e.e_state <> Unreachable
      then n + 1
      else n)
    0 t.entries

let report t ~leader_idx ~degraded =
  {
    t.totals with
    followers =
      Array.to_list t.entries
      |> List.filter_map (fun e ->
             if e.e_idx = leader_idx then None
             else
               Some
                 {
                   fr_idx = e.e_idx;
                   fr_state = e.e_state;
                   fr_restarts = e.e_restarts;
                   fr_reason = e.e_reason;
                 });
    degraded_reason = degraded;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>lifecycle: quarantines=%d respawns=%d rejoins=%d unreachable=%d \
     deaths=%d lagging=%d recovered=%d%s@,"
    r.quarantines r.respawns r.rejoins r.unreachable r.deaths r.lagging
    r.recovered
    (if r.illegal_transitions > 0 then
       Printf.sprintf " ILLEGAL-TRANSITIONS=%d" r.illegal_transitions
     else "");
  (match r.degraded_reason with
  | Some reason -> Format.fprintf ppf "degraded to native: %s@," reason
  | None -> ());
  List.iter
    (fun fr ->
      Format.fprintf ppf "follower %d: %s (restarts=%d)%s@," fr.fr_idx
        (state_name fr.fr_state) fr.fr_restarts
        (if fr.fr_reason = "" then "" else " last reason: " ^ fr.fr_reason))
    r.followers;
  Format.fprintf ppf "@]"
