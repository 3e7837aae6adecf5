(* Per-shard flight recorder.

   A small ring of recent noteworthy events (ring stalls, publishes of
   interest, bridge epochs, watchdog verdicts), the full lifecycle
   transition history, the last known bridge/link state and the newest
   checkpoint position — always on, overwrite-oldest, a few field
   stores per note. When something goes wrong (the oracle flags
   divergence, a follower is quarantined or killed, a session degrades)
   the whole thing is dumped as a self-contained post-mortem JSON
   bundle, rr-style: enough context to localize the failure without
   rerunning the workload.

   Each session creates and owns its recorder, named by the session's
   scope ("shard3", or "" for an unscoped session), so a sharded
   deployment gets one black box per shard and no run inherits another's
   history. *)

type entry = {
  ev_at : int64; (* engine vtime, cycles *)
  ev_lamport : int;
  ev_tag : string; (* short machine-greppable category, e.g. "ring.stall" *)
  ev_detail : string;
}

type transition = {
  tr_at : int64;
  tr_idx : int; (* variant index *)
  tr_from : string;
  tr_to : string;
  tr_reason : string;
}

type t = {
  fl_scope : string;
  ring : entry array;
  mutable total : int; (* events ever recorded; slot = total mod capacity *)
  mutable transitions : transition list; (* reversed *)
  mutable n_transitions : int;
  mutable link : string; (* last reported bridge/link state *)
  mutable checkpoint_seq : int; (* newest checkpoint seq; -1 = none *)
}

let dummy = { ev_at = 0L; ev_lamport = 0; ev_tag = ""; ev_detail = "" }

(* Transition history is complete up to this bound; a session whose
   followers flap thousands of times keeps the newest window. *)
let max_transitions = 512

(* Events kept in the ring. *)
let capacity = 64

let create scope =
  {
    fl_scope = scope;
    ring = Array.make capacity dummy;
    total = 0;
    transitions = [];
    n_transitions = 0;
    link = "";
    checkpoint_seq = -1;
  }

let record t ~at ?(lamport = 0) tag detail =
  t.ring.(t.total mod capacity) <-
    { ev_at = at; ev_lamport = lamport; ev_tag = tag; ev_detail = detail };
  t.total <- t.total + 1

let transition t ~at ~idx ~from_ ~to_ ~reason =
  t.transitions <-
    { tr_at = at; tr_idx = idx; tr_from = from_; tr_to = to_;
      tr_reason = reason }
    :: (if t.n_transitions >= max_transitions then
          List.filteri (fun i _ -> i < max_transitions - 1) t.transitions
        else t.transitions);
  t.n_transitions <- min (t.n_transitions + 1) max_transitions

let set_link t state = t.link <- state
let note_checkpoint t seq = if seq > t.checkpoint_seq then t.checkpoint_seq <- seq
let checkpoint_seq t = t.checkpoint_seq

(* Newest-last window of the event ring. *)
let entries t =
  let n = min t.total capacity in
  List.init n (fun i -> t.ring.((t.total - n + i) mod capacity))

let transitions t = List.rev t.transitions

(* ------------------------------------------------------------------ *)
(* Post-mortem bundles                                                 *)
(* ------------------------------------------------------------------ *)

(* Dumps are opt-in: torture sweeps quarantine followers on purpose
   hundreds of times per run, and only the harness knows which deaths
   are unexpected. Directed tests and `varan serve/run` arm this flag
   (or call [dump] themselves, pull-style). *)
let dump_enabled = ref false
let dump_dir = ref "."
let serial = ref 0

(* Every bundle path written, newest first. *)
let dumps : string list ref = ref []

(* [counters] is the owner's own tallies, under unscoped names: the
   bundle already names its scope. *)
let dump t ~at ~reason ~counters =
  incr serial;
  let scope_part = if t.fl_scope = "" then "session" else t.fl_scope in
  let path =
    Filename.concat !dump_dir
      (Printf.sprintf "postmortem-%s-%d.json" scope_part !serial)
  in
  let oc = open_out path in
  let esc = Trace.json_escape in
  Printf.fprintf oc "{\n  \"scope\": \"%s\",\n  \"reason\": \"%s\",\n"
    (esc t.fl_scope) (esc reason);
  Printf.fprintf oc "  \"at\": %Ld,\n" at;
  Printf.fprintf oc "  \"events_recorded\": %d,\n" t.total;
  Printf.fprintf oc "  \"checkpoint_seq\": %d,\n" t.checkpoint_seq;
  Printf.fprintf oc "  \"link\": \"%s\",\n" (esc t.link);
  output_string oc "  \"events\": [\n";
  let es = entries t in
  let n = List.length es in
  List.iteri
    (fun i e ->
      Printf.fprintf oc
        "    {\"at\": %Ld, \"lamport\": %d, \"tag\": \"%s\", \"detail\": \
         \"%s\"}%s\n"
        e.ev_at e.ev_lamport (esc e.ev_tag) (esc e.ev_detail)
        (if i = n - 1 then "" else ","))
    es;
  output_string oc "  ],\n  \"transitions\": [\n";
  let trs = transitions t in
  let n = List.length trs in
  List.iteri
    (fun i tr ->
      Printf.fprintf oc
        "    {\"at\": %Ld, \"idx\": %d, \"from\": \"%s\", \"to\": \"%s\", \
         \"reason\": \"%s\"}%s\n"
        tr.tr_at tr.tr_idx (esc tr.tr_from) (esc tr.tr_to) (esc tr.tr_reason)
        (if i = n - 1 then "" else ","))
    trs;
  output_string oc "  ],\n  \"counters\": {\n";
  let n = List.length counters in
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "    \"%s\": %d%s\n" (esc name) v
        (if i = n - 1 then "" else ","))
    counters;
  output_string oc "  }\n}\n";
  close_out oc;
  dumps := path :: !dumps;
  path

let maybe_dump t ~at ~reason ~counters =
  if !dump_enabled then Some (dump t ~at ~reason ~counters) else None
