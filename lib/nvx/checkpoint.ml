module K = Varan_kernel.Kernel

(* Follower checkpoint store (rr-style fast rejoin).

   A checkpoint freezes everything a respawned follower needs to resume
   mid-stream instead of replaying its whole history: the follower's
   stream cursor and Lamport clock, its descriptor table (shared
   open-file descriptions by identity, like a grant), and the program's
   own resumable state as an opaque byte blob produced by the program's
   checkpoint hook. On quarantine, Lifecycle restores the nearest
   checkpoint at or below the splice point and replays only the tape
   delta [cp_seq, splice) — rejoin latency is bounded by the checkpoint
   interval, not by session length.

   The session owns the store, so snapshots outlive the incarnation
   they captured. It is content-addressed: program-state blobs are keyed
   by digest, so the common case — several followers (or successive
   incarnations of one) checkpointing identical deterministic state at
   the same stream position — stores one blob. *)

type snapshot = {
  cp_idx : int; (* variant the checkpoint was captured from *)
  cp_seq : int; (* tuple-0 stream cursor: next event to consume *)
  cp_clock : int; (* tuple-0 Lamport clock at capture *)
  cp_fds : K.fd_snapshot;
  cp_state : Bytes.t; (* opaque program state (checkpoint hook) *)
}

type stats = {
  taken : int;
  restores : int;
  delta_events : int; (* tape events replayed after restores, total *)
  dedup_hits : int; (* captures whose state blob was already stored *)
  resident_blobs : int;
  resident_bytes : int; (* deduplicated program-state bytes held *)
}

type blob = { b_bytes : Bytes.t; mutable b_refs : int }

(* Checkpoints retained per variant, newest first. *)
let keep = 4

type t = {
  by_variant : (int, snapshot list) Hashtbl.t;
  blobs : (string, blob) Hashtbl.t; (* digest -> shared state blob *)
  mutable c_taken : int;
  mutable c_restores : int;
  mutable c_delta : int;
  mutable c_dedup : int;
}

let create () =
  {
    by_variant = Hashtbl.create 8;
    blobs = Hashtbl.create 16;
    c_taken = 0;
    c_restores = 0;
    c_delta = 0;
    c_dedup = 0;
  }

let blob_unref t key =
  match Hashtbl.find_opt t.blobs key with
  | None -> ()
  | Some b ->
    b.b_refs <- b.b_refs - 1;
    if b.b_refs <= 0 then Hashtbl.remove t.blobs key

let blob_key state = Digest.to_hex (Digest.bytes state)

(* Intern the state blob: identical content is stored once. Returns the
   shared bytes (so the snapshot aliases the interned copy). *)
let intern t state =
  let key = blob_key state in
  (match Hashtbl.find_opt t.blobs key with
  | Some b ->
    b.b_refs <- b.b_refs + 1;
    t.c_dedup <- t.c_dedup + 1
  | None -> Hashtbl.replace t.blobs key { b_bytes = state; b_refs = 1 });
  (Hashtbl.find t.blobs key).b_bytes

let store t snap =
  let state = intern t snap.cp_state in
  let snap = { snap with cp_state = state } in
  let prev =
    Option.value ~default:[] (Hashtbl.find_opt t.by_variant snap.cp_idx)
  in
  (* Newest first; drop a same-seq predecessor (re-capture) and anything
     beyond the per-variant retention depth. *)
  let prev, stale = List.partition (fun s -> s.cp_seq <> snap.cp_seq) prev in
  let kept = List.filteri (fun i _ -> i < keep - 1) prev in
  let evicted = List.filteri (fun i _ -> i >= keep - 1) prev in
  List.iter
    (fun s -> blob_unref t (blob_key s.cp_state))
    (stale @ evicted);
  Hashtbl.replace t.by_variant snap.cp_idx (snap :: kept);
  t.c_taken <- t.c_taken + 1

let snapshots t ~idx =
  Option.value ~default:[] (Hashtbl.find_opt t.by_variant idx)

(* Nearest usable checkpoint: the newest one at or below [seq]. *)
let latest_at_most t ~idx ~seq =
  List.find_opt (fun s -> s.cp_seq <= seq) (snapshots t ~idx)

let latest_seq t ~idx =
  match snapshots t ~idx with [] -> None | s :: _ -> Some s.cp_seq

(* Nearest checkpoint at or below [seq] across every variant — the
   time-travel entry point doesn't care whose state it restores, the
   stream position fully determines it. Variants that tie on [cp_seq]
   go to the lowest index, so the answer is independent of the table's
   iteration order. *)
let nearest_any t ~seq =
  let beats s = function
    | None -> true
    | Some b ->
      s.cp_seq > b.cp_seq || (s.cp_seq = b.cp_seq && s.cp_idx < b.cp_idx)
  in
  Hashtbl.fold
    (fun _ snaps best ->
      List.fold_left
        (fun best s -> if s.cp_seq <= seq && beats s best then Some s else best)
        best snaps)
    t.by_variant None

let note_restore t ~delta =
  t.c_restores <- t.c_restores + 1;
  t.c_delta <- t.c_delta + delta

let stats t =
  let blobs = Hashtbl.length t.blobs in
  let bytes =
    (* A sum: order-free. *)
    Hashtbl.fold (fun _ b acc -> acc + Bytes.length b.b_bytes) t.blobs 0
  in
  {
    taken = t.c_taken;
    restores = t.c_restores;
    delta_events = t.c_delta;
    dedup_hits = t.c_dedup;
    resident_blobs = blobs;
    resident_bytes = bytes;
  }
