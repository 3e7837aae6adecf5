module Event = Varan_ringbuf.Event

(* The lifecycle recorder's retained stream: every event the leader
   publishes on a tuple is also appended here, flattened so it stays
   readable after the ring slot is overwritten and the shared-memory
   payload freed. A respawned follower replays entries [from, splice)
   and then switches to the live ring at sequence [splice].

   Entries keep the original Lamport stamp, tid and descriptor grant, so
   the ordinary follower-replay path consumes them unchanged and the
   rejoined variant's descriptor tables and clocks come out identical to
   a follower that never left.

   For a million-event stream a flat entry array is the recorder's space
   problem, so the tape is chunked: entries land in a small open segment
   and, once it fills, the segment is sealed — serialized to a compact
   byte image and run-length packed (PackBits). Sealed segments below the
   retention floor (the oldest live checkpoint, see {!Checkpoint}) are
   retired wholesale, which keeps resident bytes bounded while absolute
   indices stay stable: entry [i] is entry [i] forever, and reads below
   {!base} raise {!Truncated} instead of silently shifting. *)

type entry = {
  t_kind : Event.kind;
  t_sysno : int;
  t_tid : int;
  t_args : int array;
  t_ret : int;
  t_clock : int;
  t_out : Bytes.t option; (* payloads flattened to inline bytes *)
  t_grant : Obj.t option;
}

exception Truncated of { requested : int; base : int }

let () =
  Printexc.register_printer (function
    | Truncated { requested; base } ->
      Some
        (Printf.sprintf
           "Varan_nvx.Tape.Truncated(requested=%d, oldest retained=%d)"
           requested base)
    | _ -> None)

(* The sealing granularity: a segment seals, and can later be retired,
   only as a whole. *)
let entries_per_segment = 256

(* A sealed, immutable chunk of [entries_per_segment] consecutive entries.
   Grants are opaque runtime handles (shared descriptor objects) and
   cannot be serialized; the sparse side array re-attaches them on
   decode. *)
type seg = {
  s_packed : Bytes.t; (* PackBits image of the serialized entries *)
  s_raw_len : int; (* serialized length before packing *)
  s_grants : (int * Obj.t) array; (* (index within segment, grant) *)
}

type t = {
  sealed : (int, seg) Hashtbl.t; (* segment number -> sealed image *)
  open_buf : entry array; (* the one mutable segment, being filled *)
  mutable open_first : int; (* absolute index of open_buf.(0) *)
  mutable open_len : int;
  mutable open_bytes : int; (* raw-size estimate of the open segment *)
  mutable base : int; (* oldest retained absolute index *)
  mutable total : int; (* next index to append = events ever seen *)
  (* Decode cache: sequential replay touches one sealed segment many
     times in a row (stream_peek re-reads the head index), so we keep
     the last decoded segment around. *)
  mutable cache_segno : int;
  mutable cache_entries : entry array;
  (* stats *)
  mutable c_sealed : int;
  mutable c_retired : int;
  mutable c_packed_bytes : int; (* resident compressed bytes *)
  mutable c_raw_bytes : int; (* raw bytes of currently resident seals *)
}

type stats = {
  segments_sealed : int;
  segments_retired : int;
  resident_bytes : int;
  packed_bytes : int;
  raw_bytes : int;
}

let dummy =
  {
    t_kind = Event.Ev_syscall;
    t_sysno = 0;
    t_tid = 0;
    t_args = [||];
    t_ret = 0;
    t_clock = 0;
    t_out = None;
    t_grant = None;
  }

let create () =
  {
    sealed = Hashtbl.create 32;
    open_buf = Array.make entries_per_segment dummy;
    open_first = 0;
    open_len = 0;
    open_bytes = 0;
    base = 0;
    total = 0;
    cache_segno = -1;
    cache_entries = [||];
    c_sealed = 0;
    c_retired = 0;
    c_packed_bytes = 0;
    c_raw_bytes = 0;
  }

let length t = t.total
let base t = t.base

(* ------------------------------------------------------------------ *)
(* Entry wire format (within a sealed segment)                         *)
(*   u8 kind | u8 tid | u8 nargs | i32 sysno | i32 clock | i64 ret     *)
(*   | i64 args[nargs] | i32 outlen (-1 = no result buffer) | bytes    *)
(* ------------------------------------------------------------------ *)

let kind_code = function
  | Event.Ev_syscall -> 0
  | Event.Ev_signal -> 1
  | Event.Ev_fork -> 2
  | Event.Ev_exit -> 3

let kind_of_code = function
  | 0 -> Some Event.Ev_syscall
  | 1 -> Some Event.Ev_signal
  | 2 -> Some Event.Ev_fork
  | 3 -> Some Event.Ev_exit
  | _ -> None

let entry_raw_size (e : entry) =
  3 + 4 + 4 + 8
  + (8 * Array.length e.t_args)
  + 4
  + (match e.t_out with None -> 0 | Some b -> Bytes.length b)

(* Write [e] at [pos] of [raw] and return the position after it. *)
let serialize_entry raw pos (e : entry) =
  Bytes.set_uint8 raw pos (kind_code e.t_kind);
  Bytes.set_uint8 raw (pos + 1) (e.t_tid land 0xFF);
  Bytes.set_uint8 raw (pos + 2) (Array.length e.t_args);
  Bytes.set_int32_le raw (pos + 3) (Int32.of_int e.t_sysno);
  Bytes.set_int32_le raw (pos + 7) (Int32.of_int e.t_clock);
  Bytes.set_int64_le raw (pos + 11) (Int64.of_int e.t_ret);
  let pos = pos + 19 in
  Array.iteri
    (fun i a -> Bytes.set_int64_le raw (pos + (8 * i)) (Int64.of_int a))
    e.t_args;
  let pos = pos + (8 * Array.length e.t_args) in
  match e.t_out with
  | None ->
    Bytes.set_int32_le raw pos (-1l);
    pos + 4
  | Some b ->
    let n = Bytes.length b in
    Bytes.set_int32_le raw pos (Int32.of_int n);
    Bytes.blit b 0 raw (pos + 4) n;
    pos + 4 + n

let deserialize_entry raw pos =
  let p = ref pos in
  let u8 () =
    let v = Char.code (Bytes.get raw !p) in
    incr p;
    v
  in
  let i32 () =
    let v = Int32.to_int (Bytes.get_int32_le raw !p) in
    p := !p + 4;
    v
  in
  let i64 () =
    let v = Int64.to_int (Bytes.get_int64_le raw !p) in
    p := !p + 8;
    v
  in
  let kind =
    match kind_of_code (u8 ()) with
    | Some k -> k
    | None -> invalid_arg "Tape: bad event kind"
  in
  let tid = u8 () in
  let nargs = u8 () in
  let sysno = i32 () in
  let clock = i32 () in
  let ret = i64 () in
  let args = Array.init nargs (fun _ -> i64 ()) in
  let outlen = i32 () in
  let out =
    if outlen < 0 then None
    else begin
      let b = Bytes.sub raw !p outlen in
      p := !p + outlen;
      Some b
    end
  in
  ( {
      t_kind = kind;
      t_sysno = sysno;
      t_tid = tid;
      t_args = args;
      t_ret = ret;
      t_clock = clock;
      t_out = out;
      t_grant = None;
    },
    !p )

(* ------------------------------------------------------------------ *)
(* PackBits run-length coding                                          *)
(*   control byte c in 0..127: copy the next c+1 literal bytes         *)
(*   control byte c in 129..255: repeat the next byte 257-c times      *)
(* Worst case adds one byte per 128 of input; serialized events are    *)
(* full of zero bytes (little-endian small ints), so runs are common.  *)
(* ------------------------------------------------------------------ *)

(* Packed into one buffer of the worst-case size, then copied out once.
   A literal stretch shorter than 128 bytes is always followed by a run,
   which saves at least the literal's control byte, so the output never
   exceeds [n + n / 128 + 1]. *)
let pack src =
  let n = Bytes.length src in
  let out = Bytes.create (n + (n / 128) + 1) in
  let o = ref 0 in
  let i = ref 0 in
  while !i < n do
    let c = Bytes.get src !i in
    let run = ref 1 in
    while !i + !run < n && !run < 128 && Bytes.get src (!i + !run) = c do
      incr run
    done;
    if !run >= 3 then begin
      Bytes.set_uint8 out !o (257 - !run);
      Bytes.set out (!o + 1) c;
      o := !o + 2;
      i := !i + !run
    end
    else begin
      (* Literal stretch: extend until the next run of >= 3 equal bytes
         or the 128-byte control limit. *)
      let start = !i in
      let stop = ref (!i + !run) in
      let continue = ref true in
      while !continue && !stop < n && !stop - start < 128 do
        let c' = Bytes.get src !stop in
        let r = ref 1 in
        while !stop + !r < n && !r < 3 && Bytes.get src (!stop + !r) = c' do
          incr r
        done;
        if !r >= 3 then continue := false
        else stop := min (!stop + !r) (start + 128)
      done;
      let len = !stop - start in
      Bytes.set_uint8 out !o (len - 1);
      Bytes.blit src start out (!o + 1) len;
      o := !o + 1 + len;
      i := start + len
    end
  done;
  Bytes.sub out 0 !o

let unpack ~raw_len src =
  let out = Bytes.create raw_len in
  let n = Bytes.length src in
  let i = ref 0 and o = ref 0 in
  while !i < n do
    let c = Char.code (Bytes.get src !i) in
    incr i;
    if c < 128 then begin
      let len = c + 1 in
      Bytes.blit src !i out !o len;
      i := !i + len;
      o := !o + len
    end
    else begin
      let len = 257 - c in
      Bytes.fill out !o len (Bytes.get src !i);
      incr i;
      o := !o + len
    end
  done;
  if !o <> raw_len then invalid_arg "Tape.unpack: corrupt segment";
  out

(* ------------------------------------------------------------------ *)
(* Sealing and decoding                                                *)
(* ------------------------------------------------------------------ *)

(* Serialize [entries] into one buffer of exactly [raw_len] bytes and
   pack it. *)
let image_of entries ~raw_len =
  let raw = Bytes.create raw_len in
  let pos = Array.fold_left (serialize_entry raw) 0 entries in
  assert (pos = raw_len);
  pack raw

let image entries =
  image_of entries
    ~raw_len:(Array.fold_left (fun n e -> n + entry_raw_size e) 0 entries)

let seal t =
  let grants = ref [] in
  Array.iteri
    (fun i e ->
      match e.t_grant with
      | Some g -> grants := (i, g) :: !grants
      | None -> ())
    t.open_buf;
  let packed = image_of t.open_buf ~raw_len:t.open_bytes in
  let seg =
    {
      s_packed = packed;
      s_raw_len = t.open_bytes;
      s_grants = Array.of_list (List.rev !grants);
    }
  in
  let segno = t.open_first / entries_per_segment in
  Hashtbl.replace t.sealed segno seg;
  t.c_sealed <- t.c_sealed + 1;
  t.c_packed_bytes <- t.c_packed_bytes + Bytes.length packed;
  t.c_raw_bytes <- t.c_raw_bytes + seg.s_raw_len;
  Array.fill t.open_buf 0 entries_per_segment dummy;
  t.open_first <- t.open_first + entries_per_segment;
  t.open_len <- 0;
  t.open_bytes <- 0

let decode t segno =
  if t.cache_segno = segno then t.cache_entries
  else begin
    let seg =
      match Hashtbl.find_opt t.sealed segno with
      | Some s -> s
      | None ->
        raise (Truncated { requested = segno * entries_per_segment; base = t.base })
    in
    let raw = unpack ~raw_len:seg.s_raw_len seg.s_packed in
    let pos = ref 0 in
    let entries =
      Array.init entries_per_segment (fun _ ->
          let e, p = deserialize_entry raw !pos in
          pos := p;
          e)
    in
    Array.iter
      (fun (i, g) -> entries.(i) <- { (entries.(i)) with t_grant = Some g })
      seg.s_grants;
    t.cache_segno <- segno;
    t.cache_entries <- entries;
    entries
  end

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)
(* ------------------------------------------------------------------ *)

(* Flatten at capture time: [out] is the leader's result buffer, handed
   over before any pool chunk can be recycled. Pure (no engine calls) —
   runs inside Ring.publish_k. *)
let append t (e : Event.t) ~out =
  if t.open_len = entries_per_segment then seal t;
  let en =
    {
      t_kind = e.Event.kind;
      t_sysno = e.Event.sysno;
      t_tid = e.Event.tid;
      t_args = e.Event.args;
      t_ret = e.Event.ret;
      t_clock = e.Event.clock;
      t_out = out;
      t_grant = e.Event.grant;
    }
  in
  t.open_buf.(t.open_len) <- en;
  t.open_len <- t.open_len + 1;
  t.open_bytes <- t.open_bytes + entry_raw_size en;
  t.total <- t.total + 1

let get t i =
  if i < 0 || i >= t.total then invalid_arg "Tape.get: out of range";
  if i < t.base then raise (Truncated { requested = i; base = t.base });
  if i >= t.open_first then t.open_buf.(i - t.open_first)
  else (decode t (i / entries_per_segment)).(i mod entries_per_segment)

(* Reconstruct a stream event from a tape entry. The payload travels
   inline regardless of size: the pool chunk it came from is long gone. *)
let event_of_entry (en : entry) : Event.t =
  {
    Event.kind = en.t_kind;
    sysno = en.t_sysno;
    tid = en.t_tid;
    args = en.t_args;
    ret = en.t_ret;
    clock = en.t_clock;
    payload = None;
    payload_len = 0;
    inline_out = en.t_out;
    grant = en.t_grant;
  }

let event_at t i = event_of_entry (get t i)

let iter f t =
  for i = t.base to t.total - 1 do
    f (get t i)
  done

(* Drop whole sealed segments strictly below [keep_from]. Absolute
   indices are preserved: after retiring, [base] is the first index of
   the oldest surviving segment, and any read below it raises
   {!Truncated}. Never touches the open segment. *)
let retire t ~keep_from =
  let keep_from = max 0 (min keep_from t.open_first) in
  let keep_seg = keep_from / entries_per_segment in
  let first_seg = t.base / entries_per_segment in
  for segno = first_seg to keep_seg - 1 do
    match Hashtbl.find_opt t.sealed segno with
    | None -> ()
    | Some seg ->
      Hashtbl.remove t.sealed segno;
      t.c_retired <- t.c_retired + 1;
      t.c_packed_bytes <- t.c_packed_bytes - Bytes.length seg.s_packed;
      t.c_raw_bytes <- t.c_raw_bytes - seg.s_raw_len;
      if t.cache_segno = segno then begin
        t.cache_segno <- -1;
        t.cache_entries <- [||]
      end
  done;
  if keep_seg * entries_per_segment > t.base then t.base <- keep_seg * entries_per_segment

let resident_bytes t = t.c_packed_bytes + t.open_bytes

let stats t =
  {
    segments_sealed = t.c_sealed;
    segments_retired = t.c_retired;
    resident_bytes = resident_bytes t;
    packed_bytes = t.c_packed_bytes;
    raw_bytes = t.c_raw_bytes;
  }
