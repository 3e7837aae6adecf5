module Event = Varan_ringbuf.Event

(* The lifecycle recorder's retained stream: every event the leader
   publishes on a tuple is also appended here, flattened so it stays
   readable after the ring slot is overwritten and the shared-memory
   payload freed. A respawned follower replays events [from, splice)
   and then switches to the live ring at sequence [splice].

   Events keep the original Lamport stamp, tid and descriptor grant, so
   the ordinary follower-replay path consumes them unchanged and the
   rejoined variant's descriptor tables and clocks come out identical to
   a follower that never left.

   For a million-event stream a flat event array is the recorder's space
   problem, so the tape holds bytes, not records. [append] encodes each
   event once, straight into the open segment's reused buffer, in a
   compact varint form (most fields are small, most clock steps are 1);
   once the segment holds 256 events it is sealed — its buffer run-length
   packed (PackBits) into an immutable image. Sealed segments below the
   retention floor (the oldest live checkpoint, see {!Checkpoint}) are
   retired wholesale, which keeps resident bytes bounded while absolute
   indices stay stable: event [i] is event [i] forever, and reads below
   {!base} raise {!Truncated} instead of silently shifting. The same
   images, framed, are the record/replay log ({!Record_replay}). *)

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
let segment_events = 256

(* A sealed, immutable chunk of [segment_events] consecutive entries.
   Grants are opaque runtime handles (shared descriptor objects) and
   cannot be serialized; the sparse side array re-attaches them on
   decode. *)
type seg = {
  s_packed : Bytes.t; (* PackBits image of the encoded entries *)
  s_raw_len : int; (* encoded length before packing *)
  s_grants : (int * Obj.t) array; (* (index within segment, grant) *)
}

type t = {
  sealed : (int, seg) Hashtbl.t; (* segment number -> sealed image *)
  (* The open segment: entry k is encoded at [open_raw.[open_off.(k)]];
     its stamp is kept beside it so entry k decodes on its own, and its
     grant waits here until the seal moves it to the side array. The
     buffer is reused from seal to seal. *)
  mutable open_raw : Bytes.t;
  mutable open_pos : int; (* encoded bytes in [open_raw] *)
  open_off : int array;
  open_clock : int array;
  open_grant : Obj.t option array;
  mutable pack_buf : Bytes.t; (* worst-case room for packing the open buffer *)
  mutable open_first : int; (* absolute index of open entry 0 *)
  mutable open_len : int;
  mutable base : int; (* oldest retained absolute index *)
  mutable total : int; (* next index to append = events ever seen *)
  (* Decode cache: sequential replay touches one sealed segment many
     times in a row (stream_peek re-reads the head index), so we keep
     the last decoded segment around. *)
  mutable cache_segno : int;
  mutable cache_entries : Event.t array;
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

let create () =
  {
    sealed = Hashtbl.create 32;
    open_raw = Bytes.create 4096;
    open_pos = 0;
    open_off = Array.make segment_events 0;
    open_clock = Array.make segment_events 0;
    open_grant = Array.make segment_events None;
    pack_buf = Bytes.empty;
    open_first = 0;
    open_len = 0;
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
(* Event encoding (within a segment)                                   *)
(*   u8 header = kind << 1 | has_out                                   *)
(*   uvarint tid | uvarint nargs | uvarint sysno                       *)
(*   svarint (clock - previous entry's clock, 0 before the first)      *)
(*   svarint ret | svarint args[nargs]                                 *)
(*   [has_out: uvarint outlen | bytes out]                             *)
(* uvarint is LEB128 over the int's 63 bits (at most 9 bytes, never a  *)
(* redundant trailing zero byte); svarint is the zigzag map to it.     *)
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

let max_varint = 9

(* The most bytes an entry can take, to size the buffer before writing. *)
let max_entry_size ~nargs ~outlen = 1 + (max_varint * (6 + nargs)) + outlen

let put_uvarint b pos v =
  let p = ref pos and v = ref v in
  while !v land lnot 0x7f <> 0 do
    Bytes.unsafe_set b !p (Char.unsafe_chr (!v land 0x7f lor 0x80));
    v := !v lsr 7;
    incr p
  done;
  Bytes.unsafe_set b !p (Char.unsafe_chr !v);
  !p + 1

let put_svarint b pos v = put_uvarint b pos ((v lsl 1) lxor (v asr 62))

(* Encode one entry at [pos] of [b], which has room for
   [max_entry_size], and return the position after it. *)
let encode_entry b pos ~prev_clock ~kind ~tid ~sysno ~clock ~ret ~args ~out =
  Bytes.unsafe_set b pos
    (Char.unsafe_chr ((kind_code kind lsl 1) lor if out = None then 0 else 1));
  let pos = put_uvarint b (pos + 1) tid in
  let pos = put_uvarint b pos (Array.length args) in
  let pos = put_uvarint b pos sysno in
  let pos = put_svarint b pos (clock - prev_clock) in
  let pos = ref (put_svarint b pos ret) in
  for i = 0 to Array.length args - 1 do
    pos := put_svarint b !pos (Array.unsafe_get args i)
  done;
  match out with
  | None -> !pos
  | Some o ->
    let n = Bytes.length o in
    let pos = put_uvarint b !pos n in
    Bytes.blit o 0 b pos n;
    pos + n

(* A segment that is not the encoding of any entry list, raised by the
   decoders; [of_image] turns it into an [Error]. *)
exception Malformed of string

(* Decode the event at [!p] of [b], whose entries end at [lim], and
   advance [p] past it. Its result buffer travels inline whatever its
   size: the pool chunk it came from is long gone. *)
let decode_entry b ~lim p ~prev_clock =
  let u8 () =
    if !p >= lim then raise (Malformed "truncated entry");
    let c = Char.code (Bytes.unsafe_get b !p) in
    incr p;
    c
  in
  let uvarint () =
    let acc = ref 0 and shift = ref 0 and fin = ref false in
    while not !fin do
      let c = u8 () in
      if !shift = 7 * (max_varint - 1) && c > 0x7f then
        raise (Malformed "varint longer than 63 bits");
      acc := !acc lor ((c land 0x7f) lsl !shift);
      if c land 0x80 = 0 then begin
        if c = 0 && !shift > 0 then raise (Malformed "over-long varint");
        fin := true
      end
      else shift := !shift + 7
    done;
    !acc
  in
  let svarint () =
    let u = uvarint () in
    (u lsr 1) lxor -(u land 1)
  in
  let h = u8 () in
  let kind =
    match kind_of_code (h lsr 1) with
    | Some k -> k
    | None -> raise (Malformed "bad kind code")
  in
  let tid = uvarint () in
  let nargs = uvarint () in
  let sysno = uvarint () in
  let clock = prev_clock + svarint () in
  let ret = svarint () in
  (* Every argument takes at least one byte. *)
  if nargs < 0 || nargs > lim - !p then raise (Malformed "truncated entry");
  let args = Array.make nargs 0 in
  for i = 0 to nargs - 1 do
    args.(i) <- svarint ()
  done;
  let out =
    if h land 1 = 0 then None
    else begin
      let n = uvarint () in
      if n < 0 || n > lim - !p then raise (Malformed "out length past the end");
      let o = Bytes.sub b !p n in
      p := !p + n;
      Some o
    end
  in
  {
    Event.kind;
    sysno;
    tid;
    args;
    ret;
    clock;
    payload = None;
    payload_len = 0;
    inline_out = out;
    grant = None;
  }

(* Every entry of the [len]-byte encoding [raw], in order. *)
let decode_all raw ~len =
  let p = ref 0 and prev_clock = ref 0 and acc = ref [] in
  while !p < len do
    let e = decode_entry raw ~lim:len p ~prev_clock:!prev_clock in
    prev_clock := e.Event.clock;
    acc := e :: !acc
  done;
  Array.of_list (List.rev !acc)

(* ------------------------------------------------------------------ *)
(* PackBits run-length coding                                          *)
(*   control byte c in 0..127: copy the next c+1 literal bytes         *)
(*   control byte c in 129..255: repeat the next byte 257-c times      *)
(* Worst case adds one byte per 128 of input; encoded events hold      *)
(* runs of zero bytes and repetitive payloads, so runs are common.     *)
(* ------------------------------------------------------------------ *)

(* A literal stretch shorter than 128 bytes is always followed by a
   run, which saves at least the literal's control byte, so packing [n]
   bytes never writes more than this. *)
let packed_bound n = n + (n / 128) + 1

(* Packs [src.[0, n)] into [out], which holds [packed_bound n] bytes,
   then copies the image out once. *)
let pack_into out src n =
  let o = ref 0 in
  let i = ref 0 in
  while !i < n do
    let c = Bytes.unsafe_get src !i in
    let run = ref 1 in
    while !i + !run < n && !run < 128 && Bytes.unsafe_get src (!i + !run) = c do
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
        let c' = Bytes.unsafe_get src !stop in
        let r = ref 1 in
        while !stop + !r < n && !r < 3 && Bytes.unsafe_get src (!stop + !r) = c' do
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

(* The open buffer's image, packed in the tape's own scratch buffer,
   which grows to the largest segment's bound and is kept. *)
let pack_open t =
  let n = t.open_pos in
  if Bytes.length t.pack_buf < packed_bound n then
    t.pack_buf <- Bytes.create (packed_bound (max n (Bytes.length t.open_raw)));
  pack_into t.pack_buf t.open_raw n

(* The length [src] unpacks to. The packer never writes control byte
   128, so it is rejected like a cut-off control. *)
let unpacked_length src =
  let n = Bytes.length src in
  let i = ref 0 and len = ref 0 in
  while !i < n do
    let c = Char.code (Bytes.get src !i) in
    if c = 128 then raise (Malformed "bad PackBits control byte");
    let step = if c < 128 then c + 2 else 2 in
    if !i + step > n then raise (Malformed "truncated PackBits image");
    len := !len + (if c < 128 then c + 1 else 257 - c);
    i := !i + step
  done;
  !len

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
(* Images, sealing and decoding                                        *)
(* ------------------------------------------------------------------ *)

(* Only an image a segment packs to is accepted: the canonical varints
   make the entry layer one-to-one, the comparison does the same for the
   packing layer, where several control sequences spell one byte string,
   and no segment holds more than [segment_events] entries. *)
let of_image img =
  match
    let raw_len = unpacked_length img in
    let raw = unpack ~raw_len img in
    let entries = decode_all raw ~len:raw_len in
    let repacked = pack_into (Bytes.create (packed_bound raw_len)) raw raw_len in
    if not (Bytes.equal repacked img) then
      raise (Malformed "non-canonical PackBits image");
    if Array.length entries > segment_events then
      raise (Malformed (Printf.sprintf "more than %d events" segment_events));
    entries
  with
  | entries -> Ok entries
  | exception Malformed why -> Error why

let seal t =
  let grants = ref [] in
  for i = segment_events - 1 downto 0 do
    match t.open_grant.(i) with
    | Some g ->
      grants := (i, g) :: !grants;
      t.open_grant.(i) <- None
    | None -> ()
  done;
  let packed = pack_open t in
  let seg =
    { s_packed = packed; s_raw_len = t.open_pos; s_grants = Array.of_list !grants }
  in
  let segno = t.open_first / segment_events in
  Hashtbl.replace t.sealed segno seg;
  t.c_sealed <- t.c_sealed + 1;
  t.c_packed_bytes <- t.c_packed_bytes + Bytes.length packed;
  t.c_raw_bytes <- t.c_raw_bytes + seg.s_raw_len;
  t.open_first <- t.open_first + segment_events;
  t.open_len <- 0;
  t.open_pos <- 0

let decode t segno =
  if t.cache_segno = segno then t.cache_entries
  else begin
    let seg =
      match Hashtbl.find_opt t.sealed segno with
      | Some s -> s
      | None ->
        raise (Truncated { requested = segno * segment_events; base = t.base })
    in
    let raw = unpack ~raw_len:seg.s_raw_len seg.s_packed in
    let entries = decode_all raw ~len:seg.s_raw_len in
    assert (Array.length entries = segment_events);
    Array.iter
      (fun (i, g) -> entries.(i) <- { (entries.(i)) with Event.grant = Some g })
      seg.s_grants;
    t.cache_segno <- segno;
    t.cache_entries <- entries;
    entries
  end

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)
(* ------------------------------------------------------------------ *)

(* Flatten at capture time: [out] is the leader's result buffer, handed
   over before any pool chunk can be recycled; its bytes are copied into
   the segment and the buffer is not kept. Pure (no engine calls) — runs
   inside Ring.publish_k. *)
let append t (e : Event.t) ~out =
  if t.open_len = segment_events then seal t;
  let k = t.open_len in
  let need =
    max_entry_size ~nargs:(Array.length e.Event.args)
      ~outlen:(match out with None -> 0 | Some o -> Bytes.length o)
  in
  if t.open_pos + need > Bytes.length t.open_raw then begin
    let raw = Bytes.create (max (2 * Bytes.length t.open_raw) (t.open_pos + need)) in
    Bytes.blit t.open_raw 0 raw 0 t.open_pos;
    t.open_raw <- raw
  end;
  let prev_clock = if k = 0 then 0 else t.open_clock.(k - 1) in
  t.open_off.(k) <- t.open_pos;
  t.open_clock.(k) <- e.Event.clock;
  t.open_grant.(k) <- e.Event.grant;
  t.open_pos <-
    encode_entry t.open_raw t.open_pos ~prev_clock ~kind:e.Event.kind
      ~tid:e.Event.tid ~sysno:e.Event.sysno ~clock:e.Event.clock
      ~ret:e.Event.ret ~args:e.Event.args ~out;
  t.open_len <- k + 1;
  t.total <- t.total + 1

let get t i =
  if i < 0 || i >= t.total then invalid_arg "Tape.get: out of range";
  if i < t.base then raise (Truncated { requested = i; base = t.base });
  if i >= t.open_first then begin
    let k = i - t.open_first in
    let prev_clock = if k = 0 then 0 else t.open_clock.(k - 1) in
    let e =
      decode_entry t.open_raw ~lim:t.open_pos (ref t.open_off.(k)) ~prev_clock
    in
    match t.open_grant.(k) with None -> e | g -> { e with Event.grant = g }
  end
  else (decode t (i / segment_events)).(i mod segment_events)

(* Drop whole sealed segments strictly below [keep_from]. Absolute
   indices are preserved: after retiring, [base] is the first index of
   the oldest surviving segment, and any read below it raises
   {!Truncated}. Never touches the open segment. *)
let retire t ~keep_from =
  let keep_from = max 0 (min keep_from t.open_first) in
  let keep_seg = keep_from / segment_events in
  let first_seg = t.base / segment_events in
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
  if keep_seg * segment_events > t.base then t.base <- keep_seg * segment_events

(* A segment's image is its packed entry bytes: the grants ride beside
   them, and its first entry's clock step is from 0, so an image decodes
   on its own. A sealed segment stores its image; the open segment's
   buffer packs the same way. *)
let images t =
  let open_img =
    if t.open_len = 0 then [] else [ pack_open t ]
  in
  let rec sealed segno acc =
    if segno * segment_events < t.base then acc
    else sealed (segno - 1) ((Hashtbl.find t.sealed segno).s_packed :: acc)
  in
  sealed ((t.open_first / segment_events) - 1) open_img

let resident_bytes t = t.c_packed_bytes + t.open_pos

let stats t =
  {
    segments_sealed = t.c_sealed;
    segments_retired = t.c_retired;
    resident_bytes = resident_bytes t;
    packed_bytes = t.c_packed_bytes;
    raw_bytes = t.c_raw_bytes;
  }
