let get32 b ofs = Int32.to_int (Bytes.get_int32_le b ofs)
let set32 b ofs v = Bytes.set_int32_le b ofs (Int32.of_int v)

let encode_pairs pairs =
  let b = Bytes.create (8 * List.length pairs) in
  List.iteri
    (fun i (x, y) ->
      set32 b (8 * i) x;
      set32 b ((8 * i) + 4) y)
    pairs;
  b

let decode_pairs b =
  List.init (Bytes.length b / 8) (fun i -> (get32 b (8 * i), get32 b ((8 * i) + 4)))

let decode_fd_pair b =
  if Bytes.length b = 8 then Some (get32 b 0, get32 b 4) else None

let encode_fd_set fds =
  let b = Bytes.create (4 * List.length fds) in
  List.iteri (fun i fd -> set32 b (4 * i) fd) fds;
  b

let decode_fd_set b = List.init (Bytes.length b / 4) (fun i -> get32 b (4 * i))

let encode_word v =
  let b = Bytes.create 4 in
  set32 b 0 v;
  b

let decode_word b = get32 b 0

let stat_size = 144

let encode_stat ~size ~is_dir =
  let b = Bytes.make stat_size '\000' in
  Bytes.set_int64_le b 48 (Int64.of_int size);
  Bytes.set_int64_le b 24 (Int64.of_int (if is_dir then 0o040755 else 0o100644));
  b

let decode_stat b =
  ( Int64.to_int (Bytes.get_int64_le b 48),
    Int64.to_int (Bytes.get_int64_le b 24) land 0o170000 = 0o040000 )

let timespec_size = 16

let encode_timespec ns =
  let b = Bytes.create timespec_size in
  Bytes.set_int64_le b 0 (Int64.div ns 1_000_000_000L);
  Bytes.set_int64_le b 8 (Int64.rem ns 1_000_000_000L);
  b

let decode_timespec b =
  if Bytes.length b < timespec_size then 0L
  else
    Int64.add
      (Int64.mul (Bytes.get_int64_le b 0) 1_000_000_000L)
      (Bytes.get_int64_le b 8)
