type chunk = {
  addr : int;
  bucket : int;
  data : Bytes.t;
  mutable live : bool;
}

exception Out_of_memory

type bucket = {
  chunk_size : int;
  mutable free_list : chunk list;
  mutable segments : int; (* segments owned by this bucket *)
}

type t = {
  segment_bytes : int;
  pool_segments : int; (* total segments in the pool *)
  mutable segments_used : int;
  buckets : bucket array; (* by power-of-two size, 64 .. segment_bytes *)
  mutable next_addr : int;
  mutable allocs : int;
  mutable frees : int;
  mutable lock_acquisitions : int;
  mutable live_chunks : int;
}

let min_chunk = 64

let create ?(capacity = 16 * 1024 * 1024) ?(segment_bytes = 64 * 1024) () =
  if segment_bytes < min_chunk then invalid_arg "Pool.create: segment too small";
  let nbuckets =
    let rec count size n =
      if size >= segment_bytes then n + 1 else count (size * 2) (n + 1)
    in
    count min_chunk 0
  in
  {
    segment_bytes;
    pool_segments = max 1 (capacity / segment_bytes);
    segments_used = 0;
    buckets =
      Array.init nbuckets (fun i ->
          { chunk_size = min_chunk lsl i; free_list = []; segments = 0 });
    next_addr = 0x7000_0000;
    allocs = 0;
    frees = 0;
    lock_acquisitions = 0;
    live_chunks = 0;
  }

let bucket_for t size =
  let rec find i =
    if i >= Array.length t.buckets then
      invalid_arg "Pool.alloc: size exceeds segment size"
    else if t.buckets.(i).chunk_size >= size then i
    else find (i + 1)
  in
  find 0

let grow t bi =
  if t.segments_used >= t.pool_segments then raise Out_of_memory;
  t.segments_used <- t.segments_used + 1;
  let b = t.buckets.(bi) in
  b.segments <- b.segments + 1;
  let chunks = t.segment_bytes / b.chunk_size in
  for _ = 1 to chunks do
    let c =
      {
        addr = t.next_addr;
        bucket = bi;
        data = Bytes.create b.chunk_size;
        live = false;
      }
    in
    t.next_addr <- t.next_addr + b.chunk_size;
    b.free_list <- c :: b.free_list
  done

let alloc t size =
  let bi = bucket_for t (max size 1) in
  let b = t.buckets.(bi) in
  t.lock_acquisitions <- t.lock_acquisitions + 1;
  if b.free_list = [] then grow t bi;
  match b.free_list with
  | [] -> raise Out_of_memory
  | c :: rest ->
    b.free_list <- rest;
    c.live <- true;
    t.allocs <- t.allocs + 1;
    t.live_chunks <- t.live_chunks + 1;
    c

let free t c =
  if not c.live then invalid_arg "Pool.free: double free";
  c.live <- false;
  let b = t.buckets.(c.bucket) in
  t.lock_acquisitions <- t.lock_acquisitions + 1;
  b.free_list <- c :: b.free_list;
  t.frees <- t.frees + 1;
  t.live_chunks <- t.live_chunks - 1

let write c payload =
  if Bytes.length payload > Bytes.length c.data then
    invalid_arg "Pool.write: payload exceeds chunk size";
  Bytes.blit payload 0 c.data 0 (Bytes.length payload)

let read c len = Bytes.sub c.data 0 (min len (Bytes.length c.data))

let size c = Bytes.length c.data

let read_into c ?(pos = 0) dst ~len =
  let n = min len (Bytes.length c.data) in
  Bytes.blit c.data 0 dst pos n;
  n

let view c ~len f =
  let n = min (max len 0) (Bytes.length c.data) in
  f c.data 0 n

type stats = {
  allocs : int;
  frees : int;
  segments_in_use : int;
  bytes_reserved : int;
  live_chunks : int;
  lock_acquisitions : int;
}

let stats (t : t) =
  {
    allocs = t.allocs;
    frees = t.frees;
    segments_in_use = t.segments_used;
    bytes_reserved = t.segments_used * t.segment_bytes;
    live_chunks = t.live_chunks;
    lock_acquisitions = t.lock_acquisitions;
  }

let chunk_capacity t c = t.buckets.(c.bucket).chunk_size
