type t = {
  chunks : Bytes.t Queue.t;
  mutable head_ofs : int; (* consumed prefix of the front chunk *)
  mutable len : int;
  cap : int;
}

let create ?(capacity = 1 lsl 20) () =
  { chunks = Queue.create (); head_ofs = 0; len = 0; cap = capacity }

let length q = q.len
let is_empty q = q.len = 0
let space q = q.cap - q.len

(* The queue keeps [b] itself: the caller has already cut it to the
   bytes it means to buffer. *)
let write q b =
  let n = Bytes.length b in
  if n > space q then invalid_arg "Bytequeue.write: over capacity";
  if n > 0 then begin
    Queue.push b q.chunks;
    q.len <- q.len + n
  end

(* Copy the first [n] buffered bytes into a fresh buffer, consuming
   them when [remove]. *)
let gather q n ~remove =
  let out = Bytes.create n in
  let filled = ref 0 in
  let ofs = ref q.head_ofs in
  let iter = if remove then q.chunks else Queue.copy q.chunks in
  while !filled < n do
    let head = Queue.peek iter in
    let avail = Bytes.length head - !ofs in
    let want = min avail (n - !filled) in
    Bytes.blit head !ofs out !filled want;
    filled := !filled + want;
    if want = avail then begin
      ignore (Queue.pop iter);
      ofs := 0
    end
    else ofs := !ofs + want
  done;
  if remove then begin
    q.head_ofs <- !ofs;
    q.len <- q.len - n
  end;
  out

let read q n = gather q (min n q.len) ~remove:true
let peek q n = gather q (min n q.len) ~remove:false
