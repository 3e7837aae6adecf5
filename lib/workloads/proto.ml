open Varan_kernel

let ( let* ) = Result.bind

let header_len = 4

let frame_alloc n =
  let frame = Bytes.create (header_len + n) in
  Bytes.set_int32_le frame 0 (Int32.of_int n);
  frame

let frame payload =
  let n = Bytes.length payload in
  let f = frame_alloc n in
  Bytes.blit payload 0 f header_len n;
  f

let frame_of_string s =
  let n = String.length s in
  let f = frame_alloc n in
  Bytes.blit_string s 0 f header_len n;
  f

let send_msg api fd payload = Api.write_all api fd (frame payload)

(* Read exactly [n] bytes, or [None] on EOF at a frame boundary
   ([eof_ok]); EOF mid-frame is an EIO. A first chunk that already holds
   all [n] bytes is returned as it came; only a fragmented read gets a
   buffer of its own. *)
let recv_exact api fd n ~eof_ok =
  let rec go out filled =
    if filled >= n then Ok (Some out)
    else
      let* chunk = Api.recv api fd (n - filled) in
      let len = Bytes.length chunk in
      if len = 0 then
        if filled = 0 && eof_ok then Ok None else Error Varan_syscall.Errno.EIO
      else if len = n then Ok (Some chunk)
      else begin
        let out = if filled = 0 then Bytes.create n else out in
        Bytes.blit chunk 0 out filled len;
        go out (filled + len)
      end
  in
  go Bytes.empty 0

let recv_msg api fd =
  let* header = recv_exact api fd header_len ~eof_ok:true in
  match header with
  | None -> Ok None
  | Some h ->
    let len = Int32.to_int (Bytes.get_int32_le h 0) in
    if len = 0 then Ok (Some Bytes.empty)
    else
      let* body = recv_exact api fd len ~eof_ok:false in
      (match body with
      | Some b -> Ok (Some b)
      | None -> Error Varan_syscall.Errno.EIO)
