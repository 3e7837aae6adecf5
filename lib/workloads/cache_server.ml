open Varan_kernel

type config = {
  port : int;
  units : int;
  work_cycles : int;
  expected_conns : int;
}

let set_cmd key value =
  let prefix = Printf.sprintf "set %s %d " key (Bytes.length value) in
  let p = String.length prefix in
  let b = Bytes.create (p + Bytes.length value) in
  Bytes.blit_string prefix 0 b 0 p;
  Bytes.blit value 0 b p (Bytes.length value);
  b

let get_cmd key = Bytes.of_string ("get " ^ key)

(* The fixed replies, framed once: a send copies its buffer, so one
   frame serves every reply. *)
let stored_frame = Proto.frame_of_string "STORED"
let end_frame = Proto.frame_of_string "END"
let error_frame = Proto.frame_of_string "ERROR"

(* Parse in place. Fields are split on single spaces, so a run of
   spaces makes empty fields: [set key len payload...] (the payload is
   everything after the third space) and exactly [get key]. A set stores
   its value with one copy; a get hit builds its reply straight into its
   frame. The fixed replies are shared, so the frame is read-only. *)
let respond store req =
  let n = Bytes.length req in
  let field_end from =
    match Bytes.index_from_opt req from ' ' with Some i -> i | None -> n
  in
  let e1 = field_end 0 in
  let e2 = if e1 < n then field_end (e1 + 1) else n in
  let is_cmd c0 c1 c2 =
    e1 = 3
    && Bytes.get req 0 = c0
    && Bytes.get req 1 = c1
    && Bytes.get req 2 = c2
  in
  if is_cmd 's' 'e' 't' && e2 < n then begin
    let e3 = field_end (e2 + 1) in
    let off = if e3 = n then n else e3 + 1 in
    let have = n - off in
    let len =
      Option.value ~default:have
        (int_of_string_opt (Bytes.sub_string req (e2 + 1) (e3 - e2 - 1)))
    in
    Hashtbl.replace store
      (Bytes.sub_string req (e1 + 1) (e2 - e1 - 1))
      (Bytes.sub_string req off (min have len));
    stored_frame
  end
  else if is_cmd 'g' 'e' 't' && e1 < n && e2 = n then
    match Hashtbl.find_opt store (Bytes.sub_string req (e1 + 1) (n - e1 - 1)) with
    | Some v ->
      let b = Proto.frame_alloc (6 + String.length v) in
      Bytes.blit_string "VALUE " 0 b Proto.header_len 6;
      Bytes.blit_string v 0 b (Proto.header_len + 6) (String.length v);
      b
    | None -> end_frame
  else error_frame

let handle cfg store api req =
  Api.compute api cfg.work_cycles;
  (* memcached stamps items with the current time on every command. *)
  ignore (Api.time api);
  respond store req

let make_body cfg () =
  let store : (string, string) Hashtbl.t = Hashtbl.create 1024 in
  fun ~unit_idx api ->
    let expected =
      Server_core.conns_for_unit ~connections:cfg.expected_conns
        ~units:cfg.units unit_idx
    in
    if expected > 0 then
      Server_core.epoll_server ~port:(cfg.port + unit_idx)
        ~expected_conns:expected
        ~handler:(fun api req -> handle cfg store api req)
        api
