open Varan_kernel
module Flags = Varan_kernel.Flags

type style = Event_loop | Prefork

type config = {
  port : int;
  units : int;
  style : style;
  doc_path : string;
  parse_cycles : int;
  access_log : string option;
  expected_conns : int;
}

let request path = Bytes.of_string ("GET " ^ path)

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Varan_syscall.Errno.name e)

(* Real web servers keep hot content and descriptors cached (lighttpd's
   stat/fd cache, nginx's open_file_cache, sendfile from the page cache,
   the always-open access log); re-reading the document on every request
   would also make NVX copy the whole page to every follower per request,
   which no deployed server incurs. The document is read once at startup
   and served from memory, framed once then too. *)
type unit_state = { reply : Bytes.t; log_fd : int option }

let open_state cfg api =
  let doc_size = ok_exn "stat" (Api.stat_size api cfg.doc_path) in
  let doc_fd = ok_exn "open doc" (Api.openf api cfg.doc_path Flags.o_rdonly) in
  let content = ok_exn "read" (Api.read api doc_fd doc_size) in
  ignore (Api.close api doc_fd);
  let log_fd =
    match cfg.access_log with
    | None -> None
    | Some log ->
      Some
        (ok_exn "open log"
           (Api.openf api log
              (Flags.o_wronly lor Flags.o_creat lor Flags.o_append)))
  in
  { reply = Proto.frame content; log_fd }

let handle cfg st api req =
  Api.compute api cfg.parse_cycles;
  let path =
    match String.split_on_char ' ' (Bytes.to_string req) with
    | [ "GET"; path ] -> path
    | _ -> cfg.doc_path
  in
  (match st.log_fd with
  | Some fd -> ignore (Api.write_str api fd ("GET " ^ path ^ " 200\n"))
  | None -> ());
  st.reply

let make_body cfg () ~unit_idx api =
  let expected =
    Server_core.conns_for_unit ~connections:cfg.expected_conns
      ~units:cfg.units unit_idx
  in
  if expected > 0 then begin
    let st = open_state cfg api in
    let handler api req = handle cfg st api req in
    (match cfg.style with
    | Event_loop ->
      Server_core.epoll_server ~port:(cfg.port + unit_idx)
        ~expected_conns:expected ~handler api
    | Prefork ->
      Server_core.accept_server ~port:(cfg.port + unit_idx)
        ~expected_conns:expected ~handler api);
    match st.log_fd with
    | Some fd -> ignore (Api.close api fd)
    | None -> ()
  end
