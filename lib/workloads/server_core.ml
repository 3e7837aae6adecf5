open Varan_kernel
module Flags = Varan_kernel.Flags
module Errno = Varan_syscall.Errno

type handler = Api.t -> Bytes.t -> Bytes.t

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Errno.name e))

let conns_for_unit ~connections ~units u =
  let base = connections / units in
  if u < connections mod units then base + 1 else base

let epoll_server ~port ~expected_conns ~handler api =
  let lfd = ok_exn "socket" (Api.socket api) in
  ok_exn "bind" (Api.bind api lfd port);
  ok_exn "listen" (Api.listen api lfd);
  let ep = ok_exn "epoll_create" (Api.epoll_create api) in
  ok_exn "epoll_ctl" (Api.epoll_ctl api ep Flags.epoll_ctl_add lfd Flags.epollin);
  let closed = ref 0 in
  while !closed < expected_conns do
    let events =
      ok_exn "epoll_wait" (Api.epoll_wait api ep ~max_events:64 ~timeout_ms:(-1))
    in
    List.iter
      (fun (fd, _mask) ->
        if fd = lfd then begin
          let c = ok_exn "accept" (Api.accept api lfd) in
          ok_exn "epoll_ctl add"
            (Api.epoll_ctl api ep Flags.epoll_ctl_add c Flags.epollin)
        end
        else begin
          match Proto.recv_msg api fd with
          | Ok (Some request) ->
            ok_exn "send" (Api.write_all api fd (handler api request))
          | Ok None ->
            ok_exn "epoll_ctl del" (Api.epoll_ctl api ep Flags.epoll_ctl_del fd 0);
            ignore (Api.close api fd);
            incr closed
          | Error Errno.ECONNRESET ->
            ok_exn "epoll_ctl del" (Api.epoll_ctl api ep Flags.epoll_ctl_del fd 0);
            ignore (Api.close api fd);
            incr closed
          | Error e -> failwith ("server recv: " ^ Errno.name e)
        end)
      events
  done;
  ignore (Api.close api ep);
  ignore (Api.close api lfd)

let accept_server ~port ~expected_conns ~handler api =
  let lfd = ok_exn "socket" (Api.socket api) in
  ok_exn "bind" (Api.bind api lfd port);
  ok_exn "listen" (Api.listen api lfd);
  for _ = 1 to expected_conns do
    let c = ok_exn "accept" (Api.accept api lfd) in
    let rec serve () =
      match Proto.recv_msg api c with
      | Ok (Some request) ->
        ok_exn "send" (Api.write_all api c (handler api request));
        serve ()
      | Ok None | Error Errno.ECONNRESET -> ()
      | Error e -> failwith ("server recv: " ^ Errno.name e)
    in
    serve ();
    ignore (Api.close api c)
  done;
  ignore (Api.close api lfd)
