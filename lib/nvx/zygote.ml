module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api

type t = {
  req_w : int; (* coordinator writes requests here *)
  resp_r : int; (* coordinator reads replies here *)
  coord_api : Api.t; (* pipe endpoints live in the coordinator's table *)
  mutable served : int;
  (* Requests and replies share one socket and replies are read a byte
     at a time, so two concurrent requesters would steal each other's
     reply bytes. Sessions sharing a zygote (the sharded serving hub) and
     concurrent respawn agents serialize here. *)
  mutable busy : bool;
  turn : E.Cond.cond;
}

let read_line api fd =
  let buf = Buffer.create 32 in
  let rec go () =
    match Api.read api fd 1 with
    | Ok b when Bytes.length b = 1 ->
      let c = Bytes.get b 0 in
      if c = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf c;
        go ()
      end
    | Ok _ -> Buffer.contents buf (* EOF *)
    | Error _ -> Buffer.contents buf
  in
  go ()

let spawn k ~launcher =
  (* Both ends of the socket pair are created in the zygote's process
     and the coordinator drives its end through the same table — the
     simulated kernel's open-file descriptions make this equivalent to
     inheriting it across fork. *)
  let zproc = K.new_proc k "zygote" in
  let zapi = Api.direct k zproc in
  (* One UNIX-domain socket pair, as in Figure 2: the coordinator holds
     one end, the zygote the other; requests and replies share it. *)
  let coord_end, zygote_end =
    match Api.socketpair zapi with
    | Ok p -> p
    | Error _ -> failwith "zygote: socketpair"
  in
  let req_r, req_w = (zygote_end, coord_end) in
  let resp_r, resp_w = (coord_end, zygote_end) in
  let t =
    {
      req_w;
      resp_r;
      coord_api = zapi;
      served = 0;
      busy = false;
      turn = E.Cond.create "zygote-turn";
    }
  in
  let service () =
    let rec loop () =
      let line = read_line zapi req_r in
      if line = "" then () (* coordinator closed the request pipe *)
      else begin
        (* Split on the first space only: variant names may contain
           spaces ("Lighttpd (wrk).v0"). *)
        let verb, payload =
          match String.index_opt line ' ' with
          | Some i ->
            ( String.sub line 0 i,
              String.sub line (i + 1) (String.length line - i - 1) )
          | None -> (line, "")
        in
        if verb = "FORK" && payload <> "" then begin
          let name = payload in
          let child = K.fork_proc k zproc name in
          (* Close the inherited protocol pipes in the child, as the real
             zygote does — otherwise the request pipe never reaches EOF. *)
          let child_api = Api.direct k child in
          List.iter
            (fun fd -> ignore (Api.close child_api fd))
            [ coord_end; zygote_end ];
          launcher child ~name;
          t.served <- t.served + 1;
          ignore
            (Api.write_str zapi resp_w
               (Printf.sprintf "OK %d\n" child.Varan_kernel.Types.pid));
          loop ()
        end
        else begin
          ignore (Api.write_str zapi resp_w "ERR\n");
          loop ()
        end
      end
    in
    loop ()
  in
  let tid = E.spawn_here ~name:"zygote" service in
  K.register_task k zproc tid;
  t

let fork_request t name =
  while t.busy do
    E.Cond.wait t.turn
  done;
  t.busy <- true;
  let release () =
    t.busy <- false;
    E.Cond.signal t.turn
  in
  match
    (match
       Api.write_str t.coord_api t.req_w (Printf.sprintf "FORK %s\n" name)
     with
    | Ok _ -> ()
    | Error _ -> failwith "zygote: request pipe broken");
    let reply = read_line t.coord_api t.resp_r in
    match String.split_on_char ' ' reply with
    | [ "OK"; pid ] -> int_of_string pid
    | _ -> failwith ("zygote: unexpected reply " ^ reply)
  with
  | pid ->
    release ();
    pid
  | exception e ->
    release ();
    raise e

let shutdown t = ignore (Api.close t.coord_api t.req_w)
let forks_served t = t.served
