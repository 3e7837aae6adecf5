open Varan_kernel
module Flags = Varan_kernel.Flags

type config = {
  port : int;
  units : int;
  aof_path : string option;
  work_cycles : int;
  expected_conns : int;
  crash_on_hmget : bool;
}

let cmd s = Bytes.of_string s

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Varan_syscall.Errno.name e)

type store = {
  strings : (string, string) Hashtbl.t;
  hashes : (string, (string, string) Hashtbl.t) Hashtbl.t;
}

let append_aof cfg api line =
  match cfg.aof_path with
  | None -> ()
  | Some path ->
    let fd =
      ok_exn "open aof"
        (Api.openf api path (Flags.o_wronly lor Flags.o_creat lor Flags.o_append))
    in
    ignore (Api.write_str api fd (line ^ "\n"));
    ignore (Api.close api fd)

let handle cfg store api req =
  Api.compute api cfg.work_cycles;
  (* redis reads the clock on every command (LRU bookkeeping, expiry). *)
  ignore (Api.time api);
  let text = Bytes.to_string req in
  let reply =
    match String.split_on_char ' ' text with
    | [ "PING" ] -> "PONG"
    | "SET" :: key :: value ->
      let value = String.concat " " value in
      Hashtbl.replace store.strings key value;
      append_aof cfg api text;
      "OK"
    | [ "GET"; key ] -> (
      match Hashtbl.find_opt store.strings key with
      | Some v -> v
      | None -> "(nil)")
    | [ "HSET"; key; field; value ] ->
      let h =
        match Hashtbl.find_opt store.hashes key with
        | Some h -> h
        | None ->
          let h = Hashtbl.create 8 in
          Hashtbl.replace store.hashes key h;
          h
      in
      Hashtbl.replace h field value;
      append_aof cfg api text;
      "OK"
    | "HMGET" :: key :: fields ->
      if cfg.crash_on_hmget then failwith "segfault (HMGET bug)";
      let h = Hashtbl.find_opt store.hashes key in
      let lookup f =
        match h with
        | None -> "(nil)"
        | Some h -> (
          match Hashtbl.find_opt h f with Some v -> v | None -> "(nil)")
      in
      String.concat " " (List.map lookup fields)
    | [ "INCR"; key ] ->
      let v =
        match Hashtbl.find_opt store.strings key with
        | Some v -> (try int_of_string v with _ -> 0)
        | None -> 0
      in
      let v = v + 1 in
      Hashtbl.replace store.strings key (string_of_int v);
      append_aof cfg api text;
      string_of_int v
    | _ -> "ERR unknown command"
  in
  Proto.frame_of_string reply

let make_body cfg () =
  let store = { strings = Hashtbl.create 256; hashes = Hashtbl.create 64 } in
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
