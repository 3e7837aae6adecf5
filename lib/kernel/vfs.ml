open Types
module Errno = Varan_syscall.Errno

let normalize ~cwd path =
  let full = if String.length path > 0 && path.[0] = '/' then path else cwd ^ "/" ^ path in
  let parts = String.split_on_char '/' full in
  let push acc = function
    | "" | "." -> acc
    | ".." -> (match acc with [] -> [] | _ :: tl -> tl)
    | comp -> comp :: acc
  in
  List.rev (List.fold_left push [] parts)

let as_dir = function
  | Directory d -> Ok d
  | Regular _ | Dev_null | Dev_zero | Dev_urandom -> Error Errno.ENOTDIR

let root_dir k =
  match k.root with
  | Directory d -> d
  | _ -> assert false

let lookup k ~cwd path =
  let rec walk node = function
    | [] -> Ok node
    | comp :: rest -> (
      match as_dir node with
      | Error e -> Error e
      | Ok d -> (
        match Hashtbl.find_opt d comp with
        | None -> Error Errno.ENOENT
        | Some child -> walk child rest))
  in
  walk k.root (normalize ~cwd path)

let lookup_parent k ~cwd path =
  match List.rev (normalize ~cwd path) with
  | [] -> Error Errno.EINVAL
  | last :: rev_prefix ->
    let prefix = List.rev rev_prefix in
    let rec walk node = function
      | [] -> (
        match as_dir node with Ok d -> Ok (d, last) | Error e -> Error e)
      | comp :: rest -> (
        match as_dir node with
        | Error e -> Error e
        | Ok d -> (
          match Hashtbl.find_opt d comp with
          | None -> Error Errno.ENOENT
          | Some child -> walk child rest))
    in
    walk k.root prefix

let create_file k ~cwd path =
  match lookup_parent k ~cwd path with
  | Error e -> Error e
  | Ok (dir, name) -> (
    match Hashtbl.find_opt dir name with
    | Some (Directory _) -> Error Errno.EISDIR
    | Some existing -> Ok existing
    | None ->
      let node = Regular { content = Bytes.empty; size = 0 } in
      Hashtbl.replace dir name node;
      Ok node)

let mkdir k ~cwd path =
  match lookup_parent k ~cwd path with
  | Error e -> Error e
  | Ok (dir, name) ->
    if Hashtbl.mem dir name then Error Errno.EEXIST
    else begin
      Hashtbl.replace dir name (Directory (Hashtbl.create 8));
      Ok ()
    end

let unlink k ~cwd path =
  match lookup_parent k ~cwd path with
  | Error e -> Error e
  | Ok (dir, name) -> (
    match Hashtbl.find_opt dir name with
    | None -> Error Errno.ENOENT
    | Some (Directory _) -> Error Errno.EISDIR
    | Some _ ->
      Hashtbl.remove dir name;
      Ok ())

let rmdir k ~cwd path =
  match lookup_parent k ~cwd path with
  | Error e -> Error e
  | Ok (dir, name) -> (
    match Hashtbl.find_opt dir name with
    | None -> Error Errno.ENOENT
    | Some (Directory d) ->
      if Hashtbl.length d > 0 then Error Errno.ENOTEMPTY
      else begin
        Hashtbl.remove dir name;
        Ok ()
      end
    | Some _ -> Error Errno.ENOTDIR)

let rename k ~cwd src dst =
  match lookup_parent k ~cwd src with
  | Error e -> Error e
  | Ok (src_dir, src_name) -> (
    match Hashtbl.find_opt src_dir src_name with
    | None -> Error Errno.ENOENT
    | Some node -> (
      match lookup_parent k ~cwd dst with
      | Error e -> Error e
      | Ok (dst_dir, dst_name) ->
        Hashtbl.remove src_dir src_name;
        Hashtbl.replace dst_dir dst_name node;
        Ok ()))

let add_file k path contents =
  let comps = normalize ~cwd:"/" path in
  if comps = [] then invalid_arg "Vfs.add_file: empty path";
  let rec ensure dir = function
    | [] -> assert false
    | [ name ] ->
      Hashtbl.replace dir name
        (Regular
           { content = Bytes.of_string contents; size = String.length contents })
    | comp :: rest -> (
      match Hashtbl.find_opt dir comp with
      | Some (Directory d) -> ensure d rest
      | Some _ -> invalid_arg "Vfs.add_file: component is a file"
      | None ->
        let d = Hashtbl.create 8 in
        Hashtbl.replace dir comp (Directory d);
        ensure d rest)
  in
  ensure (root_dir k) comps

let file_size = function
  | Regular r -> r.size
  | Directory _ | Dev_null | Dev_zero | Dev_urandom -> 0

let read_file k path =
  match lookup k ~cwd:"/" path with
  | Ok (Regular r) -> Some (Bytes.sub_string r.content 0 r.size)
  | _ -> None
