module Sysno = Varan_syscall.Sysno
module Args = Varan_syscall.Args

type t = {
  mutable entries : string list; (* reversed *)
  mutable kept : int;
  mutable total : int;
  limit : int;
}

(* Escaped prefix of an out-buffer payload, mirroring strace's string
   rendering, so traces show what came back and not just how many bytes. *)
let preview_bytes b =
  let buf = Buffer.create 24 in
  let n = Bytes.length b in
  let shown = min n 16 in
  Buffer.add_char buf '"';
  for i = 0 to shown - 1 do
    let c = Bytes.get b i in
    if c >= ' ' && c <= '~' && c <> '"' && c <> '\\' then Buffer.add_char buf c
    else Buffer.add_string buf (Printf.sprintf "\\x%02x" (Char.code c))
  done;
  if n > shown then Buffer.add_string buf "..";
  Buffer.add_char buf '"';
  Buffer.contents buf

let format_call sysno args result =
  let base =
    Format.asprintf "%s%a = %a" (Sysno.name sysno) Args.pp args Args.pp_result
      result
  in
  match result.Args.out with
  | Some b when Bytes.length b > 0 -> base ^ " " ^ preview_bytes b
  | _ -> base

let attach ?(limit = 10_000) (api : Api.t) =
  let t = { entries = []; kept = 0; total = 0; limit } in
  let sys sysno args =
    let result = api.Api.sys sysno args in
    t.total <- t.total + 1;
    if t.kept < t.limit then begin
      t.entries <- format_call sysno args result :: t.entries;
      t.kept <- t.kept + 1
    end;
    result
  in
  let wrapped = Api.with_sys api.Api.proc sys in
  wrapped.Api.compute_scale_c1000 <- api.Api.compute_scale_c1000;
  (wrapped, t)

let lines t = List.rev t.entries
let calls t = t.total
