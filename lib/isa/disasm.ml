type item = { addr : int; insn : Insn.t option; len : int }

let sweep buf =
  let len = Bytes.length buf in
  let rec go addr acc =
    if addr >= len then List.rev acc
    else
      match Insn.decode buf addr with
      | Some (insn, ilen) ->
        go (addr + ilen) ({ addr; insn = Some insn; len = ilen } :: acc)
      | None -> go (addr + 1) ({ addr; insn = None; len = 1 } :: acc)
  in
  go 0 []

type scan = { targets : Bytes.t; syscalls : int array }

let scan buf =
  let len = Bytes.length buf in
  let targets = Bytes.make len '\000' in
  let rec go addr syscalls =
    if addr >= len then syscalls
    else
      match Insn.decode buf addr with
      | None -> go (addr + 1) syscalls
      | Some (Insn.Syscall, ilen) -> go (addr + ilen) (addr :: syscalls)
      | Some (insn, ilen) ->
        (match Insn.branch_target ~at:addr insn with
        | Some t when t >= 0 && t < len -> Bytes.unsafe_set targets t '\001'
        | _ -> ());
        go (addr + ilen) syscalls
  in
  let syscalls = Array.of_list (List.rev (go 0 [])) in
  { targets; syscalls }

let is_target s addr =
  addr >= 0
  && addr < Bytes.length s.targets
  && Bytes.get s.targets addr <> '\000'
