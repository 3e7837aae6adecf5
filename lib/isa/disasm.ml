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

(* One pass through the scanner: no instruction value, no closure, and
   nothing allocated per instruction but a cons per syscall. *)
let scan buf =
  let len = Bytes.length buf in
  let targets = Bytes.make len '\000' in
  let syscalls = ref [] in
  let addr = ref 0 in
  while !addr < len do
    let a = !addr in
    match Insn.length_at buf a with
    | 0 -> addr := a + 1
    | ilen ->
      if Insn.is_syscall_at buf a then syscalls := a :: !syscalls
      else begin
        let t = Insn.branch_target_at buf a in
        if t >= 0 && t < len then Bytes.unsafe_set targets t '\001'
      end;
      addr := a + ilen
  done;
  { targets; syscalls = Array.of_list (List.rev !syscalls) }

let is_target s addr =
  addr >= 0
  && addr < Bytes.length s.targets
  && Bytes.get s.targets addr <> '\000'
