module Sysno = Varan_syscall.Sysno

type disposition = Stream | Local | Virtual | Unsupported

(* Indexed by syscall number: the lookup on every interposed call is one
   array read. *)
type t = { tname : string; entries : disposition array }

let name t = t.tname

let lookup t sysno =
  let nr = Sysno.to_int sysno in
  if nr < Array.length t.entries then Array.unsafe_get t.entries nr
  else Unsupported

let disposition_of_class (sysno : Sysno.t) =
  match Sysno.transfer_class sysno with
  | Sysno.Process_local -> Local
  | Sysno.Vdso -> Virtual
  | Sysno.By_value | Sysno.Out_buffer | Sysno.In_buffer | Sysno.New_fd
  | Sysno.Process_control ->
    Stream

let size = 1 + List.fold_left (fun m s -> max m (Sysno.to_int s)) 0 Sysno.all

let default_table tname =
  let entries = Array.make size Unsupported in
  List.iter
    (fun sysno -> entries.(Sysno.to_int sysno) <- disposition_of_class sysno)
    Sysno.all;
  { tname; entries }

let override t changes =
  let entries = Array.copy t.entries in
  List.iter (fun (sysno, d) -> entries.(Sysno.to_int sysno) <- d) changes;
  { tname = t.tname ^ "+overrides"; entries }

let leader = default_table "leader"
let follower = default_table "follower"
