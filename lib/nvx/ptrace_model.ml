module Cost = Varan_cycles.Cost
module Args = Varan_syscall.Args

let per_syscall_overhead (c : Cost.t) =
  (2 * c.Cost.ptrace_stop) + c.Cost.ptrace_getregs + c.Cost.ptrace_setregs
  + c.Cost.lockstep_rendezvous

let copy_cost (c : Cost.t) ~bytes =
  Cost.copy_cycles ~rate_c100:c.Cost.ptrace_copy_per_byte_c100 bytes

let arg_copy_cost c args = copy_cost c ~bytes:(Args.payload_size args)

let result_copy_cost c (result : Args.result) =
  let bytes =
    match result.Args.out with Some b -> Bytes.length b | None -> 0
  in
  copy_cost c ~bytes
