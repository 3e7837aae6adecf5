module E = Varan_sim.Engine
module Cond = E.Cond
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Types = Varan_kernel.Types
module Sysno = Varan_syscall.Sysno
module Args = Varan_syscall.Args
module Cost = Varan_cycles.Cost

exception Lockstep_divergence of string

(* One rendezvous round: every variant arrives with its syscall, the
   executor (variant 0) performs it once, everyone copies the result. *)
type round = {
  mutable call : Sysno.t option;
  mutable arrived : int;
  mutable result : Args.result option;
  mutable taken : int;
}

type barrier = {
  mutable current : round;
  b_cond : Cond.cond;
  expected : unit -> int; (* alive variants *)
}

let fresh_round () = { call = None; arrived = 0; result = None; taken = 0 }

type vst = {
  idx : int;
  variant : Variant.t;
  mutable proc : Types.proc option;
  mutable unit_procs : Types.proc array;
  mutable syscalls : int;
  mutable alive : bool;
}

type t = {
  k : Types.t;
  cost : Cost.t;
  vstates : vst array;
  barriers : barrier array; (* per tuple *)
  mutable rendezvous_count : int;
  mutable divergence_count : int;
}

let alive_count t =
  Array.fold_left (fun n v -> if v.alive then n + 1 else n) 0 t.vstates

(* Per-variant ptrace interception costs, from the documented model. *)
let charge_ptrace_stops t = E.consume (Ptrace_model.per_syscall_overhead t.cost)
let charge_arg_copy t args = E.consume (Ptrace_model.arg_copy_cost t.cost args)

let charge_result_copy t result =
  E.consume (Ptrace_model.result_copy_cost t.cost result)

let rendezvous t vst ~tuple executor_proc sysno args =
  let b = t.barriers.(tuple) in
  let r = b.current in
  (match r.call with
  | None -> r.call <- Some sysno
  | Some expected when Sysno.equal expected sysno -> ()
  | Some expected ->
    t.divergence_count <- t.divergence_count + 1;
    Cond.broadcast b.b_cond;
    raise
      (Lockstep_divergence
         (Printf.sprintf "%s arrived at %s while others are at %s"
            vst.variant.Variant.v_name (Sysno.name sysno) (Sysno.name expected))));
  r.arrived <- r.arrived + 1;
  if r.arrived >= b.expected () then Cond.broadcast b.b_cond
  else
    while r.arrived < b.expected () do
      Cond.wait b.b_cond
    done;
  (* Monitor copies the arguments out of each variant. *)
  charge_arg_copy t args;
  let result =
    if vst.idx = 0 || not t.vstates.(0).alive then begin
      match r.result with
      | Some res -> res
      | None ->
        let res = K.exec t.k executor_proc sysno args in
        r.result <- Some res;
        t.rendezvous_count <- t.rendezvous_count + 1;
        Cond.broadcast b.b_cond;
        res
    end
    else begin
      while r.result = None do
        Cond.wait b.b_cond
      done;
      match r.result with Some res -> res | None -> assert false
    end
  in
  charge_result_copy t result;
  r.taken <- r.taken + 1;
  if r.taken >= b.expected () then begin
    b.current <- fresh_round ();
    Cond.broadcast b.b_cond
  end;
  result

let interposed t vst ~unit_idx proc sysno args =
  vst.syscalls <- vst.syscalls + 1;
  match Sysno.transfer_class sysno with
  | Sysno.Vdso ->
    (* Invisible to ptrace: executed locally by every variant. *)
    K.exec t.k proc sysno args
  | Sysno.Process_local ->
    charge_ptrace_stops t;
    K.exec t.k proc sysno args
  | _ ->
    charge_ptrace_stops t;
    let executor_proc =
      match t.vstates.(0).unit_procs with
      | [||] -> proc
      | procs -> procs.(unit_idx)
    in
    rendezvous t vst ~tuple:unit_idx executor_proc sysno args

let start_variant t vst =
  let program = vst.variant.Variant.program in
  let main_proc = K.new_proc t.k vst.variant.Variant.v_name in
  vst.proc <- Some main_proc;
  vst.unit_procs <-
    Array.init program.Variant.units (fun u ->
        match program.Variant.unit_kind with
        | Variant.Thread -> main_proc
        | Variant.Process ->
          if u = 0 then main_proc
          else
            K.fork_proc t.k main_proc
              (Printf.sprintf "%s.worker%d" vst.variant.Variant.v_name u));
  for u = 0 to program.Variant.units - 1 do
    let proc = vst.unit_procs.(u) in
    let api =
      Api.with_sys proc (fun sysno args ->
          interposed t vst ~unit_idx:u proc sysno args)
    in
    let scale =
      vst.variant.Variant.compute_multiplier_c1000
      * Cost.mem_slowdown_c1000 t.cost
          ~intensity_c1000:vst.variant.Variant.mem_intensity_c1000
          ~variants:(Array.length t.vstates)
      / 1000
    in
    api.Api.compute_scale_c1000 <- scale;
    let tid =
      E.spawn t.k.Types.eng
        ~name:(Printf.sprintf "ls.%s.unit%d" vst.variant.Variant.v_name u)
        (fun () ->
          try program.Variant.body ~unit_idx:u api with
          | E.Killed -> ()
          | Lockstep_divergence _ -> vst.alive <- false
          | _ -> vst.alive <- false)
    in
    K.register_task t.k proc tid
  done

let launch k variants =
  if variants = [] then invalid_arg "Lockstep.launch: no variants";
  let variants = Array.of_list variants in
  let shape = variants.(0).Variant.program in
  let t =
    {
      k;
      cost = K.cost k;
      vstates =
        Array.mapi
          (fun idx variant ->
            { idx; variant; proc = None; unit_procs = [||]; syscalls = 0; alive = true })
          variants;
      barriers = [||];
      rendezvous_count = 0;
      divergence_count = 0;
    }
  in
  let barriers =
    Array.init shape.Variant.units (fun i ->
        {
          current = fresh_round ();
          b_cond = Cond.create (Printf.sprintf "lockstep-barrier%d" i);
          expected = (fun () -> alive_count t);
        })
  in
  let t = { t with barriers } in
  Array.iter (fun vst -> start_variant t vst) t.vstates;
  t

type stats = {
  rendezvous : int;
  per_variant_syscalls : int array;
  divergences : int;
}

let stats t =
  {
    rendezvous = t.rendezvous_count;
    per_variant_syscalls = Array.map (fun v -> v.syscalls) t.vstates;
    divergences = t.divergence_count;
  }
