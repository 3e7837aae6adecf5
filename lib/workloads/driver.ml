module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Types = Varan_kernel.Types
module Cost = Varan_cycles.Cost
module Nvx = Varan_nvx.Session
module Config = Varan_nvx.Config
module Variant = Varan_nvx.Variant
module Lockstep = Varan_nvx.Lockstep
module Record_replay = Varan_nvx.Record_replay

type measurement = {
  m_label : string;
  requests : int;
  errors : int;
  throughput_rps : float;
  mean_latency_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  duration_cycles : int64;
}

type mode =
  | Native
  | Nvx of { followers : int; config : Config.t }
  | Lockstep of { versions : int }
  | Scribe
  | Nvx_record of { followers : int; log_path : string }

let default_link_latency = 3_500 (* 1 us one way: same-rack, kernel-bypass client *)

(* Run a server natively (or with a wrapped API) by replicating the unit
   structure the NVX session would create: threads share one process,
   process units fork from the first. [api_of u proc] is unit [u]'s API. *)
let start_plain w k ~api_of =
  let body = w.Workload.make_body () in
  let main_proc = K.new_proc k w.Workload.w_name in
  let unit_procs =
    Array.init w.Workload.units (fun u ->
        match w.Workload.unit_kind with
        | Variant.Thread -> main_proc
        | Variant.Process ->
          if u = 0 then main_proc
          else K.fork_proc k main_proc (Printf.sprintf "worker%d" u))
  in
  Array.iteri
    (fun u proc ->
      let api = api_of u proc in
      let tid =
        E.spawn (K.engine k)
          ~name:(Printf.sprintf "%s.unit%d" w.Workload.w_name u)
          (fun () -> try body ~unit_idx:u api with E.Killed -> ())
      in
      K.register_task k proc tid)
    unit_procs

let variants_for w n =
  List.init n (fun i ->
      Workload.fresh_variant w (Printf.sprintf "%s.v%d" w.Workload.w_name i))

(* Fold a finished client result into a measurement row; shared by the
   closed-loop path here and the open-loop serving scenario. *)
let measurement_of_result label cost result =
  let p50, p99, p999 =
    match Clients.latency_summary result with
    | None -> (0.0, 0.0, 0.0)
    | Some s ->
      Varan_util.Stats.(s.median, s.p99, s.p999)
  in
  {
    m_label = label;
    requests = result.Clients.completed;
    errors = result.Clients.errors;
    throughput_rps = Clients.throughput_rps cost result;
    mean_latency_us = Clients.mean_latency_us result;
    p50_us = p50;
    p99_us = p99;
    p999_us = p999;
    duration_cycles = Clients.duration_cycles result;
  }

let measure_clients label k cost w =
  let result =
    Clients.launch k ~cost ~port_of:(Workload.port_of_conn w) w.Workload.load
  in
  (result, fun () -> measurement_of_result label cost result)

let fresh_machine w =
  let eng = E.create () in
  let k = K.create ~link_latency:default_link_latency eng in
  w.Workload.setup_fs k;
  (eng, k)

(* Every client-measured run: a fresh machine, the servers [start]
   launches (returning the monitored session, if any), the load driven
   to quiescence, and the session's lags sampled once it is. *)
let drive w label start =
  let eng, k = fresh_machine w in
  let session = start k in
  let _result, finish = measure_clients label k (K.cost k) w in
  E.run_until_quiescent eng;
  Option.iter Nvx.observe_lags session;
  (finish (), session)

let launch_nvx w ~followers ~config k =
  Nvx.launch ~config k (variants_for w (followers + 1))

let run w mode =
  let plain api_of k =
    start_plain w k ~api_of:(api_of k);
    None
  in
  fst
    (match mode with
    | Native -> drive w "native" (plain (fun k _ proc -> Api.direct k proc))
    | Scribe ->
      drive w "scribe" (plain (fun k _ proc -> Record_replay.scribe_api k proc))
    | Nvx { followers; config } ->
      drive w (Printf.sprintf "varan+%df" followers) (fun k ->
          Some (launch_nvx w ~followers ~config k))
    | Lockstep { versions } ->
      drive w (Printf.sprintf "lockstep%dv" versions) (fun k ->
          ignore (Lockstep.launch k (variants_for w versions));
          None)
    | Nvx_record { followers; log_path } ->
      drive w (Printf.sprintf "varan+rec+%df" followers) (fun k ->
          let session = launch_nvx w ~followers ~config:Config.default k in
          ignore (Record_replay.record session k ~tuple:0 ~path:log_path);
          Some session))

let run_with_full_session w ~followers ~config =
  let m, session =
    drive w "varan" (fun k -> Some (launch_nvx w ~followers ~config k))
  in
  (m, Option.get session)

let strace w =
  let eng, k = fresh_machine w in
  let trace = ref None in
  start_plain w k ~api_of:(fun u proc ->
      let api = Api.direct k proc in
      if u > 0 then api
      else begin
        let wrapped, tr = Varan_kernel.Strace.attach api in
        trace := Some tr;
        wrapped
      end);
  ignore (measure_clients "native" k (K.cost k) w);
  E.run_until_quiescent eng;
  (k, Option.get !trace)

let overhead ~baseline m =
  if m.throughput_rps <= 0.0 then infinity
  else baseline.throughput_rps /. m.throughput_rps

(* ------------------------------------------------------------------ *)
(* SPEC                                                                 *)
(* ------------------------------------------------------------------ *)

(* Completion time of one native run. *)
let spec_native_cycles params =
  let eng = E.create () in
  let k = K.create eng in
  Spec.setup_fs k;
  let done_at = ref 0L in
  let proc = K.new_proc k params.Spec.sp_name in
  let tid =
    E.spawn eng ~name:params.Spec.sp_name (fun () ->
        let api = Api.direct k proc in
        Spec.make_body params () ~unit_idx:0 api;
        done_at := E.now_cycles ())
  in
  K.register_task k proc tid;
  E.run_until_quiescent eng;
  !done_at

(* Completion time of the leader of [versions] copies of the kernel
   started by [launch]; the leader's body is wrapped to capture it, the
   others get plain copies. *)
let spec_leader_cycles params ~versions launch =
  let eng = E.create () in
  let k = K.create eng in
  Spec.setup_fs k;
  let leader_done = ref 0L in
  let base = Spec.variant_of params (params.Spec.sp_name ^ ".v0") in
  let leader =
    {
      base with
      Variant.program =
        {
          base.Variant.program with
          Variant.body =
            (fun ~unit_idx api ->
              base.Variant.program.Variant.body ~unit_idx api;
              leader_done := E.now_cycles ());
        };
    }
  in
  let others =
    List.init (versions - 1) (fun i ->
        Spec.variant_of params (Printf.sprintf "%s.v%d" params.Spec.sp_name (i + 1)))
  in
  launch k (leader :: others);
  E.run_until_quiescent eng;
  !leader_done

let run_spec params ~followers =
  let native = Int64.to_float (spec_native_cycles params) in
  let nvx =
    Int64.to_float
      (spec_leader_cycles params ~versions:(followers + 1) (fun k vs ->
           ignore (Nvx.launch k vs)))
  in
  if native <= 0.0 then infinity else nvx /. native

let run_spec_lockstep params ~versions =
  let native = Int64.to_float (spec_native_cycles params) in
  let ls =
    Int64.to_float
      (spec_leader_cycles params ~versions (fun k vs ->
           ignore (Lockstep.launch k vs)))
  in
  if native <= 0.0 then infinity else ls /. native
