(** Measurement driver: run a workload natively, under VARAN, under the
    ptrace lockstep baseline, under the Scribe model, or under VARAN with
    a recorder attached — each in a fresh simulated machine — and report
    throughput, latency and overhead. *)

type measurement = {
  m_label : string;
  requests : int;
  errors : int;
  throughput_rps : float;
  mean_latency_us : float;
  p50_us : float;  (** median request latency, virtual µs *)
  p99_us : float;
  p999_us : float;  (** the serving tail the paper's Figure 5 hides *)
  duration_cycles : int64;
}

type mode =
  | Native
  | Nvx of { followers : int; config : Varan_nvx.Config.t }
  | Lockstep of { versions : int }  (** total versions, lockstep monitor *)
  | Scribe
  | Nvx_record of { followers : int; log_path : string }

val measurement_of_result :
  string -> Varan_cycles.Cost.t -> Clients.result -> measurement
(** Fold a finished client result (closed- or open-loop) into a row. *)

val run : Workload.t -> mode -> measurement
(** Build a fresh engine/kernel, start the server(s) in the requested
    mode, run the load to completion and measure from the client side. *)

val strace : Workload.t -> Varan_kernel.Types.t * Varan_kernel.Strace.t
(** Run the workload natively, as {!run} [Native] does, with unit 0's
    API wrapped in {!Varan_kernel.Strace.attach}; returns the machine as
    the run left it and unit 0's trace. *)

val run_with_full_session :
  Workload.t ->
  followers:int ->
  config:Varan_nvx.Config.t ->
  measurement * Varan_nvx.Session.t
(** {!run} with [Nvx], labelled ["varan"], also returning the finished
    session: its {!Varan_nvx.Session.stats} (stall cycles, dispatch mix,
    ring stats, observed lag, lifecycle report) and its trace. *)

val overhead : baseline:measurement -> measurement -> float
(** Throughput-based overhead ratio, the paper's metric: ≥ 1.0 means
    slower than baseline. *)

(** {1 SPEC (compute-bound) runs} *)

val run_spec : Spec.params -> followers:int -> float
(** Leader completion-time overhead vs a native run of the same kernel
    with the given number of followers (0 = interception only). *)

val run_spec_lockstep : Spec.params -> versions:int -> float
(** The same benchmark under the ptrace lockstep monitor. *)
