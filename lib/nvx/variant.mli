(** Variant (version) descriptors.

    A variant is one of the N program versions to run in parallel: its
    executable (the program body and a synthetic text-segment profile for
    the binary rewriter), an optional instrumentation cost multiplier
    (sanitized builds, §5.3), an optional BPF rewrite-rule program for
    divergences this variant is allowed to exhibit (§3.4), and a memory
    intensity driving the machine-level contention model (§4.3, §6). *)

type unit_kind =
  | Thread
      (** units share the descriptor table and one ring, ordered by the
          variant's Lamport clock (memcached, redis) *)
  | Process
      (** units are forked workers, each tuple with its own ring buffer
          (nginx) (§3.3.3) *)

type program = {
  units : int;  (** concurrent execution units (≥ 1); unit 0 is main *)
  unit_kind : unit_kind;
  body : unit_idx:int -> Varan_kernel.Api.t -> unit;
}

type code_profile = {
  code_bytes : int;  (** approximate text-segment size *)
  syscall_share : float;  (** fraction of instructions that are syscalls *)
  code_seed : int;
}

type t = {
  v_name : string;
  program : program;
  profile : code_profile;
  compute_multiplier_c1000 : int;
      (** instrumentation slowdown (ASan ≈ 2000, MSan ≈ 3000, TSan ≈
          5000–15000; §5.3); 1000 = uninstrumented *)
  mem_intensity_c1000 : int;
      (** how strongly this workload stresses the memory system, feeding
          {!Varan_cycles.Cost.mem_slowdown_c1000} *)
  rules : Varan_bpf.Insn.t array option;
      (** divergence rewrite rules applied when this variant is a
          follower *)
}

val single : ?name:string -> (Varan_kernel.Api.t -> unit) -> program
(** A single-threaded program. *)

val make :
  ?profile:code_profile ->
  ?compute_multiplier_c1000:int ->
  ?mem_intensity_c1000:int ->
  ?rules:Varan_bpf.Insn.t array ->
  string ->
  program ->
  t

val default_profile : code_profile
