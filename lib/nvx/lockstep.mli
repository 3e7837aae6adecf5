(** The ptrace-based lockstep monitor — the prior-work baseline.

    Models the architecture of Mx, Orchestra and Tachyon (§2.2, §7): a
    centralised monitor intercepts every system call of every variant
    through ptrace (two stops per call, register reads/writes, and
    word-by-word user-memory copies), runs the variants in {e lockstep} —
    all must rendezvous at the same syscall before anyone proceeds — and
    executes the call once, copying results back into each variant.

    Two structural properties follow and are what VARAN improves on:
    the centralised monitor is a per-syscall bottleneck, and any
    divergence in the syscall sequence is fatal. Virtual (vDSO) calls are
    {e not} intercepted — ptrace cannot see them (§3.2.1) — so each
    variant executes them locally. *)

type t

exception Lockstep_divergence of string
(** Raised into every variant when they rendezvous on different calls. *)

val launch : Varan_kernel.Types.t -> Variant.t list -> t
(** Start all variants under the lockstep monitor. The first variant's
    process is the one whose descriptor table backs real execution. *)

type stats = {
  rendezvous : int;  (** syscall rendezvous completed *)
  per_variant_syscalls : int array;
  divergences : int;
}

val stats : t -> stats
