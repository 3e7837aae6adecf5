(** The cycle cost model.

    The paper evaluates on a 3.50 GHz Intel Xeon E3-1280 (4 cores / 8
    threads) and reports per-syscall costs in cycles measured with RDTSC
    (Figure 4). Since this reproduction runs on a simulated kernel, all
    timing comes from this model: leaf costs (native syscall execution,
    interception entry, ring-buffer publish/consume, shared-memory copies,
    descriptor transfer, ptrace stops) are calibrated against the paper's
    own microbenchmark numbers, and every macro result (Figures 5–8, Tables
    1–2, §5) then {e emerges} from the simulation rather than being
    hard-coded.

    All costs are in CPU cycles. Fractional per-byte rates use integer
    micro-cycles (1/100 cycle) to keep the simulation deterministic. *)

type t = {
  (* -- native kernel costs ------------------------------------------- *)
  native_base : Varan_syscall.Sysno.t -> int;
      (** flat cost of executing the syscall natively (user→kernel→user),
          excluding per-byte transfer costs *)
  copy_per_byte_c100 : int;
      (** kernel copy_{to,from}_user cost, in 1/100 cycles per byte *)
  (* -- interception (binary rewriting, §3.2) ------------------------- *)
  intercept_jump : int;
      (** rewritten-syscall path: jump + register save/restore + syscall
          table lookup *)
  intercept_int : int;
      (** INT-trap fallback path: signal delivery + sigreturn *)
  intercept_vdso : int;  (** vDSO entry-point trampoline (§3.2.1) *)
  intercept_extra : Varan_syscall.Sysno.t -> int;
      (** per-call calibration residual measured in Figure 4 *)
  (* -- event streaming (§3.3) ---------------------------------------- *)
  publish_event : int;
      (** leader: fill a 64-byte event, bump the Lamport clock, advance the
          ring cursor *)
  publish_per_follower : int;
      (** leader: extra per-follower cost per published event (cache-line
          transfer + cursor checks) *)
  consume_event : int;
      (** follower: wait-free claim and copy of one event *)
  consume_vdso : int;
      (** follower fast path for vDSO results (value-only event) *)
  waitlock_block : int;  (** follower: futex-based block when ring empty *)
  waitlock_wake : int;  (** leader: futex wake of one blocked follower *)
  spin_check : int;  (** one busy-wait poll of the ring cursor *)
  waitlock_spin_cycles : int;
      (** adaptive-mutex spin budget before a follower actually sleeps in
          the futex (and so before the leader must pay a wake) *)
  (* -- shared memory (§3.3.4) ---------------------------------------- *)
  shmem_alloc : int;  (** pool allocator bucket hit *)
  shmem_copy_leader_c100 : int;  (** leader copy into shm, 1/100 cy/B *)
  shmem_copy_follower_c100 : int;  (** follower copy out of shm, 1/100 cy/B *)
  (* -- data channel (§3.3.2) ----------------------------------------- *)
  fd_send : int;  (** leader: SCM_RIGHTS sendmsg of one descriptor *)
  fd_recv : int;  (** follower: recvmsg + descriptor install *)
  (* -- ptrace lockstep baseline (§7, Table 2) ------------------------ *)
  ptrace_stop : int;
      (** one ptrace stop: context switch to the monitor and back *)
  ptrace_getregs : int;
  ptrace_setregs : int;
  ptrace_copy_per_byte_c100 : int;
      (** PTRACE_PEEKDATA-style word-by-word user memory copy *)
  lockstep_rendezvous : int;
      (** centralised monitor bookkeeping per syscall rendezvous *)
  (* -- BPF (§3.4) ----------------------------------------------------- *)
  bpf_per_insn : int;  (** interpreter cost per BPF instruction *)
  (* -- transparent failover (§5.1) ------------------------------------ *)
  failover_notify : int;
      (** SIGSEGV handler + coordinator notification over the control
          socket *)
  failover_promote : int;
      (** election, syscall-table switch and stream-position adoption in
          the promoted follower *)
  (* -- Scribe record-replay baseline (§5.4) --------------------------- *)
  scribe_per_syscall : int;
      (** in-kernel recording overhead per syscall (Scribe model) *)
  scribe_copy_per_byte_c100 : int;
  (* -- machine -------------------------------------------------------- *)
  cpu_ghz : float;  (** nominal frequency for cycle↔time conversion *)
  physical_cores : int;
  hw_threads : int;
  mem_linear_c1000 : int;
      (** memory-pressure model: per extra variant, slowdown in 1/1000
          units scaled by the workload's memory intensity *)
  mem_saturated_c1000 : int;
      (** additional per-variant slowdown once more than two variants
          compete for the shared caches *)
}

val default : t
(** Calibrated against Figure 4 and the prior-work overheads in Table 2. *)

val native : t -> Varan_syscall.Sysno.t -> int -> int
(** [native c sysno bytes] is the full native cost of a syscall moving
    [bytes] of payload. *)

val copy_cycles : rate_c100:int -> int -> int
(** [copy_cycles ~rate_c100 bytes] converts a per-byte micro-cycle rate
    into whole cycles (rounded up). *)

val cycles_to_us : t -> int64 -> float
(** Convert a cycle count to microseconds at the model's clock rate. *)

val us_to_cycles : t -> float -> int64

val mem_slowdown_c1000 : t -> intensity_c1000:int -> variants:int -> int
(** [mem_slowdown_c1000 c ~intensity_c1000 ~variants] is the multiplicative
    compute slowdown (in 1/1000 units, i.e. 1000 = no slowdown) suffered by
    each of [variants] copies of a workload with the given memory intensity
    running on this machine (§4.3, §6). *)
