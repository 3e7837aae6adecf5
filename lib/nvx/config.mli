(** NVX session configuration.

    Beyond the paper's defaults, the knobs expose the ablations DESIGN.md
    calls out: trap-only interception (no detouring), per-follower queues
    with an event pump instead of the shared ring (the prototype's
    discarded first design, §3.3.1), and pure busy-waiting instead of
    waitlocks.

    The session always orders a multi-threaded variant's events by
    Lamport clock (§3.3.3), and takes its cost model from the kernel
    ({!Varan_kernel.Kernel.cost}). *)

type interception =
  | Rewrite  (** selective binary rewriting: jump detours + INT3 fallback *)
  | Trap_only  (** every syscall through the INT3/signal path (ablation) *)
  | Jump_only
      (** assume every site was detourable — used by the microbenchmarks,
          whose loop bodies have no branch targets next to the syscall *)

type follower_wait =
  | Waitlock  (** futex-backed blocking for blocking syscalls (§3.3.1) *)
  | Busy_wait  (** spin on the ring cursor for everything (ablation) *)

type streaming =
  | Shared_ring  (** the Disruptor-pattern shared ring buffer *)
  | Event_pump
      (** one queue per follower plus a pump task dispatching events —
          the design the paper discarded as a bottleneck (ablation) *)

type net = {
  remote_followers : int;
      (** how many followers (the highest-indexed ones) live on the
          remote node and consume the bridge's mirror ring; the leader is
          always local *)
  link_latency : int;  (** per-frame link latency, cycles *)
}
(** The bridge runs {!Varan_net.Bridge.default_config} over a link with
    {!Varan_net.Link.create}'s bandwidth model. *)

val default_net : net

type t = {
  ring_size : int;  (** default 256 events *)
  interception : interception;
  follower_wait : follower_wait;
  streaming : streaming;
  trace_first_variant : bool;
      (** attach an strace-style tracer to variant 0's main unit — the
          paper's point that ptrace-based tooling still works on VARAN'd
          programs (§3.1), available here even under the monitor *)
  fault_plan : Varan_fault.Plan.t;
      (** deterministic injections (crashes, stalls, ring pressure,
          signal bursts) applied at precise stream sequence numbers; the
          default empty plan changes nothing *)
  oracle : Varan_trace.Oracle.t option;
      (** when set, the session taps every tuple ring and reports stream
          bookkeeping to the trace-invariant oracle *)
  lifecycle : Lifecycle.policy option;
      (** when set, the follower lifecycle manager runs: a watchdog
          quarantines stalled followers (so the leader never blocks on
          them), respawns them from the zygote with exponential backoff,
          and replays the session tape to splice them back into the live
          ring; below [min_followers] the session degrades gracefully to
          native-speed leader-only execution. [None] (the default) keeps
          the original terminal-removal behaviour *)
  net : net option;
      (** when set, the last [remote_followers] variants run on a
          simulated remote node fed by the cross-node ring bridge
          (latency, bandwidth, partitions, the [Unreachable] lifecycle
          state). Requires [lifecycle] and [Shared_ring]. [None] keeps
          everything on one node *)
}

val default : t
val with_ring_size : t -> int -> t
