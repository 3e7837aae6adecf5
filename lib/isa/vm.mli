(** A small virtual machine executing the synthetic ISA.

    Used to {e prove} that binary rewriting preserves program semantics:
    tests run the same program before and after rewriting, with the same
    syscall implementation, and compare final register/memory state and
    the syscall trace. Nothing in [lib/] runs it: it is the reference
    the rewriting tests compare against.

    Executing [Syscall], [Int3] or [Int _] invokes the [on_syscall] hook —
    the VM equivalent of trapping to a monitor. Executing [Hook site]
    invokes [on_hook], the rewriter-installed monitor entry point; if no
    hook handler is installed the instruction faults. *)

type state = {
  regs : int array;  (** 8 general-purpose registers *)
  mutable zf : bool;  (** zero flag, set by [Cmp]/[Test] *)
  mutable sf : bool;  (** sign flag (a < b after [Cmp]) *)
  mutable pc : int;
  mutable stack : int list;
  mem : (int, int) Hashtbl.t;  (** word-addressed data memory *)
  mutable steps : int;
  mutable trace : trace_entry list;  (** reversed execution trace *)
}

and trace_entry =
  | T_syscall of int * int array  (** syscall number, argument registers *)
  | T_trap of int  (** INT3 (-1) or INT vector *)
  | T_hook of int  (** monitor entry with site id *)

exception Fault of string
(** Raised on invalid opcodes, stack underflow, or out-of-range PC. *)

type hooks = {
  on_syscall : state -> unit;
      (** receives the state with R0 = sysno, R1–R6 = args; writes the
          result into R0 *)
  on_hook : (int -> state -> unit) option;
      (** monitor entry point for rewritten sites *)
  on_trap : (int -> state -> unit) option;
      (** INT/INT3 handler (the rewriter's signal-handler path) *)
}

val run : ?hooks:hooks -> ?max_steps:int -> Bytes.t -> entry:int -> state
(** Execute until [Hlt], a [Ret] with an empty stack, or [max_steps]
    (default 100_000; exceeding it faults). *)

val syscall_trace : state -> (int * int array) list
(** Syscalls in execution order (from both direct [Syscall] execution and
    hook/trap handlers that chose to record one). *)

val record_syscall : state -> unit
(** Helper for custom hooks: append a [T_syscall] entry for the current
    R0/R1–R6 and set R0 := 0. *)
