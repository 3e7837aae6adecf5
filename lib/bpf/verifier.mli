(** Static verification of BPF filters.

    Mirrors the kernel's checker: filters are verified when loaded "to
    ensure termination" (§3.4). A program passes iff it is non-empty and
    within the size cap, every jump lands inside the program (offsets are
    non-negative by construction, so control flow only moves forward),
    every reachable path ends in a [Ret], and memory offsets are sane. *)

val verify : Insn.t array -> (unit, string) result
(** [Error msg] pinpoints the offending instruction. *)
