(** Random syscall programs over the simulated API.

    The little op language the equivalence properties and the torture
    suite share: programs are deterministic given the kernel (urandom
    draws come from the kernel's seeded PRNG), always terminate, and only
    use resources they created. Every observable result — return values,
    bytes read, error names, everything except pids — folds into a digest
    string, so a native run and each variant of an NVX run can be
    compared exactly. *)

type op =
  | Open of string
  | Close_newest
  | Read_newest of int
  | Write_newest of int
  | Lseek_newest
  | Stat of string
  | Time
  | Getuid
  | Compute of int
  | Mkdir_tmp of int
  | Create_tmp of int
  | Unlink_tmp of int
  | Getrandom of int
  | Fcntl_newest
  | Install_handler
      (** install a SIGINT handler (digest-invisible side effect) so the
          fault injector's signal bursts queue instead of being dropped *)
  | Fork of op list  (** fork(2): the child runs the nested program *)

val gen_ops : Varan_util.Prng.t -> int -> op list
(** [n] random straight-line ops (no forks or handlers — those are
    spliced in by the torture harness from the fault plan). *)

val sanitize_for_fork : op -> op
(** Rewrite entropy-drawing ops into neutral ones. A forking program must
    not read the kernel's global entropy stream: parent and child
    interleave their draws differently natively and under NVX, which
    would make digests diverge for reasons unrelated to the monitor. *)

val splice_forks : Varan_util.Prng.t -> op list -> at:int list -> op list
(** Insert a [Fork] (with a freshly generated child program) before each
    op index in [at]. When [at] is non-empty the whole program is
    sanitized with {!sanitize_for_fork}. *)

(** {1 Execution} *)

type observations
(** Digest buffers for one run, keyed by execution-unit path ("0" for the
    main unit, "0.f0" for its first forked child, ...). *)

val observations : unit -> observations

val reset : observations -> unit
(** Drop every buffer. A variant respawned by the lifecycle manager
    re-runs its whole program; the harness resets its observations at
    body entry so the digest reflects exactly one complete execution. *)

val digest : observations -> string
(** Join every unit's observation buffer, sorted by unit path. *)

val interpret :
  obs:observations -> path:string -> op list -> Varan_kernel.Api.t -> unit
(** Run the program against the API, recording observables under [path];
    forked children record under [path ^ ".f<k>"]. Uses [path]-prefixed
    names under [/tmp] so concurrent units never share VFS state. *)

val run_native : ?path:string -> kernel_seed:int -> op list -> string
(** Execute the program natively (no monitor) on a fresh kernel and
    return its digest — the reference every NVX variant must match.
    [path] (default ["0"]) is the unit path the variants record under,
    which the digest embeds. *)
