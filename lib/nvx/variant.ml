type unit_kind = Thread | Process

type program = {
  units : int;
  unit_kind : unit_kind;
  body : unit_idx:int -> Varan_kernel.Api.t -> unit;
}

type code_profile = {
  code_bytes : int;
  syscall_share : float;
  code_seed : int;
}

type t = {
  v_name : string;
  program : program;
  profile : code_profile;
  compute_multiplier_c1000 : int;
  mem_intensity_c1000 : int;
  rules : Varan_bpf.Insn.t array option;
}

let default_profile = { code_bytes = 30_000; syscall_share = 0.02; code_seed = 7 }

let single ?name:_ body =
  { units = 1; unit_kind = Thread; body = (fun ~unit_idx:_ api -> body api) }

let make ?(profile = default_profile) ?(compute_multiplier_c1000 = 1000)
    ?(mem_intensity_c1000 = 300) ?rules v_name program =
  if program.units < 1 then invalid_arg "Variant.make: units must be >= 1";
  {
    v_name;
    program;
    profile;
    compute_multiplier_c1000;
    mem_intensity_c1000;
    rules;
  }
