type kind = Ev_syscall | Ev_signal | Ev_fork | Ev_exit

type t = {
  kind : kind;
  sysno : int;
  tid : int;
  args : int array;
  ret : int;
  clock : int;
  payload : Varan_shmem.Pool.chunk option;
  payload_len : int;
  inline_out : Bytes.t option;
  grant : Obj.t option;
}

let event_bytes = 64

let max_inline_bytes = 48

let make ?(kind = Ev_syscall) ?(tid = 0) ?(args = [||]) ?(ret = 0) ?payload
    ?(payload_len = 0) ?inline_out ?grant ~clock sysno =
  if Array.length args > 6 then
    invalid_arg "Event.make: more than six register arguments";
  (match inline_out with
  | Some b when Bytes.length b > max_inline_bytes ->
    invalid_arg "Event.make: inline payload exceeds the event size"
  | _ -> ());
  { kind; sysno; tid; args; ret; clock; payload; payload_len; inline_out; grant }

(* Cross-ring form: the payload travels inside the event, however big —
   the [max_inline_bytes] cap only governs what the leader's hot path
   will copy into a live ring slot. The tape and the cross-node bridge
   both rebuild events this way. *)
let flatten e ~out = { e with payload = None; payload_len = 0; inline_out = out }

let kind_name = function
  | Ev_syscall -> "syscall"
  | Ev_signal -> "signal"
  | Ev_fork -> "fork"
  | Ev_exit -> "exit"

(* Escaped prefix of a payload, so failure dumps show what the bytes
   were without flooding the terminal. *)
let pp_bytes_preview ppf b =
  let n = Bytes.length b in
  let shown = min n 16 in
  Format.pp_print_char ppf '"';
  for i = 0 to shown - 1 do
    let c = Bytes.get b i in
    if c >= ' ' && c <= '~' && c <> '"' && c <> '\\' then
      Format.pp_print_char ppf c
    else Format.fprintf ppf "\\x%02x" (Char.code c)
  done;
  if n > shown then Format.pp_print_string ppf "..";
  Format.fprintf ppf "\"(%dB)" n

let pp ppf e =
  Format.fprintf ppf "[%s nr=%d tid=%d clk=%d" (kind_name e.kind) e.sysno
    e.tid e.clock;
  if Array.length e.args > 0 then begin
    Format.pp_print_string ppf " args=(";
    Array.iteri
      (fun i a ->
        if i > 0 then Format.pp_print_char ppf ',';
        Format.pp_print_int ppf a)
      e.args;
    Format.pp_print_char ppf ')'
  end;
  Format.fprintf ppf " ret=%d" e.ret;
  (match e.inline_out with
  | Some b -> Format.fprintf ppf " out=%a" pp_bytes_preview b
  | None -> ());
  (match e.payload with
  | Some _ -> Format.fprintf ppf " shm:%dB" e.payload_len
  | None -> ());
  if e.grant <> None then Format.pp_print_string ppf " grant";
  Format.pp_print_char ppf ']'
