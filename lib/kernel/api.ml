open Varan_syscall
module E = Varan_sim.Engine

type t = {
  proc : Types.proc;
  sys : Sysno.t -> Args.t -> Args.result;
  mutable compute_scale_c1000 : int;
  mutable fork_child : ((t -> unit) -> int) option;
  mutable checkpoint_hook : ((unit -> Bytes.t) -> unit) option;
  mutable resume_state : Bytes.t option;
}

let rec direct k proc =
  let api =
    {
      proc;
      sys = (fun sysno args -> Kernel.exec k proc sysno args);
      compute_scale_c1000 = 1000;
      fork_child = None;
      checkpoint_hook = None;
      resume_state = None;
    }
  in
  api.fork_child <-
    Some
      (fun body ->
        (* Plain fork: duplicate the process, charge the fork cost, run
           the child body in a fresh task with its own direct API. *)
        let child = Kernel.fork_proc k proc (proc.Types.pname ^ ".child") in
        E.consume ((Kernel.cost k).Varan_cycles.Cost.native_base Sysno.Fork);
        let child_api = direct k child in
        child_api.compute_scale_c1000 <- api.compute_scale_c1000;
        let tid =
          E.spawn_here ~name:child.Types.pname (fun () ->
              try body child_api with E.Killed -> ())
        in
        Kernel.register_task k child tid;
        child.Types.pid);
  api

let with_sys proc sys =
  {
    proc;
    sys;
    compute_scale_c1000 = 1000;
    fork_child = None;
    checkpoint_hook = None;
    resume_state = None;
  }

let fork api body =
  match api.fork_child with
  | Some f -> f body
  | None -> invalid_arg "Api.fork: no fork hook installed"

let lift (r : Args.result) : (int, Errno.t) result =
  match Args.errno_of r with Some e -> Error e | None -> Ok r.Args.ret

let lift_unit r = Result.map (fun (_ : int) -> ()) (lift r)

let lift_out (r : Args.result) : (Bytes.t, Errno.t) result =
  match Args.errno_of r with
  | Some e -> Error e
  | None -> Ok (match r.Args.out with Some b -> b | None -> Bytes.empty)

(* Files *)

let openf api path flags =
  lift (api.sys Sysno.Open [| Args.Str path; Args.Int flags; Args.Int 0o644 |])

let close api fd = lift (api.sys Sysno.Close [| Args.Int fd |])

let read api fd len =
  lift_out (api.sys Sysno.Read [| Args.Int fd; Args.Buf_out len |])

let write api fd data =
  lift (api.sys Sysno.Write [| Args.Int fd; Args.Buf_in data |])

let write_str api fd s = write api fd (Bytes.of_string s)

(* The kernel copies what it accepts, so the whole buffer goes out as
   is; only the rest of a short write needs a buffer of its own. *)
let write_all api fd data =
  let len = Bytes.length data in
  let rec go sent =
    if sent >= len then Ok ()
    else
      let rest = if sent = 0 then data else Bytes.sub data sent (len - sent) in
      match write api fd rest with
      | Error e -> Error e
      | Ok 0 -> Error Errno.EIO
      | Ok n -> go (sent + n)
  in
  go 0

let lseek api fd offset whence =
  lift
    (api.sys Sysno.Lseek [| Args.Int fd; Args.Int offset; Args.Int whence |])

let size_of_stat r = Result.map (fun b -> fst (Wire.decode_stat b)) (lift_out r)

let stat_size api path =
  size_of_stat (api.sys Sysno.Stat [| Args.Str path; Args.Buf_out Wire.stat_size |])

let fstat_size api fd =
  size_of_stat (api.sys Sysno.Fstat [| Args.Int fd; Args.Buf_out Wire.stat_size |])

let unlink api path = lift_unit (api.sys Sysno.Unlink [| Args.Str path |])
let mkdir api path = lift_unit (api.sys Sysno.Mkdir [| Args.Str path; Args.Int 0o755 |])

let rename api src dst =
  lift_unit (api.sys Sysno.Rename [| Args.Str src; Args.Str dst |])

let access api path =
  lift_unit (api.sys Sysno.Access [| Args.Str path; Args.Int 0 |])

let fcntl api fd cmd arg =
  lift (api.sys Sysno.Fcntl [| Args.Int fd; Args.Int cmd; Args.Int arg |])

let dup api fd = lift (api.sys Sysno.Dup [| Args.Int fd |])

let fd_pair api sysno =
  match lift_out (api.sys sysno [| Args.Buf_out 8 |]) with
  | Error e -> Error e
  | Ok b -> Option.to_result ~none:Errno.EIO (Wire.decode_fd_pair b)

let pipe api = fd_pair api Sysno.Pipe

(* Sockets *)

let socket api =
  lift (api.sys Sysno.Socket [| Args.Int 2; Args.Int 1; Args.Int 0 |])

let bind api fd port =
  lift_unit (api.sys Sysno.Bind [| Args.Int fd; Args.Int port |])

let listen api fd =
  lift_unit (api.sys Sysno.Listen [| Args.Int fd; Args.Int 128 |])

let accept api fd =
  lift (api.sys Sysno.Accept [| Args.Int fd; Args.Int 0; Args.Int 0 |])

let connect api fd port =
  lift_unit (api.sys Sysno.Connect [| Args.Int fd; Args.Int port |])

let send api fd data =
  lift (api.sys Sysno.Sendto [| Args.Int fd; Args.Buf_in data; Args.Int 0 |])

let recv api fd len =
  lift_out (api.sys Sysno.Recvfrom [| Args.Int fd; Args.Buf_out len; Args.Int 0 |])

let shutdown api fd how =
  lift_unit (api.sys Sysno.Shutdown [| Args.Int fd; Args.Int how |])

let socketpair api = fd_pair api Sysno.Socketpair
let lift_pairs r = Result.map Wire.decode_pairs (lift_out r)

let poll api entries ~timeout_ms =
  lift_pairs
    (api.sys Sysno.Poll
       [| Args.Buf_in (Wire.encode_pairs entries); Args.Int timeout_ms;
          Args.Buf_out (8 * List.length entries) |])

let select api ~read ~write ~timeout_ms =
  lift_pairs
    (api.sys Sysno.Select
       [| Args.Buf_in (Wire.encode_fd_set read);
          Args.Buf_in (Wire.encode_fd_set write); Args.Int timeout_ms |])

(* Event polling *)

let epoll_create api =
  lift (api.sys Sysno.Epoll_create [| Args.Int 0 |])

let epoll_ctl api epfd op fd events =
  lift_unit
    (api.sys Sysno.Epoll_ctl
       [| Args.Int epfd; Args.Int op; Args.Int fd; Args.Int events |])

let epoll_wait api epfd ~max_events ~timeout_ms =
  lift_pairs
    (api.sys Sysno.Epoll_wait
       [| Args.Int epfd; Args.Int max_events; Args.Int timeout_ms;
          Args.Buf_out (8 * max_events) |])

(* Process, time, misc *)

let ret_or_zero api sysno args =
  match lift (api.sys sysno args) with Ok v -> v | Error _ -> 0

let getpid api = ret_or_zero api Sysno.Getpid [||]
let getuid api = ret_or_zero api Sysno.Getuid [||]
let geteuid api = ret_or_zero api Sysno.Geteuid [||]
let getgid api = ret_or_zero api Sysno.Getgid [||]
let getegid api = ret_or_zero api Sysno.Getegid [||]
let time api = ret_or_zero api Sysno.Time [| Args.Int 0 |]

let clock_gettime_ns api =
  match
    lift_out
      (api.sys Sysno.Clock_gettime [| Args.Int 1; Args.Buf_out Wire.timespec_size |])
  with
  | Ok b -> Wire.decode_timespec b
  | Error _ -> 0L

let futex_wait api uaddr =
  ignore
    (api.sys Sysno.Futex
       [| Args.Int uaddr; Args.Int Flags.futex_wait; Args.Int 0 |])

let futex_wake api uaddr n =
  ret_or_zero api Sysno.Futex
    [| Args.Int uaddr; Args.Int Flags.futex_wake; Args.Int n |]

let futex_lock api uaddr =
  ret_or_zero api Sysno.Futex
    [| Args.Int uaddr; Args.Int Flags.futex_lock; Args.Int 0 |]

let futex_unlock api uaddr =
  ret_or_zero api Sysno.Futex
    [| Args.Int uaddr; Args.Int Flags.futex_unlock; Args.Int 0 |]

let getrandom api n =
  lift_out (api.sys Sysno.Getrandom [| Args.Buf_out n; Args.Int 0 |])

let kill api pid signo =
  lift_unit (api.sys Sysno.Kill [| Args.Int pid; Args.Int signo |])

let set_signal_handler api signo f =
  ignore
    (api.sys Sysno.Rt_sigaction [| Args.Int signo; Args.Int 1; Args.Int 0 |]);
  Kernel.set_signal_handler api.proc signo f

let exit_group api code =
  ignore (api.sys Sysno.Exit_group [| Args.Int code |]);
  (* Exit_group raises Killed inside the kernel; not reached. *)
  assert false

let compute api cycles =
  if api.compute_scale_c1000 = 1000 then E.consume cycles
  else E.consume (((cycles * api.compute_scale_c1000) + 500) / 1000)
