module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Flags = Varan_kernel.Flags
module Errno = Varan_syscall.Errno
module Prng = Varan_util.Prng

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
  | Fork of op list

let gen_ops rng n =
  let paths = [| "/dev/zero"; "/dev/urandom"; "/dev/null" |] in
  List.init n (fun _ ->
      match Prng.int rng 14 with
      | 0 -> Open paths.(Prng.int rng 3)
      | 1 -> Close_newest
      | 2 -> Read_newest (1 + Prng.int rng 600)
      | 3 -> Write_newest (1 + Prng.int rng 600)
      | 4 -> Lseek_newest
      | 5 -> Stat paths.(Prng.int rng 3)
      | 6 -> Time
      | 7 -> Getuid
      | 8 -> Compute (Prng.int rng 20_000)
      | 9 -> Mkdir_tmp (Prng.int rng 4)
      | 10 -> Create_tmp (Prng.int rng 4)
      | 11 -> Unlink_tmp (Prng.int rng 4)
      | 12 -> Getrandom (1 + Prng.int rng 64)
      | _ -> Fcntl_newest)

let rec sanitize_for_fork = function
  | Getrandom n -> Compute (n * 100)
  | Open "/dev/urandom" -> Open "/dev/zero"
  | Fork sub -> Fork (List.map sanitize_for_fork sub)
  | op -> op

let splice_forks rng ops ~at =
  if at = [] then ops
  else
    let at = List.sort_uniq compare at in
    let ops = List.map sanitize_for_fork ops in
    List.concat
      (List.mapi
         (fun i op ->
           if List.mem i at then
             let child =
               List.map sanitize_for_fork (gen_ops rng (3 + Prng.int rng 8))
             in
             [ Fork child; op ]
           else [ op ])
         ops)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type observations = (string, Buffer.t) Hashtbl.t

let observations () : observations = Hashtbl.create 8

(* A respawned variant re-runs its whole program; dropping the stale
   incarnation's buffers (the main unit's and every forked child's) keeps
   the digest that of exactly one complete execution. *)
let reset (obs : observations) = Hashtbl.reset obs

let digest (obs : observations) =
  Hashtbl.fold (fun path buf acc -> (path, Buffer.contents buf) :: acc) obs []
  |> List.sort compare
  |> List.map (fun (p, s) -> p ^ "{" ^ s ^ "}")
  |> String.concat " "

(* Run the op list, folding every observable into the unit's digest
   buffer. *)
let rec interpret ~(obs : observations) ~path ops api =
  let buf =
    match Hashtbl.find_opt obs path with
    | Some b -> b
    | None ->
      let b = Buffer.create 256 in
      Hashtbl.add obs path b;
      b
  in
  let o fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let fds = ref [] in
  let newest () = match !fds with [] -> None | fd :: _ -> Some fd in
  let forkno = ref 0 in
  let handler_hits = ref 0 in
  let payload = Bytes.make 600 'w' in
  let tmp fmt i = Printf.sprintf fmt path i in
  (* Cooperative checkpoint/restore (rr-style fast rejoin). The encoder
     captures everything a respawned incarnation needs to take over at an
     op boundary: ops completed, the open-fd stack (the restored process
     keeps the same descriptor numbers), and the digest prefix. Forked
     children are never part of a snapshot — the hook is only offered
     while [forkno = 0], so a restored delta replays any fork event and
     recreates the child from scratch. *)
  let done_ops = ref 0 in
  let encode_state () =
    let b = Buffer.create 64 in
    let i32 v = Buffer.add_int32_le b (Int32.of_int v) in
    i32 !done_ops;
    i32 !forkno;
    let fd_list = !fds in
    i32 (List.length fd_list);
    List.iter i32 fd_list;
    let s = Buffer.contents buf in
    i32 (String.length s);
    Buffer.add_string b s;
    Buffer.to_bytes b
  in
  (match api.Api.resume_state with
  | None -> ()
  | Some s ->
    api.Api.resume_state <- None;
    let pos = ref 0 in
    let i32 () =
      let v = Int32.to_int (Bytes.get_int32_le s !pos) in
      pos := !pos + 4;
      v
    in
    done_ops := i32 ();
    forkno := i32 ();
    let nfds = i32 () in
    (* Explicit recursion: [List.init]'s evaluation order is unspecified,
       and the reads must land in stream order. *)
    let rec read_fds n acc =
      if n = 0 then List.rev acc else read_fds (n - 1) (i32 () :: acc)
    in
    fds := read_fds nfds [];
    let len = i32 () in
    Buffer.clear buf;
    Buffer.add_subbytes buf s !pos len);
  List.iteri
    (fun opno op ->
      if opno < !done_ops then ()
      else begin
        (match op with
      | Open p -> (
        match Api.openf api p Flags.o_rdwr with
        | Ok fd ->
          fds := fd :: !fds;
          o "open=%d;" fd
        | Error e -> o "open!%s;" (Errno.name e))
      | Close_newest -> (
        match newest () with
        | None -> ()
        | Some fd ->
          fds := List.tl !fds;
          o "close=%d;" (match Api.close api fd with Ok v -> v | Error _ -> -1))
      | Read_newest n -> (
        match newest () with
        | None -> ()
        | Some fd -> (
          match Api.read api fd n with
          | Ok b -> o "read=%d:%d;" (Bytes.length b) (Hashtbl.hash b)
          | Error e -> o "read!%s;" (Errno.name e)))
      | Write_newest n -> (
        match newest () with
        | None -> ()
        | Some fd -> (
          match Api.write api fd (Bytes.sub payload 0 n) with
          | Ok w -> o "write=%d;" w
          | Error e -> o "write!%s;" (Errno.name e)))
      | Lseek_newest -> (
        match newest () with
        | None -> ()
        | Some fd ->
          o "lseek=%d;"
            (match Api.lseek api fd 0 Flags.seek_set with
            | Ok v -> v
            | Error _ -> -1))
      | Stat p -> (
        match Api.stat_size api p with
        | Ok size -> o "stat=%d;" size
        | Error e -> o "stat!%s;" (Errno.name e))
      | Time -> o "time=%d;" (Api.time api)
      | Getuid -> o "uid=%d;" (Api.getuid api)
      | Compute n -> Api.compute api n
      | Mkdir_tmp i -> (
        match Api.mkdir api (tmp "/tmp/%s-d%d" i) with
        | Ok () -> o "mkdir=0;"
        | Error e -> o "mkdir!%s;" (Errno.name e))
      | Create_tmp i -> (
        match
          Api.openf api (tmp "/tmp/%s-f%d" i) (Flags.o_rdwr lor Flags.o_creat)
        with
        | Ok fd ->
          fds := fd :: !fds;
          o "creat=%d;" fd
        | Error e -> o "creat!%s;" (Errno.name e))
      | Unlink_tmp i -> (
        match Api.unlink api (tmp "/tmp/%s-f%d" i) with
        | Ok () -> o "unlink=0;"
        | Error e -> o "unlink!%s;" (Errno.name e))
      | Getrandom n -> (
        match Api.getrandom api n with
        | Ok b -> o "rand=%d:%d;" (Bytes.length b) (Hashtbl.hash b)
        | Error e -> o "rand!%s;" (Errno.name e))
      | Fcntl_newest -> (
        match newest () with
        | None -> ()
        | Some fd ->
          o "fcntl=%d;"
            (match Api.fcntl api fd Flags.f_getfl 0 with
            | Ok v -> v
            | Error _ -> -1))
      | Install_handler ->
        (* The handler's effect stays out of the digest: injected bursts
           only exist under the monitor, never in the native run. *)
        Api.set_signal_handler api Flags.sigint (fun _ -> incr handler_hits);
        o "hdl;"
      | Fork sub ->
        let child_path = Printf.sprintf "%s.f%d" path !forkno in
        incr forkno;
        (* Pids differ across variants and runs; only the fact that the
           fork happened is observable. *)
        ignore
          (Api.fork api (fun child_api ->
               interpret ~obs ~path:child_path sub child_api));
        o "fork;");
        done_ops := opno + 1;
        (* Offer a snapshot at this syscall boundary; the monitor only
           takes one when its watchdog armed a checkpoint. *)
        match api.Api.checkpoint_hook with
        | Some h when !forkno = 0 -> h encode_state
        | _ -> ()
      end)
    ops

let run_native ?(path = "0") ~kernel_seed ops =
  let eng = E.create () in
  let k = K.create ~seed:kernel_seed eng in
  let obs = observations () in
  let proc = K.new_proc k "native" in
  let tid =
    E.spawn eng (fun () -> interpret ~obs ~path ops (Api.direct k proc))
  in
  K.register_task k proc tid;
  E.run_until_quiescent eng;
  digest obs
