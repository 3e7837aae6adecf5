open Types
module E = Varan_sim.Engine
module Cond = E.Cond
module Phase = Varan_obs.Profile
module Sysno = Varan_syscall.Sysno
module Args = Varan_syscall.Args
module Errno = Varan_syscall.Errno
module Cost = Varan_cycles.Cost
module Prng = Varan_util.Prng

type fd_grant = { granted : (int * ofile) list }

let create ?(link_latency = 0) ?(seed = 42) eng =
  let root = Directory (Hashtbl.create 16) in
  let k =
    {
      eng;
      cost = Cost.default;
      root;
      listeners = Hashtbl.create 16;
      futexes = Hashtbl.create 16;
      procs = Hashtbl.create 16;
      next_pid = 1;
      next_ephemeral_port = 32768;
      rng = Prng.create seed;
      link_latency;
      epoch_seconds = 1_700_000_000;
    }
  in
  (match root with
  | Directory d ->
    let dev = Hashtbl.create 8 in
    Hashtbl.replace dev "null" Dev_null;
    Hashtbl.replace dev "zero" Dev_zero;
    Hashtbl.replace dev "urandom" Dev_urandom;
    Hashtbl.replace d "dev" (Directory dev);
    Hashtbl.replace d "tmp" (Directory (Hashtbl.create 8))
  | _ -> assert false);
  k

let engine k = k.eng
let cost k = k.cost

let new_proc k ?parent pname =
  let pid = k.next_pid in
  k.next_pid <- k.next_pid + 1;
  let p =
    {
      pid;
      pname;
      fds = Fdmap.empty;
      cwd = "/";
      brk_addr = 0x0060_0000;
      mmap_next = 0x7f00_0000_0000;
      sighandlers = Hashtbl.create 8;
      exited = false;
      exit_code = 0;
      umask = 0o022;
      parent;
      children = [];
      exit_cond = Cond.create (Printf.sprintf "proc-%d-exit" pid);
      tasks = [];
      pending_signals = [];
      uid = 1000;
      gid = 1000;
    }
  in
  (match parent with Some pp -> pp.children <- p :: pp.children | None -> ());
  Hashtbl.replace k.procs pid p;
  p

let register_task _k proc tid = proc.tasks <- tid :: proc.tasks

(* No reference until an fd takes one. *)
let new_ofile ?(flags = 0) kind = { kind; offset = 0; flags; refcount = 0 }

(* The lowest free fd at or above [min]. *)
let alloc_fd ?(min = 0) proc =
  let rec scan fd = if Fdmap.mem fd proc.fds then scan (fd + 1) else fd in
  scan min

let install_fd_at ?(cloexec = false) proc fd ofile =
  ofile.refcount <- ofile.refcount + 1;
  proc.fds <- Fdmap.add fd { fde_ofile = ofile; fde_cloexec = cloexec } proc.fds

let add_fd ?min proc ofile =
  let fd = alloc_fd ?min proc in
  install_fd_at proc fd ofile;
  fd

let fork_proc k parent pname =
  let child = new_proc k ~parent pname in
  child.cwd <- parent.cwd;
  child.umask <- parent.umask;
  child.fds <-
    Fdmap.map
      (fun entry ->
        entry.fde_ofile.refcount <- entry.fde_ofile.refcount + 1;
        { fde_ofile = entry.fde_ofile; fde_cloexec = entry.fde_cloexec })
      parent.fds;
  child

(* ------------------------------------------------------------------ *)
(* Readiness and wake-ups                                             *)
(* ------------------------------------------------------------------ *)

(* The one readiness rule per object kind, which poll, select, epoll and
   the blocking calls all apply: a read, write or accept on a ready
   description returns without blocking. A call that fails at once
   counts as ready, as Linux's poll reports it: EOF, EPIPE once sending
   is shut down (tcp_poll sets EPOLLOUT), EINVAL from a closed listener.
   The exception is an unconnected socket: its write fails at once with
   ENOTCONN, but it becomes writable only when connect gives it a peer. *)
let rec ready_read ofile =
  match ofile.kind with
  | K_file _ -> true
  | K_pipe_r p -> (not (Bytequeue.is_empty p.p_q)) || p.p_writers = 0
  | K_pipe_w _ -> false
  | K_sock ep -> (not (Bytequeue.is_empty ep.ep_rx)) || ep.ep_peer_closed
  | K_listen l -> (not (Queue.is_empty l.l_backlog)) || l.l_closed
  | K_epoll e -> List.exists live_and_ready e.e_ready

and ready_write ofile =
  match ofile.kind with
  | K_file _ -> true
  | K_pipe_r _ -> false
  | K_pipe_w p -> Bytequeue.space p.p_q > 0 || p.p_readers = 0
  | K_sock ep -> (
    ep.ep_closed
    ||
    match ep.ep_peer with
    | None -> false
    | Some peer -> peer.ep_closed || Bytequeue.space peer.ep_rx > 0)
  | K_listen _ -> false
  | K_epoll _ -> false

(* The readiness fold every waiter shares: of the [events] asked for
   (epollin, epollout), those [ofile] has ready now. *)
and revents ofile events =
  let r =
    if events land Flags.epollin <> 0 && ready_read ofile then Flags.epollin
    else 0
  in
  if events land Flags.epollout <> 0 && ready_write ofile then
    r lor Flags.epollout
  else r

and live_and_ready w = (not w.w_dead) && revents w.w_ofile w.w_events <> 0

let queue_watch w =
  if not (w.w_queued || w.w_dead) then begin
    w.w_queued <- true;
    w.w_epoll.e_ready <- w :: w.w_epoll.e_ready
  end

(* Every transition that can make an object ready comes through here:
   its live watches join their epolls' ready lists, then each watching
   epoll is woken. A dead watch stays on the object's list until
   EPOLL_CTL_DEL and still wakes its epoll: pruning it would change
   which waiters wake, and with them the virtual timings. *)
let rec notify_epolls = function
  | [] -> ()
  | w :: watchers ->
    queue_watch w;
    Cond.broadcast_if_waiting w.w_epoll.e_cond;
    notify_epolls watchers

let wake_sock_readers ep =
  Cond.broadcast_if_waiting ep.ep_readable;
  notify_epolls ep.ep_watchers

let wake_sock_writers ep =
  Cond.broadcast_if_waiting ep.ep_writable;
  notify_epolls ep.ep_watchers

let nonblocking ofile = ofile.flags land Flags.o_nonblock <> 0

(* ------------------------------------------------------------------ *)
(* Socket delivery with optional link latency                          *)
(* ------------------------------------------------------------------ *)

(* Run [f] once the link latency has passed: at once without one,
   otherwise in a timer, preserving order because engine events at
   increasing times run in order. *)
let after_link k f =
  if k.link_latency = 0 then f () else E.after_here k.link_latency f

(* Append payload to the peer's receive queue, which takes ownership.
   The sender checked the room when it wrote; bytes still on the link
   may have taken some of it since, and what no longer fits is lost. *)
let deliver_to_peer k (peer : endpoint) (data : Bytes.t) =
  after_link k (fun () ->
      let room = Bytequeue.space peer.ep_rx in
      Bytequeue.write peer.ep_rx
        (if Bytes.length data <= room then data else Bytes.sub data 0 room);
      wake_sock_readers peer)

let deliver_fin k (peer : endpoint) =
  after_link k (fun () ->
      peer.ep_peer_closed <- true;
      wake_sock_readers peer;
      wake_sock_writers peer)

(* ------------------------------------------------------------------ *)
(* Release on close                                                    *)
(* ------------------------------------------------------------------ *)

(* Drop [ofile]'s watches from their epolls. A dead watch leaves its
   epoll's ready list at the next collect. *)
let rec unwatch ofile = function
  | [] -> ()
  | w :: watchers ->
    if w.w_ofile == ofile && not w.w_dead then begin
      w.w_dead <- true;
      w.w_epoll.e_watches <- Fdmap.remove w.w_fd w.w_epoll.e_watches
    end;
    unwatch ofile watchers

(* The last reference takes the description's epoll watches with it, as
   on Linux; while a dup'd fd still names it, they stay. *)
let release_ofile k ofile =
  ofile.refcount <- ofile.refcount - 1;
  if ofile.refcount <= 0 then begin
    match ofile.kind with
    | K_file _ -> ()
    | K_pipe_r p ->
      unwatch ofile p.p_watchers;
      p.p_readers <- p.p_readers - 1;
      if p.p_readers = 0 then begin
        Cond.broadcast p.p_writable;
        notify_epolls p.p_watchers
      end
    | K_pipe_w p ->
      unwatch ofile p.p_watchers;
      p.p_writers <- p.p_writers - 1;
      if p.p_writers = 0 then begin
        Cond.broadcast p.p_readable;
        notify_epolls p.p_watchers
      end
    | K_sock ep ->
      unwatch ofile ep.ep_watchers;
      if not ep.ep_closed then begin
        ep.ep_closed <- true;
        match ep.ep_peer with
        | Some peer -> deliver_fin k peer
        | None -> ()
      end
    | K_listen l ->
      unwatch ofile l.l_watchers;
      l.l_closed <- true;
      Hashtbl.remove k.listeners l.l_port;
      Cond.broadcast l.l_cond
    | K_epoll _ -> ()
  end

(* Exit and kill release every descriptor in ascending fd order, as
   Linux's close_files walks the fd table: the FINs a dying process's
   sockets send follow its fd numbers. *)
let release_all_fds k proc =
  Fdmap.iter (fun _ entry -> release_ofile k entry.fde_ofile) proc.fds;
  proc.fds <- Fdmap.empty

(* The one way a process ends, by exit or by a signal: marked exited
   with [code], its descriptors released, a parent in wait4 woken, and
   every task killed but [spare], an exiting task that unwinds itself. *)
let terminate ?spare k proc code =
  proc.exited <- true;
  proc.exit_code <- code;
  release_all_fds k proc;
  Option.iter (fun parent -> Cond.broadcast parent.exit_cond) proc.parent;
  List.iter (fun tid -> if Some tid <> spare then E.kill k.eng tid) proc.tasks

let kill_proc k proc signo =
  if not proc.exited then terminate k proc (128 + signo)

(* ------------------------------------------------------------------ *)
(* Helpers for the dispatcher                                          *)
(* ------------------------------------------------------------------ *)

let fd_entry proc fd = Fdmap.find_opt fd proc.fds

(* Drop whatever [fd] names, if anything, as dup2 does before reusing it. *)
let close_fd k proc fd =
  match fd_entry proc fd with
  | Some old ->
    proc.fds <- Fdmap.remove fd proc.fds;
    release_ofile k old.fde_ofile
  | None -> ()

let with_fd proc fd f =
  match fd_entry proc fd with
  | None -> Args.err Errno.EBADF
  | Some entry -> f entry

let charge_out k bytes =
  E.consume
    (Cost.copy_cycles ~rate_c100:k.cost.Cost.copy_per_byte_c100 bytes)

let grant fds result =
  { result with Args.fd_object = Some (Obj.repr { granted = fds }) }

let grant_of_result (r : Args.result) : fd_grant option =
  match r.Args.fd_object with
  | None -> None
  | Some o -> Some (Obj.obj o : fd_grant)

(* Install [ofile] at [fd] as dup2 does. A stale descriptor at this
   number (e.g. a replayed-but-not-executed close left it behind) is
   released first. Reinstalling the description [fd] already names is a
   no-op, as dup2(fd, fd) is on Linux, except that a restore still sets
   the close-on-exec flag: releasing it first could drop its last
   reference, and a socket would send its peer a FIN and come back
   closed. *)
let reinstall_fd ?cloexec k proc fd ofile =
  match fd_entry proc fd with
  | Some entry when entry.fde_ofile == ofile ->
    Option.iter (fun c -> entry.fde_cloexec <- c) cloexec
  | _ ->
    close_fd k proc fd;
    install_fd_at ?cloexec proc fd ofile

let install_grant k proc g =
  List.iter (fun (fd, ofile) -> reinstall_fd k proc fd ofile) g.granted

(* ------------------------------------------------------------------ *)
(* Descriptor-table snapshots (checkpoint/restore)                     *)
(* ------------------------------------------------------------------ *)

type fd_snapshot = (ofile * bool) Fdmap.t

(* The entries reference the shared open-file descriptions by identity —
   exactly what a replayed grant would install — so a snapshot restored
   into a fresh process yields the same table a full tape replay would
   have built. Restore releases stale entries in ascending fd order. *)
let snapshot_fds proc =
  Fdmap.map (fun e -> (e.fde_ofile, e.fde_cloexec)) proc.fds

let restore_fds k proc snap =
  Fdmap.iter
    (fun fd (ofile, cloexec) -> reinstall_fd ~cloexec k proc fd ofile)
    snap

let fd_snapshot_count = Fdmap.cardinal

(* Simulated-process-local time: based on the calling task's clock. *)
let task_now_ns k =
  let cycles = Int64.to_float (E.now_cycles ()) in
  let ns = cycles /. k.cost.Cost.cpu_ghz in
  Int64.add
    (Int64.mul (Int64.of_int k.epoch_seconds) 1_000_000_000L)
    (Int64.of_float ns)

let stat_of node =
  Wire.encode_stat ~size:(Vfs.file_size node)
    ~is_dir:(match node with Directory _ -> true | _ -> false)

let random_bytes k n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (Prng.int k.rng 256))
  done;
  b

let proc_alive p = not p.exited
let fd_count p = Fdmap.cardinal p.fds

let set_nonblock proc fd v =
  match fd_entry proc fd with
  | None -> Error Errno.EBADF
  | Some e ->
    let o = e.fde_ofile in
    o.flags <-
      (if v then o.flags lor Flags.o_nonblock
       else o.flags land lnot Flags.o_nonblock);
    Ok ()

(* ------------------------------------------------------------------ *)
(* Blocking primitives                                                 *)
(* ------------------------------------------------------------------ *)

(* Wait on [cond] until [o] is ready for [events] by the readiness rule
   or, if [o] is non-blocking, fail with EAGAIN. The rule is re-checked
   after every wake-up because several waiters may race for the same
   bytes. [ready] stays a closure: a loop that allocates none moved
   c10k-closed's peak_heap_mb up 24%, by GC pacing alone (CHANGES.md). *)
let block_until o cond events =
  let ready () = revents o events <> 0 in
  if ready () then Ok ()
  else if nonblocking o then Error Errno.EAGAIN
  else begin
    (* Every blocking read, write and accept funnels through here, so
       this is where the profile learns how much vtime tasks spend parked
       inside the kernel (per-object conds — what would be kernel-table
       contention on real hardware). *)
    let prev = E.enter_phase Phase.kernel_wait in
    while not (ready ()) do
      Cond.wait cond
    done;
    E.leave_phase prev;
    Ok ()
  end

(* A new description of [kind] at the lowest free fd. *)
let grant_new ?flags proc kind =
  let o = new_ofile ?flags kind in
  let fd = add_fd proc o in
  grant [ (fd, o) ] (Args.ok fd)

(* Two new descriptions at the two lowest free fds, which the result
   buffer carries: pipe(2) and socketpair(2). *)
let grant_pair proc ka kb =
  let oa = new_ofile ka in
  let ob = new_ofile kb in
  let fda = add_fd proc oa in
  let fdb = add_fd proc ob in
  grant [ (fda, oa); (fdb, ob) ] (Args.ok_out 0 (Wire.encode_pairs [ (fda, fdb) ]))

(* ------------------------------------------------------------------ *)
(* The dispatcher                                                      *)
(* ------------------------------------------------------------------ *)

let do_read k proc args =
  let fd = Args.int_arg args 0 in
  let want = Args.buf_out_arg args 1 in
  with_fd proc fd (fun entry ->
      let o = entry.fde_ofile in
      match o.kind with
      | K_file (Regular r) ->
        let n = max 0 (min want (r.size - o.offset)) in
        let out = if n = 0 then Bytes.empty else Bytes.sub r.content o.offset n in
        o.offset <- o.offset + n;
        charge_out k n;
        Args.ok_out n out
      | K_file Dev_null -> Args.ok_out 0 Bytes.empty
      | K_file Dev_zero ->
        charge_out k want;
        Args.ok_out want (Bytes.make want '\000')
      | K_file Dev_urandom ->
        charge_out k want;
        Args.ok_out want (random_bytes k want)
      | K_file (Directory _) -> Args.err Errno.EISDIR
      | K_pipe_r p -> (
        match block_until o p.p_readable Flags.epollin with
        | Error e -> Args.err e
        | Ok () ->
          let out = Bytequeue.read p.p_q want in
          Cond.broadcast p.p_writable;
          notify_epolls p.p_watchers;
          charge_out k (Bytes.length out);
          Args.ok_out (Bytes.length out) out)
      | K_pipe_w _ -> Args.err Errno.EBADF
      | K_sock ep -> (
        match block_until o ep.ep_readable Flags.epollin with
        | Error e -> Args.err e
        | Ok () ->
          let out = Bytequeue.read ep.ep_rx want in
          (match ep.ep_peer with
          | Some peer -> wake_sock_writers peer
          | None -> ());
          notify_epolls ep.ep_watchers;
          charge_out k (Bytes.length out);
          Args.ok_out (Bytes.length out) out)
      | K_listen _ -> Args.err Errno.EINVAL
      | K_epoll _ -> Args.err Errno.EINVAL)

let do_write k proc args =
  let fd = Args.int_arg args 0 in
  let data = Args.buf_in_arg args 1 in
  with_fd proc fd (fun entry ->
      let o = entry.fde_ofile in
      match o.kind with
      | K_file (Regular r) ->
        let len = Bytes.length data in
        let pos = if o.flags land Flags.o_append <> 0 then r.size else o.offset in
        let newsize = max r.size (pos + len) in
        if newsize > Bytes.length r.content then begin
          let bigger = Bytes.make (max newsize (2 * Bytes.length r.content)) '\000' in
          Bytes.blit r.content 0 bigger 0 r.size;
          r.content <- bigger
        end;
        Bytes.blit data 0 r.content pos len;
        r.size <- newsize;
        o.offset <- pos + len;
        Args.ok len
      | K_file Dev_null -> Args.ok (Bytes.length data)
      | K_file Dev_zero -> Args.ok (Bytes.length data)
      | K_file Dev_urandom -> Args.ok (Bytes.length data)
      | K_file (Directory _) -> Args.err Errno.EISDIR
      | K_pipe_w p -> (
        match block_until o p.p_writable Flags.epollout with
        | Error e -> Args.err e
        | Ok () when p.p_readers = 0 -> Args.err Errno.EPIPE
        | Ok () ->
          (* The one host copy of the caller's buffer, as for a socket:
             the queue keeps it, the caller keeps [data]. *)
          let n = min (Bytequeue.space p.p_q) (Bytes.length data) in
          Bytequeue.write p.p_q (Bytes.sub data 0 n);
          Cond.broadcast p.p_readable;
          notify_epolls p.p_watchers;
          Args.ok n)
      | K_pipe_r _ -> Args.err Errno.EBADF
      | K_sock { ep_peer = None; ep_closed = false; _ } -> Args.err Errno.ENOTCONN
      | K_sock ep -> (
        (* Flow control against the peer's receive buffer. *)
        match block_until o ep.ep_writable Flags.epollout with
        | Error e -> Args.err e
        | Ok () -> (
          match ep.ep_peer with
          | Some peer when not (ep.ep_closed || peer.ep_closed) ->
            let n = min (Bytequeue.space peer.ep_rx) (Bytes.length data) in
            (* The one host copy of the caller's buffer: the peer's queue
               keeps it, the caller keeps [data]. *)
            deliver_to_peer k peer (Bytes.sub data 0 n);
            Args.ok n
          | _ -> Args.err Errno.EPIPE))
      | K_listen _ -> Args.err Errno.EINVAL
      | K_epoll _ -> Args.err Errno.EINVAL)

let do_open k proc args =
  let path = Args.str_arg args 0 in
  let flags = Args.int_arg args 1 in
  let node =
    if flags land Flags.o_creat <> 0 then Vfs.create_file k ~cwd:proc.cwd path
    else Vfs.lookup k ~cwd:proc.cwd path
  in
  match node with
  | Error e -> Args.err e
  | Ok node ->
    (match node with
    | Regular r when flags land Flags.o_trunc <> 0 ->
      r.content <- Bytes.empty;
      r.size <- 0
    | _ -> ());
    grant_new ~flags proc (K_file node)

let do_close k proc args =
  let fd = Args.int_arg args 0 in
  with_fd proc fd (fun _ ->
      close_fd k proc fd;
      Args.ok 0)

let do_stat k proc args =
  let path = Args.str_arg args 0 in
  match Vfs.lookup k ~cwd:proc.cwd path with
  | Error e -> Args.err e
  | Ok node -> Args.ok_out 0 (stat_of node)

let do_fstat _k proc args =
  let fd = Args.int_arg args 0 in
  with_fd proc fd (fun entry ->
      match entry.fde_ofile.kind with
      | K_file node -> Args.ok_out 0 (stat_of node)
      | _ -> Args.ok_out 0 (Wire.encode_stat ~size:0 ~is_dir:false))

let do_lseek _k proc args =
  let fd = Args.int_arg args 0 in
  let offset = Args.int_arg args 1 in
  let whence = Args.int_arg args 2 in
  with_fd proc fd (fun entry ->
      let o = entry.fde_ofile in
      match o.kind with
      | K_file node ->
        let size = Vfs.file_size node in
        let base =
          if whence = Flags.seek_set then 0
          else if whence = Flags.seek_cur then o.offset
          else size
        in
        let pos = base + offset in
        if pos < 0 then Args.err Errno.EINVAL
        else begin
          o.offset <- pos;
          Args.ok pos
        end
      | _ -> Args.err Errno.ESPIPE)

(* Every socket endpoint comes from here: socket(2)'s, the server end
   connect(2) queues on the listener, and both ends of socketpair(2). *)
let new_endpoint ?peer ?(port = 0) () =
  {
    ep_rx = Bytequeue.create ();
    ep_peer = peer;
    ep_port = port;
    ep_peer_closed = false;
    ep_closed = false;
    ep_readable = Cond.create "sock-readable";
    ep_writable = Cond.create "sock-writable";
    ep_watchers = [];
  }

let do_socket _k proc _args = grant_new proc (K_sock (new_endpoint ()))

let do_bind k proc args =
  let fd = Args.int_arg args 0 in
  let port = Args.int_arg args 1 in
  with_fd proc fd (fun entry ->
      match entry.fde_ofile.kind with
      | K_sock ep ->
        if Hashtbl.mem k.listeners port then Args.err Errno.EADDRINUSE
        else begin
          ep.ep_port <- port;
          Args.ok 0
        end
      | _ -> Args.err Errno.ENOTSOCK)

let do_listen k proc args =
  let fd = Args.int_arg args 0 in
  with_fd proc fd (fun entry ->
      let o = entry.fde_ofile in
      match o.kind with
      | K_sock ep ->
        if ep.ep_port = 0 then Args.err Errno.EINVAL
        else if Hashtbl.mem k.listeners ep.ep_port then
          Args.err Errno.EADDRINUSE
        else begin
          let l =
            {
              l_port = ep.ep_port;
              l_backlog = Queue.create ();
              l_closed = false;
              l_cond = Cond.create "listener";
              (* Watches taken on the socket stay on the listener. *)
              l_watchers = ep.ep_watchers;
            }
          in
          ep.ep_watchers <- [];
          Hashtbl.replace k.listeners ep.ep_port l;
          o.kind <- K_listen l;
          Args.ok 0
        end
      | K_listen _ -> Args.ok 0
      | _ -> Args.err Errno.ENOTSOCK)

let do_accept _k proc args =
  let fd = Args.int_arg args 0 in
  with_fd proc fd (fun entry ->
      let o = entry.fde_ofile in
      match o.kind with
      | K_listen l -> (
        match block_until o l.l_cond Flags.epollin with
        | Error e -> Args.err e
        | Ok () -> (
          (* Ready with nothing queued: the listener was closed. *)
          match Queue.take_opt l.l_backlog with
          | None -> Args.err Errno.EINVAL
          | Some ep -> grant_new proc (K_sock ep)))
      | K_sock _ -> Args.err Errno.EINVAL
      | _ -> Args.err Errno.ENOTSOCK)

let do_connect k proc args =
  let fd = Args.int_arg args 0 in
  let port = Args.int_arg args 1 in
  with_fd proc fd (fun entry ->
      match entry.fde_ofile.kind with
      | K_sock { ep_peer = Some _; _ } -> Args.err Errno.EISCONN
      | K_sock ep -> (
        match Hashtbl.find_opt k.listeners port with
        | Some l when not l.l_closed ->
          let server_ep = new_endpoint ~peer:ep ~port () in
          (* A peer makes the socket writable: wake its EPOLLOUT
             watchers, as Linux does when the connection completes. *)
          ep.ep_peer <- Some server_ep;
          notify_epolls ep.ep_watchers;
          if ep.ep_port = 0 then begin
            ep.ep_port <- k.next_ephemeral_port;
            k.next_ephemeral_port <- k.next_ephemeral_port + 1
          end;
          (* One round trip for the handshake. *)
          if k.link_latency > 0 then E.sleep (2 * k.link_latency);
          Queue.push server_ep l.l_backlog;
          Cond.broadcast l.l_cond;
          notify_epolls l.l_watchers;
          Args.ok 0
        | _ -> Args.err Errno.ECONNREFUSED)
      | _ -> Args.err Errno.ENOTSOCK)

let do_shutdown _k proc args =
  let fd = Args.int_arg args 0 in
  let how = Args.int_arg args 1 in
  with_fd proc fd (fun entry ->
      match entry.fde_ofile.kind with
      | K_sock ep ->
        if how = Flags.shut_wr || how = Flags.shut_rdwr then begin
          (* Writing now fails at once: the socket becomes writable. *)
          ep.ep_closed <- true;
          wake_sock_writers ep;
          match ep.ep_peer with
          | Some peer ->
            peer.ep_peer_closed <- true;
            wake_sock_readers peer;
            Args.ok 0
          | None -> Args.ok 0
        end
        else Args.ok 0
      | _ -> Args.err Errno.ENOTSOCK)

let do_pipe _k proc _args =
  let p =
    {
      p_q = Bytequeue.create ~capacity:65536 ();
      p_readers = 1;
      p_writers = 1;
      p_readable = Cond.create "pipe-readable";
      p_writable = Cond.create "pipe-writable";
      p_watchers = [];
    }
  in
  grant_pair proc (K_pipe_r p) (K_pipe_w p)

(* dup and F_DUPFD: the lowest free fd at or above [min]. *)
let dup_from proc o ~min =
  let newfd = add_fd ~min proc o in
  grant [ (newfd, o) ] (Args.ok newfd)

let do_dup _k proc args =
  let fd = Args.int_arg args 0 in
  with_fd proc fd (fun entry -> dup_from proc entry.fde_ofile ~min:0)

let do_dup2 k proc args =
  let fd = Args.int_arg args 0 in
  let newfd = Args.int_arg args 1 in
  with_fd proc fd (fun entry ->
      let o = entry.fde_ofile in
      if newfd < 0 then Args.err Errno.EBADF
      else if newfd = fd then Args.ok newfd
      else begin
        close_fd k proc newfd;
        install_fd_at proc newfd o;
        grant [ (newfd, o) ] (Args.ok newfd)
      end)

let new_epoll () =
  { e_watches = Fdmap.empty; e_ready = []; e_cond = Cond.create "epoll" }

let do_epoll_create _k proc _args = grant_new proc (K_epoll (new_epoll ()))

let new_watch e fd o events =
  { w_fd = fd; w_ofile = o; w_epoll = e; w_events = events; w_queued = false;
    w_dead = false }

let add_watcher w =
  match w.w_ofile.kind with
  | K_sock ep -> ep.ep_watchers <- w :: ep.ep_watchers
  | K_pipe_r p | K_pipe_w p -> p.p_watchers <- w :: p.p_watchers
  | K_listen l -> l.l_watchers <- w :: l.l_watchers
  | K_file _ | K_epoll _ -> ()

(* A watcher list holds one entry per watch, and an object can carry
   several watches of one epoll (a pipe's two ends, two fds of one
   socket): deleting a watch drops its own entry and keeps the others. *)
let rec drop_one w = function
  | [] -> []
  | x :: rest -> if x == w then rest else x :: drop_one w rest

let remove_watcher w =
  match w.w_ofile.kind with
  | K_sock ep -> ep.ep_watchers <- drop_one w ep.ep_watchers
  | K_pipe_r p | K_pipe_w p -> p.p_watchers <- drop_one w p.p_watchers
  | K_listen l -> l.l_watchers <- drop_one w l.l_watchers
  | K_file _ | K_epoll _ -> ()

(* Whether [e]'s watches lead, through nested epolls, to [target]. The
   checks below keep the nesting acyclic, so the walk ends. *)
let rec reaches target e =
  Fdmap.exists
    (fun _ w ->
      match w.w_ofile.kind with
      | K_epoll inner -> inner == target || reaches target inner
      | _ -> false)
    e.e_watches

(* As on Linux: an epoll cannot watch itself (EINVAL) nor an epoll that
   already leads back to it (ELOOP), and only a watched fd can be
   modified or deleted (ENOENT). *)
let do_epoll_ctl _k proc args =
  let epfd = Args.int_arg args 0 in
  let op = Args.int_arg args 1 in
  let fd = Args.int_arg args 2 in
  let events = Args.int_arg args 3 in
  with_fd proc epfd (fun epentry ->
      match epentry.fde_ofile.kind with
      | K_epoll e ->
        with_fd proc fd (fun entry ->
            let o = entry.fde_ofile in
            match (o.kind, Fdmap.find_opt fd e.e_watches) with
            | K_epoll inner, _ when inner == e -> Args.err Errno.EINVAL
            | K_epoll inner, None when op = Flags.epoll_ctl_add && reaches e inner ->
              Args.err Errno.ELOOP
            | _, None when op = Flags.epoll_ctl_add ->
              let w = new_watch e fd o events in
              e.e_watches <- Fdmap.add fd w e.e_watches;
              add_watcher w;
              queue_watch w;
              Cond.broadcast e.e_cond;
              Args.ok 0
            | _, Some _ when op = Flags.epoll_ctl_add -> Args.err Errno.EEXIST
            | _, Some w when op = Flags.epoll_ctl_del ->
              remove_watcher w;
              w.w_dead <- true;
              e.e_watches <- Fdmap.remove fd e.e_watches;
              Args.ok 0
            | _, Some w when op = Flags.epoll_ctl_mod ->
              w.w_events <- events;
              queue_watch w;
              Cond.broadcast e.e_cond;
              Args.ok 0
            | _, None when op = Flags.epoll_ctl_del || op = Flags.epoll_ctl_mod ->
              Args.err Errno.ENOENT
            | _ -> Args.err Errno.EINVAL)
      | _ -> Args.err Errno.EINVAL)

(* Files and epolls never wake their watchers, so their watches stay
   on the ready list for as long as they live. *)
let never_notifies w =
  match w.w_ofile.kind with K_file _ | K_epoll _ -> true | _ -> false

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let by_fd ((a : int), _) (b, _) = compare a b

(* The (fd, events) of every ready watch queued on [e]. A ready watch
   stays queued (level-triggered); one that is not ready, or is dead,
   leaves the list until a wake-up queues it again. *)
let rec sweep e kept ready = function
  | [] ->
    e.e_ready <- kept;
    ready
  | w :: rest ->
    let ev = if w.w_dead then 0 else revents w.w_ofile w.w_events in
    if ev <> 0 then sweep e (w :: kept) ((w.w_fd, ev) :: ready) rest
    else if (not w.w_dead) && never_notifies w then
      sweep e (w :: kept) ready rest
    else begin
      w.w_queued <- false;
      sweep e kept ready rest
    end

(* The [maxevents] lowest-fd ready watches, in ascending fd order, as a
   walk of the whole watch table would give, from a sort of the few
   that are queued. *)
let collect e maxevents =
  take maxevents (List.sort by_fd (sweep e [] [] e.e_ready))

(* The one wait of epoll_wait, poll and select: park on [e]'s condition
   until [collect ()] finds something, or for [timeout_ms] (forever if
   negative) and then give up with nothing. *)
let park k e ~timeout_ms collect =
  let deadline =
    if timeout_ms < 0 then None
    else
      Some
        (Int64.to_int (Cost.us_to_cycles k.cost (float_of_int timeout_ms *. 1000.)))
  in
  (* The idle server's home: units park here between requests, so this
     wait dominates a lightly-loaded shard's task-cycles. *)
  let prev = E.enter_phase Phase.kernel_wait in
  let rec wait () =
    let signalled =
      match deadline with
      | None ->
        Cond.wait e.e_cond;
        true
      | Some r -> r > 0 && Cond.wait_timeout e.e_cond r
    in
    if not signalled then []
    else
      match collect () with
      | [] ->
        (* A spurious wake-up restarts the full timeout, which only ever
           makes the simulated server {e more} patient. *)
        wait ()
      | ready -> ready
  in
  let ready = wait () in
  E.leave_phase prev;
  ready

(* Ready (fd, events) pairs go out in the one wire format. *)
let ok_pairs k ready =
  charge_out k (8 * List.length ready);
  Args.ok_out (List.length ready) (Wire.encode_pairs ready)

let do_epoll_wait k proc args =
  let epfd = Args.int_arg args 0 in
  let maxevents = Args.int_arg args 1 in
  let timeout_ms = Args.int_arg args 2 in
  with_fd proc epfd (fun epentry ->
      match epentry.fde_ofile.kind with
      | K_epoll e ->
        let ready = collect e maxevents in
        if ready <> [] || timeout_ms = 0 then ok_pairs k ready
        else ok_pairs k (park k e ~timeout_ms (fun () -> collect e maxevents))
      | _ -> Args.err Errno.EINVAL)

(* A connected pair of UNIX-domain-style sockets: two endpoints peered
   with each other, as the coordinator uses for the zygote protocol and
   the per-variant data channels (§3.1, §3.3.2). *)
let do_socketpair _k proc _args =
  let a = new_endpoint () in
  let b = new_endpoint ~peer:a () in
  a.ep_peer <- Some b;
  grant_pair proc (K_sock a) (K_sock b)

let pollnval = 0x20

(* poll(2) over decoded (fd, events) entries: the ready ones in entry
   order, POLLNVAL for an fd that names nothing. A poll that must wait
   watches each entry's description from a private epoll, which no fd
   names, and parks as epoll_wait does; the watches go when it returns
   or its task is killed. *)
let poll_entries k proc entries ~timeout_ms =
  let collect () =
    List.filter_map
      (fun (fd, events) ->
        match fd_entry proc fd with
        | None -> Some (fd, pollnval)
        | Some entry ->
          let r = revents entry.fde_ofile events in
          if r <> 0 then Some (fd, r) else None)
      entries
  in
  let ready = collect () in
  if ready <> [] || timeout_ms = 0 then ok_pairs k ready
  else begin
    let e = new_epoll () in
    let watches =
      List.filter_map
        (fun (fd, events) ->
          Option.map
            (fun entry -> new_watch e fd entry.fde_ofile events)
            (fd_entry proc fd))
        entries
    in
    List.iter add_watcher watches;
    ok_pairs k
      (Fun.protect
         ~finally:(fun () -> List.iter remove_watcher watches)
         (fun () -> park k e ~timeout_ms collect))
  end

let do_poll k proc args =
  poll_entries k proc
    (Wire.decode_pairs (Args.buf_in_arg args 0))
    ~timeout_ms:(Args.int_arg args 1)

(* select(2): the read and write fd sets become poll entries, and the
   result comes back as poll's does. *)
let do_select k proc args =
  let set i events =
    List.map (fun fd -> (fd, events)) (Wire.decode_fd_set (Args.buf_in_arg args i))
  in
  poll_entries k proc
    (set 0 Flags.epollin @ set 1 Flags.epollout)
    ~timeout_ms:(Args.int_arg args 2)

let do_futex k _proc args =
  let uaddr = Args.int_arg args 0 in
  let op = Args.int_arg args 1 in
  let value = Args.int_arg args 2 in
  let slot () =
    match Hashtbl.find_opt k.futexes uaddr with
    | Some s -> s
    | None ->
      let s =
        {
          f_cond = Cond.create (Printf.sprintf "futex-%d" uaddr);
          f_waiters = 0;
          f_locked = false;
          f_acq = 0;
        }
      in
      Hashtbl.replace k.futexes uaddr s;
      s
  in
  if op = Flags.futex_wait then begin
    let s = slot () in
    let prev = E.enter_phase Phase.kernel_wait in
    s.f_waiters <- s.f_waiters + 1;
    Cond.wait s.f_cond;
    s.f_waiters <- s.f_waiters - 1;
    E.leave_phase prev;
    Args.ok 0
  end
  else if op = Flags.futex_wake then begin
    let s = slot () in
    let n = min value s.f_waiters in
    for _ = 1 to n do
      Cond.signal s.f_cond
    done;
    Args.ok n
  end
  else if op = Flags.futex_lock then begin
    (* PI-style mutex acquire. The return value is the word's acquisition
       index — a 1-based global sequence per futex — so a recorded event
       stream carries the leader's lock-acquisition order explicitly, and
       followers replaying the stream observe (and can assert) the same
       order. Contended acquires queue FIFO on the condition variable. *)
    let s = slot () in
    if s.f_locked then begin
      let prev = E.enter_phase Phase.kernel_wait in
      while s.f_locked do
        s.f_waiters <- s.f_waiters + 1;
        Cond.wait s.f_cond;
        s.f_waiters <- s.f_waiters - 1
      done;
      E.leave_phase prev
    end;
    s.f_locked <- true;
    s.f_acq <- s.f_acq + 1;
    Args.ok s.f_acq
  end
  else if op = Flags.futex_unlock then begin
    let s = slot () in
    if not s.f_locked then Args.err Errno.EPERM
    else begin
      s.f_locked <- false;
      if s.f_waiters > 0 then Cond.signal s.f_cond;
      Args.ok 0
    end
  end
  else Args.err Errno.ENOSYS

let do_wait4 _k proc _args =
  let find_exited () =
    List.find_opt (fun c -> c.exited) proc.children
  in
  if proc.children = [] then Args.err Errno.EINVAL
  else begin
    let rec loop () =
      match find_exited () with
      | Some child ->
        proc.children <- List.filter (fun c -> c != child) proc.children;
        Args.ok_out child.pid (Wire.encode_word child.exit_code)
      | None ->
        let prev = E.enter_phase Phase.kernel_wait in
        Cond.wait proc.exit_cond;
        E.leave_phase prev;
        loop ()
    in
    loop ()
  end

let do_getdents _k proc args =
  let fd = Args.int_arg args 0 in
  with_fd proc fd (fun entry ->
      match entry.fde_ofile.kind with
      | K_file (Directory d) ->
        if entry.fde_ofile.offset > 0 then Args.ok_out 0 Bytes.empty
        else begin
          (* Sorted, so the directory table's order never shows. *)
          let names = Hashtbl.fold (fun name _ acc -> name :: acc) d [] in
          let names = List.sort compare names in
          let payload = String.concat "\000" names in
          entry.fde_ofile.offset <- 1;
          Args.ok_out (List.length names) (Bytes.of_string payload)
        end
      | K_file _ -> Args.err Errno.ENOTDIR
      | _ -> Args.err Errno.ENOTDIR)

let do_fcntl _k proc args =
  let fd = Args.int_arg args 0 in
  let cmd = Args.int_arg args 1 in
  let arg = if Array.length args > 2 then Args.int_arg args 2 else 0 in
  with_fd proc fd (fun entry ->
      let o = entry.fde_ofile in
      if cmd = Flags.f_getfl then Args.ok o.flags
      else if cmd = Flags.f_setfl then begin
        o.flags <- arg;
        Args.ok 0
      end
      else if cmd = Flags.f_getfd then
        Args.ok (if entry.fde_cloexec then Flags.fd_cloexec else 0)
      else if cmd = Flags.f_setfd then begin
        entry.fde_cloexec <- arg land Flags.fd_cloexec <> 0;
        Args.ok 0
      end
      else if cmd = Flags.f_dupfd then
        if arg < 0 then Args.err Errno.EINVAL else dup_from proc o ~min:arg
      else Args.err Errno.EINVAL)

let set_signal_handler proc signo f =
  Hashtbl.replace proc.sighandlers signo (Sig_handler f)

(* Queue a caught signal directly on a process — the fault injector's
   signal source. Unlike [do_kill] there is no default-disposition kill:
   a signal without a handler is simply dropped, so an injection can
   never terminate a process out of band. *)
let post_signal proc signo =
  match Hashtbl.find_opt proc.sighandlers signo with
  | Some (Sig_handler _) ->
    proc.pending_signals <- proc.pending_signals @ [ signo ]
  | _ -> ()

let take_pending_signal proc =
  match proc.pending_signals with
  | [] -> None
  | signo :: rest ->
    proc.pending_signals <- rest;
    Some signo

let handler_for proc signo =
  match Hashtbl.find_opt proc.sighandlers signo with
  | Some (Sig_handler f) -> Some f
  | _ -> None

let do_kill k _proc args =
  let pid = Args.int_arg args 0 in
  let signo = Args.int_arg args 1 in
  match Hashtbl.find_opt k.procs pid with
  | None -> Args.err Errno.ENOENT
  | Some target ->
    (match Hashtbl.find_opt target.sighandlers signo with
    | Some (Sig_handler _) ->
      (* Caught signals become pending and are delivered at the target's
         next syscall boundary — the only point a syscall-level monitor
         can virtualise them (§2.2). *)
      post_signal target signo
    | Some Sig_ignore -> ()
    | Some Sig_default | None ->
      if signo <> Flags.sigchld then kill_proc k target signo);
    Args.ok 0

(* Deliver any pending caught signals before the call proper — native
   execution's equivalent of the monitor's boundary delivery. *)
let rec deliver_pending proc =
  match take_pending_signal proc with
  | None -> ()
  | Some signo ->
    (match handler_for proc signo with Some f -> f signo | None -> ());
    deliver_pending proc

let exec k proc sysno (args : Args.t) : Args.result =
  if proc.exited then Args.err Errno.EIO
  else begin
    deliver_pending proc;
    (* Charge the flat native cost up front; data-dependent copy costs are
       charged where the byte counts are known. *)
    let payload = Args.payload_size args in
    E.consume (Cost.native k.cost sysno payload);
    match (sysno : Sysno.t) with
    | Read | Pread64 | Readv | Recvfrom | Recvmsg -> do_read k proc args
    | Write | Pwrite64 | Writev | Sendto | Sendmsg -> do_write k proc args
    | Open | Openat -> do_open k proc args
    | Close -> do_close k proc args
    | Stat | Lstat | Access -> do_stat k proc args
    | Fstat -> do_fstat k proc args
    | Lseek -> do_lseek k proc args
    | Socket -> do_socket k proc args
    | Bind -> do_bind k proc args
    | Listen -> do_listen k proc args
    | Accept | Accept4 -> do_accept k proc args
    | Connect -> do_connect k proc args
    | Shutdown -> do_shutdown k proc args
    | Pipe -> do_pipe k proc args
    | Socketpair -> do_socketpair k proc args
    | Poll -> do_poll k proc args
    | Select -> do_select k proc args
    | Dup -> do_dup k proc args
    | Dup2 -> do_dup2 k proc args
    | Epoll_create -> do_epoll_create k proc args
    | Epoll_ctl -> do_epoll_ctl k proc args
    | Epoll_wait -> do_epoll_wait k proc args
    | Futex -> do_futex k proc args
    | Wait4 -> do_wait4 k proc args
    | Getdents -> do_getdents k proc args
    | Fcntl -> do_fcntl k proc args
    | Kill -> do_kill k proc args
    | Unlink -> (
      match Vfs.unlink k ~cwd:proc.cwd (Args.str_arg args 0) with
      | Ok () -> Args.ok 0
      | Error e -> Args.err e)
    | Mkdir -> (
      match Vfs.mkdir k ~cwd:proc.cwd (Args.str_arg args 0) with
      | Ok () -> Args.ok 0
      | Error e -> Args.err e)
    | Rmdir -> (
      match Vfs.rmdir k ~cwd:proc.cwd (Args.str_arg args 0) with
      | Ok () -> Args.ok 0
      | Error e -> Args.err e)
    | Rename -> (
      match
        Vfs.rename k ~cwd:proc.cwd (Args.str_arg args 0) (Args.str_arg args 1)
      with
      | Ok () -> Args.ok 0
      | Error e -> Args.err e)
    | Chdir -> (
      let path = Args.str_arg args 0 in
      match Vfs.lookup k ~cwd:proc.cwd path with
      | Ok (Directory _) ->
        proc.cwd <- "/" ^ String.concat "/" (Vfs.normalize ~cwd:proc.cwd path);
        Args.ok 0
      | Ok _ -> Args.err Errno.ENOTDIR
      | Error e -> Args.err e)
    | Getcwd -> Args.ok_out (String.length proc.cwd) (Bytes.of_string proc.cwd)
    | Readlink -> Args.err Errno.EINVAL
    | Chmod | Ftruncate | Flock | Fsync | Fdatasync | Madvise | Mprotect
    | Munmap | Setsockopt | Ioctl | Sched_yield | Setuid | Setgid | Setsid
    | Rt_sigprocmask | Rt_sigreturn | Sendfile ->
      Args.ok 0
    | Rt_sigaction -> Args.ok 0
    | Getsockopt -> Args.ok_out 0 (Bytes.make 4 '\000')
    | Getsockname | Getpeername -> Args.ok_out 0 (Wire.encode_word 0)
    | Umask ->
      let old = proc.umask in
      proc.umask <- Args.int_arg args 0;
      Args.ok old
    | Getpid -> Args.ok proc.pid
    | Getppid ->
      Args.ok (match proc.parent with Some p -> p.pid | None -> 0)
    | Getuid -> Args.ok proc.uid
    | Geteuid -> Args.ok proc.uid
    | Getgid -> Args.ok proc.gid
    | Getegid -> Args.ok proc.gid
    | Uname ->
      Args.ok_out 0 (Bytes.of_string "Linux varan-sim 3.13.0 x86_64")
    | Getrlimit | Getrusage | Times -> Args.ok_out 0 (Bytes.make 16 '\000')
    | Getrandom ->
      let n = Args.buf_out_arg args 0 in
      charge_out k n;
      Args.ok_out n (random_bytes k n)
    | Time -> Args.ok (Int64.to_int (Int64.div (task_now_ns k) 1_000_000_000L))
    | Gettimeofday | Clock_gettime ->
      Args.ok_out 0 (Wire.encode_timespec (task_now_ns k))
    | Getcpu -> Args.ok_out 0 (Bytes.make 8 '\000')
    | Nanosleep ->
      let ns = Args.int_arg args 0 in
      let cycles =
        Int64.to_int (Cost.us_to_cycles k.cost (float_of_int ns /. 1000.0))
      in
      E.sleep cycles;
      Args.ok 0
    | Brk ->
      let addr = Args.int_arg args 0 in
      if addr > 0 then proc.brk_addr <- addr;
      Args.ok proc.brk_addr
    | Mmap ->
      let len = Args.int_arg args 1 in
      let addr = proc.mmap_next in
      let aligned = (len + 4095) land lnot 4095 in
      proc.mmap_next <- proc.mmap_next + max 4096 aligned;
      Args.ok addr
    | Exit | Exit_group ->
      terminate ~spare:(E.self ()) k proc (Args.int_arg args 0);
      raise E.Killed
    | Clone | Fork | Execve | Pause -> Args.err Errno.ENOSYS
  end
