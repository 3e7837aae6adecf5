(* The simulated kernel's object graph. Everything lives in one recursive
   knot because file descriptions, epoll instances and waitable objects
   reference each other, just as in a real kernel. *)

module Cond = Varan_sim.Engine.Cond

(* Descriptor tables, keyed by fd: every walk goes in ascending fd order,
   as Linux's fdtable does. *)
module Fdmap = Map.Make (Int)

type node =
  | Regular of regular
  | Directory of (string, node) Hashtbl.t
  | Dev_null
  | Dev_zero
  | Dev_urandom

(* A file's bytes are [content.[0, size)]. The buffer's capacity doubles
   as the file grows, so appends cost amortised O(1) per byte, and every
   byte past [size] is zero, so a write past EOF reads back a zero-filled
   gap. *)
and regular = { mutable content : Bytes.t; mutable size : int }

(* An epoll instance keeps a ready list, as Linux's [rdllist]: every
   watch whose object may be ready is on it, once. A wake-up on the
   object queues its watches; [epoll_wait] looks only at the queued
   watches and drops those it finds not ready, so its cost follows what
   is ready, not what is watched. *)
type epoll = {
  mutable e_watches : watch Fdmap.t;
  mutable e_ready : watch list;
  e_cond : Cond.cond;
}

and watch = {
  w_fd : int; (* the fd it was added with, its key in [e_watches] *)
  w_ofile : ofile;
  w_epoll : epoll;
  mutable w_events : int;
  mutable w_queued : bool; (* on [w_epoll.e_ready] *)
  mutable w_dead : bool; (* deleted, or its description released *)
}

and pipe = {
  p_q : Bytequeue.t;
  mutable p_readers : int;
  mutable p_writers : int;
  p_readable : Cond.cond;
  p_writable : Cond.cond;
  mutable p_watchers : watch list;
}

and endpoint = {
  ep_rx : Bytequeue.t;
  mutable ep_peer : endpoint option;
  mutable ep_port : int; (* bound local port, 0 if unbound *)
  mutable ep_peer_closed : bool; (* no more data will arrive *)
  mutable ep_closed : bool;
  ep_readable : Cond.cond;
  ep_writable : Cond.cond;
  mutable ep_watchers : watch list;
}

and listener = {
  l_port : int;
  l_backlog : endpoint Queue.t;
  mutable l_closed : bool;
  l_cond : Cond.cond;
  mutable l_watchers : watch list;
}

and ofile_kind =
  | K_file of node
  | K_pipe_r of pipe
  | K_pipe_w of pipe
  | K_sock of endpoint
  | K_listen of listener
  | K_epoll of epoll

and ofile = {
  mutable kind : ofile_kind;
  mutable offset : int;
  mutable flags : int; (* O_* status flags, notably O_NONBLOCK *)
  mutable refcount : int;
}

type fd_entry = { mutable fde_ofile : ofile; mutable fde_cloexec : bool }

type sig_disposition = Sig_default | Sig_ignore | Sig_handler of (int -> unit)

type proc = {
  pid : int;
  pname : string;
  mutable fds : fd_entry Fdmap.t;
  mutable cwd : string;
  mutable brk_addr : int;
  mutable mmap_next : int;
  sighandlers : (int, sig_disposition) Hashtbl.t;
  mutable exited : bool;
  mutable exit_code : int;
  mutable umask : int;
  mutable parent : proc option;
  mutable children : proc list;
  exit_cond : Cond.cond; (* signalled when a child exits *)
  mutable tasks : Varan_sim.Engine.task_id list;
  mutable pending_signals : int list; (* delivered at syscall boundaries *)
  uid : int;
  gid : int;
}

type futex_slot = {
  f_cond : Cond.cond;
  mutable f_waiters : int;
  (* futex_lock/futex_unlock (PI-style mutex ops): whether the word is
     held, and a monotonically increasing acquisition counter — the
     lock-acquisition order the NVX leader streams for followers to
     replay. *)
  mutable f_locked : bool;
  mutable f_acq : int;
}

type t = {
  eng : Varan_sim.Engine.t;
  cost : Varan_cycles.Cost.t;
  root : node; (* always a Directory *)
  listeners : (int, listener) Hashtbl.t; (* port -> listener *)
  futexes : (int, futex_slot) Hashtbl.t; (* uaddr -> slot *)
  procs : (int, proc) Hashtbl.t;
  mutable next_pid : int;
  mutable next_ephemeral_port : int;
  rng : Varan_util.Prng.t;
  link_latency : int; (* cycles for one network direction *)
  epoch_seconds : int; (* wall-clock base for time(2) *)
}
