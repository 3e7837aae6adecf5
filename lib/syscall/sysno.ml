type t =
  | Read
  | Write
  | Open
  | Close
  | Stat
  | Fstat
  | Lstat
  | Poll
  | Lseek
  | Mmap
  | Mprotect
  | Munmap
  | Brk
  | Rt_sigaction
  | Rt_sigprocmask
  | Rt_sigreturn
  | Ioctl
  | Pread64
  | Pwrite64
  | Readv
  | Writev
  | Access
  | Pipe
  | Select
  | Sched_yield
  | Madvise
  | Dup
  | Dup2
  | Pause
  | Nanosleep
  | Getpid
  | Sendfile
  | Socket
  | Connect
  | Accept
  | Sendto
  | Recvfrom
  | Sendmsg
  | Recvmsg
  | Shutdown
  | Bind
  | Listen
  | Getsockname
  | Getpeername
  | Socketpair
  | Setsockopt
  | Getsockopt
  | Clone
  | Fork
  | Execve
  | Exit
  | Wait4
  | Kill
  | Uname
  | Fcntl
  | Flock
  | Fsync
  | Fdatasync
  | Ftruncate
  | Getdents
  | Getcwd
  | Chdir
  | Rename
  | Mkdir
  | Rmdir
  | Unlink
  | Readlink
  | Chmod
  | Umask
  | Gettimeofday
  | Getrlimit
  | Getrusage
  | Times
  | Getuid
  | Getgid
  | Setuid
  | Setgid
  | Geteuid
  | Getegid
  | Getppid
  | Setsid
  | Time
  | Futex
  | Epoll_create
  | Epoll_wait
  | Epoll_ctl
  | Openat
  | Exit_group
  | Accept4
  | Clock_gettime
  | Getcpu
  | Getrandom

type transfer_class =
  | By_value
  | Out_buffer
  | In_buffer
  | New_fd
  | Vdso
  | Process_local
  | Process_control

(* x86-64 Linux syscall numbers. *)
let to_int = function
  | Read -> 0
  | Write -> 1
  | Open -> 2
  | Close -> 3
  | Stat -> 4
  | Fstat -> 5
  | Lstat -> 6
  | Poll -> 7
  | Lseek -> 8
  | Mmap -> 9
  | Mprotect -> 10
  | Munmap -> 11
  | Brk -> 12
  | Rt_sigaction -> 13
  | Rt_sigprocmask -> 14
  | Rt_sigreturn -> 15
  | Ioctl -> 16
  | Pread64 -> 17
  | Pwrite64 -> 18
  | Readv -> 19
  | Writev -> 20
  | Access -> 21
  | Pipe -> 22
  | Select -> 23
  | Sched_yield -> 24
  | Madvise -> 28
  | Dup -> 32
  | Dup2 -> 33
  | Pause -> 34
  | Nanosleep -> 35
  | Getpid -> 39
  | Sendfile -> 40
  | Socket -> 41
  | Connect -> 42
  | Accept -> 43
  | Sendto -> 44
  | Recvfrom -> 45
  | Sendmsg -> 46
  | Recvmsg -> 47
  | Shutdown -> 48
  | Bind -> 49
  | Listen -> 50
  | Getsockname -> 51
  | Getpeername -> 52
  | Socketpair -> 53
  | Setsockopt -> 54
  | Getsockopt -> 55
  | Clone -> 56
  | Fork -> 57
  | Execve -> 59
  | Exit -> 60
  | Wait4 -> 61
  | Kill -> 62
  | Uname -> 63
  | Fcntl -> 72
  | Flock -> 73
  | Fsync -> 74
  | Fdatasync -> 75
  | Ftruncate -> 77
  | Getdents -> 78
  | Getcwd -> 79
  | Chdir -> 80
  | Rename -> 82
  | Mkdir -> 83
  | Rmdir -> 84
  | Unlink -> 87
  | Readlink -> 89
  | Chmod -> 90
  | Umask -> 95
  | Gettimeofday -> 96
  | Getrlimit -> 97
  | Getrusage -> 98
  | Times -> 100
  | Getuid -> 102
  | Getgid -> 104
  | Setuid -> 105
  | Setgid -> 106
  | Geteuid -> 107
  | Getegid -> 108
  | Getppid -> 110
  | Setsid -> 112
  | Time -> 201
  | Futex -> 202
  | Epoll_create -> 213
  | Epoll_wait -> 232
  | Epoll_ctl -> 233
  | Openat -> 257
  | Exit_group -> 231
  | Accept4 -> 288
  | Clock_gettime -> 228
  | Getcpu -> 309
  | Getrandom -> 318

let all =
  [
    Read; Write; Open; Close; Stat; Fstat; Lstat; Poll; Lseek; Mmap; Mprotect;
    Munmap; Brk; Rt_sigaction; Rt_sigprocmask; Rt_sigreturn; Ioctl; Pread64;
    Pwrite64; Readv; Writev; Access; Pipe; Select; Sched_yield; Madvise; Dup;
    Dup2; Pause; Nanosleep; Getpid; Sendfile; Socket; Connect; Accept; Sendto;
    Recvfrom; Sendmsg; Recvmsg; Shutdown; Bind; Listen; Getsockname;
    Getpeername; Socketpair; Setsockopt; Getsockopt; Clone; Fork; Execve;
    Exit; Wait4; Kill; Uname; Fcntl; Flock; Fsync; Fdatasync; Ftruncate;
    Getdents; Getcwd; Chdir; Rename; Mkdir; Rmdir; Unlink; Readlink; Chmod;
    Umask; Gettimeofday; Getrlimit; Getrusage; Times; Getuid; Getgid; Setuid;
    Setgid; Geteuid; Getegid; Getppid; Setsid; Time; Futex; Epoll_create;
    Epoll_wait; Epoll_ctl; Openat; Exit_group; Accept4; Clock_gettime; Getcpu;
    Getrandom;
  ]
  |> List.sort (fun a b -> Stdlib.compare (to_int a) (to_int b))

let of_int_table =
  let h = Hashtbl.create 128 in
  List.iter (fun s -> Hashtbl.replace h (to_int s) s) all;
  h

let of_int n = Hashtbl.find_opt of_int_table n

let name = function
  | Read -> "read"
  | Write -> "write"
  | Open -> "open"
  | Close -> "close"
  | Stat -> "stat"
  | Fstat -> "fstat"
  | Lstat -> "lstat"
  | Poll -> "poll"
  | Lseek -> "lseek"
  | Mmap -> "mmap"
  | Mprotect -> "mprotect"
  | Munmap -> "munmap"
  | Brk -> "brk"
  | Rt_sigaction -> "rt_sigaction"
  | Rt_sigprocmask -> "rt_sigprocmask"
  | Rt_sigreturn -> "rt_sigreturn"
  | Ioctl -> "ioctl"
  | Pread64 -> "pread64"
  | Pwrite64 -> "pwrite64"
  | Readv -> "readv"
  | Writev -> "writev"
  | Access -> "access"
  | Pipe -> "pipe"
  | Select -> "select"
  | Sched_yield -> "sched_yield"
  | Madvise -> "madvise"
  | Dup -> "dup"
  | Dup2 -> "dup2"
  | Pause -> "pause"
  | Nanosleep -> "nanosleep"
  | Getpid -> "getpid"
  | Sendfile -> "sendfile"
  | Socket -> "socket"
  | Connect -> "connect"
  | Accept -> "accept"
  | Sendto -> "sendto"
  | Recvfrom -> "recvfrom"
  | Sendmsg -> "sendmsg"
  | Recvmsg -> "recvmsg"
  | Shutdown -> "shutdown"
  | Bind -> "bind"
  | Listen -> "listen"
  | Getsockname -> "getsockname"
  | Getpeername -> "getpeername"
  | Socketpair -> "socketpair"
  | Setsockopt -> "setsockopt"
  | Getsockopt -> "getsockopt"
  | Clone -> "clone"
  | Fork -> "fork"
  | Execve -> "execve"
  | Exit -> "exit"
  | Wait4 -> "wait4"
  | Kill -> "kill"
  | Uname -> "uname"
  | Fcntl -> "fcntl"
  | Flock -> "flock"
  | Fsync -> "fsync"
  | Fdatasync -> "fdatasync"
  | Ftruncate -> "ftruncate"
  | Getdents -> "getdents"
  | Getcwd -> "getcwd"
  | Chdir -> "chdir"
  | Rename -> "rename"
  | Mkdir -> "mkdir"
  | Rmdir -> "rmdir"
  | Unlink -> "unlink"
  | Readlink -> "readlink"
  | Chmod -> "chmod"
  | Umask -> "umask"
  | Gettimeofday -> "gettimeofday"
  | Getrlimit -> "getrlimit"
  | Getrusage -> "getrusage"
  | Times -> "times"
  | Getuid -> "getuid"
  | Getgid -> "getgid"
  | Setuid -> "setuid"
  | Setgid -> "setgid"
  | Geteuid -> "geteuid"
  | Getegid -> "getegid"
  | Getppid -> "getppid"
  | Setsid -> "setsid"
  | Time -> "time"
  | Futex -> "futex"
  | Epoll_create -> "epoll_create"
  | Epoll_wait -> "epoll_wait"
  | Epoll_ctl -> "epoll_ctl"
  | Openat -> "openat"
  | Exit_group -> "exit_group"
  | Accept4 -> "accept4"
  | Clock_gettime -> "clock_gettime"
  | Getcpu -> "getcpu"
  | Getrandom -> "getrandom"

let transfer_class = function
  | Read | Pread64 | Readv | Recvfrom | Recvmsg | Getdents | Getcwd
  | Readlink | Stat | Fstat | Lstat | Poll | Select | Epoll_wait | Uname
  | Getrlimit | Getrusage | Times | Wait4 | Getsockname | Getpeername
  | Getsockopt | Getrandom ->
    Out_buffer
  | Write | Pwrite64 | Writev | Sendto | Sendmsg | Sendfile | Access | Chdir
  | Rename | Mkdir | Rmdir | Unlink | Chmod | Setsockopt | Bind | Connect
  | Ioctl ->
    In_buffer
  | Open | Openat | Socket | Accept | Accept4 | Dup | Dup2 | Pipe
  | Socketpair | Epoll_create ->
    New_fd
  | Time | Gettimeofday | Clock_gettime | Getcpu -> Vdso
  | Mmap | Mprotect | Munmap | Brk | Madvise | Sched_yield -> Process_local
  | Clone | Fork | Execve | Exit | Exit_group | Kill | Rt_sigaction
  | Rt_sigprocmask | Rt_sigreturn | Pause ->
    Process_control
  | Close | Lseek | Shutdown | Listen | Fcntl | Flock | Fsync | Fdatasync
  | Ftruncate | Umask | Getpid | Getppid | Getuid | Getgid | Setuid | Setgid
  | Geteuid | Getegid | Setsid | Nanosleep | Futex | Epoll_ctl ->
    By_value

let is_blocking = function
  | Read | Recvfrom | Recvmsg | Accept | Accept4 | Epoll_wait | Poll | Select
  | Wait4 | Futex | Nanosleep | Pause ->
    true
  | _ -> false

let compare a b = Stdlib.compare (to_int a) (to_int b)
let equal a b = to_int a = to_int b
