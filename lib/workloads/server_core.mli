(** Server skeletons shared by the benchmark applications.

    Two classic architectures:
    - {!epoll_server}: a single-threaded event loop multiplexing many
      connections (lighttpd, nginx workers, memcached workers, redis,
      beanstalkd);
    - {!accept_server}: accept → serve the whole connection → close
      (Apache httpd's prefork workers, thttpd).

    Multi-unit servers run one skeleton instance per unit on
    [port + unit] — the SO_REUSEPORT-style model documented in DESIGN.md —
    so units never share descriptors at runtime.

    Requests and responses are {!Proto} frames. A [handler] maps one
    request payload to one whole response frame, built with
    {!Proto.frame_alloc}, {!Proto.frame} or {!Proto.frame_of_string} (or
    built once and reused, since a send copies it), and may issue its own
    syscalls (file I/O, logging) through the API first. Servers exit after [expected_conns]
    connections have closed, so simulations terminate. *)

open Varan_kernel

type handler = Api.t -> Bytes.t -> Bytes.t

val epoll_server :
  port:int -> expected_conns:int -> handler:handler -> Api.t -> unit

val accept_server :
  port:int -> expected_conns:int -> handler:handler -> Api.t -> unit

val conns_for_unit : connections:int -> units:int -> int -> int
(** [conns_for_unit ~connections ~units u] is how many of the load's
    connections round-robin onto unit [u]. *)
