(** System call arguments and results, as seen by the interposition layer.

    The representation mirrors what a syscall-level monitor can observe on
    x86-64: up to six register-sized values, plus the memory they point at
    (paths, input buffers) and the space the kernel will fill (output
    buffers). The NVX event streamer uses {!Sysno.transfer_class} to decide
    which parts must travel in the ring-buffer event, which need a
    shared-memory copy, and which need the file-descriptor data channel. *)

type arg =
  | Int of int  (** register-sized immediate (fd numbers, flags, lengths) *)
  | Str of string  (** NUL-terminated user memory, e.g. a path *)
  | Buf_in of Bytes.t  (** caller buffer the kernel only reads *)
  | Buf_out of int  (** caller buffer of given length the kernel fills *)

type t = arg array

type result = {
  ret : int;  (** return value, or [-errno] on failure, Linux-style *)
  out : Bytes.t option;  (** bytes the kernel produced into an out-buffer *)
  fd_object : Obj.t option;
      (** for [New_fd] calls under NVX: an opaque handle to the kernel-side
          open-file description, so the monitor can duplicate it into
          follower fd tables over the data channel. Opaque here to keep
          this library independent of the kernel. *)
}

val ok : int -> result
(** A plain success result carrying only a return value. *)

val ok_out : int -> Bytes.t -> result
(** Success with an out-buffer payload. *)

val err : Errno.t -> result
(** Failure result: [ret] is the negated errno. *)

val errno_of : result -> Errno.t option

val int_arg : t -> int -> int
(** [int_arg args i] extracts argument [i] as an integer.
    @raise Invalid_argument if it is not an [Int]. *)

val str_arg : t -> int -> string
val buf_in_arg : t -> int -> Bytes.t
val buf_out_arg : t -> int -> int

val payload_size : t -> int
(** Total bytes of by-reference input payload ([Str] and [Buf_in]); used by
    the cost model for copy charges. *)

val pp : Format.formatter -> t -> unit
val pp_result : Format.formatter -> result -> unit
