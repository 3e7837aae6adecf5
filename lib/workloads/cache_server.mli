(** A memcached-style object cache: [set key len] + payload and
    [get key] commands over framed messages, multi-threaded with all
    units sharing the variant's slab store. *)

open Varan_kernel

type config = {
  port : int;
  units : int;
  work_cycles : int;  (** hashing + slab accounting per command *)
  expected_conns : int;
}

val make_body : config -> unit -> unit_idx:int -> Api.t -> unit

val respond : (string, string) Hashtbl.t -> Bytes.t -> Bytes.t
(** Execute one command against the store and return the reply as a
    whole {!Proto} frame: [STORED] for a set, [VALUE <v>] or [END] for a
    get, [ERROR] for anything else. The fixed replies share one frame
    each, so the result is read-only. A set whose length field is not a
    number stores the whole payload; one longer than the payload stores
    what there is.
    @raise Invalid_argument on a negative set length. *)

val set_cmd : string -> Bytes.t -> Bytes.t
val get_cmd : string -> Bytes.t
