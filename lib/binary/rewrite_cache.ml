(* Bump whenever Rewriter's output format changes: stale entries from an
   older rewriter must never be served, and mixing versions into the
   content hash is cheaper than a flush protocol. *)
let version = "rw2"

type t = {
  table : (string, Rewriter.relocatable) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable rebases : int;
}

let create () = { table = Hashtbl.create 16; hits = 0; misses = 0; rebases = 0 }

type key = string

let key code = version ^ ":" ^ Digest.to_hex (Digest.bytes code)

let prepare t ?(first_site_id = 0) ~key code =
  match Hashtbl.find_opt t.table key with
  | Some rt ->
    t.hits <- t.hits + 1;
    t.rebases <- t.rebases + 1;
    Rewriter.rebase rt ~first_site_id
  | None ->
    t.misses <- t.misses + 1;
    let rt = Rewriter.rewrite_relocatable code in
    Hashtbl.replace t.table key rt;
    Rewriter.rebase rt ~first_site_id

let prepare_segment t ?first_site_id ~key seg =
  let out = ref None in
  Image.with_writable seg (fun data ->
      let r = prepare t ?first_site_id ~key data in
      out := Some r;
      r.Rewriter.code);
  match !out with
  | Some r -> (r.Rewriter.sites, r.Rewriter.stats)
  | None -> assert false

type stats = { hits : int; misses : int; rebases : int; entries : int }

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    rebases = t.rebases;
    entries = Hashtbl.length t.table;
  }
