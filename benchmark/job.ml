(* What one child job reports on its last line of output, as JSON:

   - virtual: metrics of the simulated system; a seed fixes them exactly,
     so run.py requires every job of a run to agree on them;
   - host: samples of the implementation's own cost (wall time, set-up
     time, heap), pooled across jobs by run.py;
   - layers: per-layer metrics of a traced job;
   - failures: output checks that did not hold;
   - attempted / failed: operations tried and operations that failed. *)

type t = {
  mutable virt : (string * float) list;
  mutable host : (string * float list) list;
  mutable layers : (string * float) list;
  mutable failures : string list;
  mutable attempted : int;
  mutable failed : int;
}

let create () =
  { virt = []; host = []; layers = []; failures = []; attempted = 0; failed = 0 }

let virt r name v = r.virt <- (name, v) :: r.virt
let layer r name v = r.layers <- (name, v) :: r.layers

let host r name v =
  let prev = Option.value (List.assoc_opt name r.host) ~default:[] in
  r.host <- (name, v :: prev) :: List.remove_assoc name r.host

let check r ok fmt =
  Printf.ksprintf (fun msg -> if not ok then r.failures <- msg :: r.failures) fmt

let count r ~attempted ~failed =
  r.attempted <- r.attempted + attempted;
  r.failed <- r.failed + failed

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Non-finite values print as null, which run.py rejects. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let obj fields =
  "{"
  ^ String.concat "," (List.rev_map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields)
  ^ "}"

let print r =
  host r "peak_heap_mb" (heap_mb ());
  let arr vs = "[" ^ String.concat "," (List.map num vs) ^ "]" in
  print_endline
    (obj
       [
         ("failed", string_of_int r.failed);
         ("attempted", string_of_int r.attempted);
         ( "failures",
           "[" ^ String.concat "," (List.rev_map (Printf.sprintf "%S") r.failures) ^ "]" );
         ("layers", obj (List.map (fun (k, v) -> (k, num v)) r.layers));
         ("host", obj (List.map (fun (k, vs) -> (k, arr vs)) r.host));
         ("virtual", obj (List.map (fun (k, v) -> (k, num v)) r.virt));
       ])
