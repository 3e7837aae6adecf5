(* Host-time prices of single layers: the repository's Bechamel rows
   (Bench_bechamel.tests), one per layer the workloads exercise, timed
   here in batches so each row reports a median over several samples
   instead of a single estimate. Prints one JSON object (see Job) as its
   last line.

   An executable of its own: Bench_bechamel builds its rows' inputs when
   it is linked in, and those would count in every workload job's heap. *)

open Bechamel

let rows =
  [
    "ring-256-c1-b64";
    "ring-256-c4-b64";
    "ring-lanes-t64-cycle";
    "bridge-cycle-b64";
    "rewriter-30kB-image";
    "rewriter-30kB-cached";
    "pool-read-into-512B";
    "bpf-compiled-listing1";
    "engine-1k-task-switches";
  ]

(* The function a Bechamel row measures, its resource allocated once. *)
let fn_of elt =
  match Test.Elt.fn elt with
  | Test.V { fn; kind = Test.Uniq; allocate; _ } ->
    let f = fn `Init and r = Test.Uniq.prj (allocate ()) in
    fun () -> ignore (Sys.opaque_identity (f r))
  | Test.V { kind = Test.Multiple; _ } -> invalid_arg (Test.Elt.name elt)

let batch_s = 0.02
let samples = 7

(* ns per call of [f]: calibrate a batch to ~[batch_s], then time
   [samples] batches. Returns the samples. *)
let time f =
  let n = ref 1 in
  let rec calibrate () =
    let t = Spans.now_ns () in
    for _ = 1 to !n do
      f ()
    done;
    if Spans.seconds_since t < batch_s then begin
      n := !n * 2;
      calibrate ()
    end
  in
  calibrate ();
  List.init samples (fun _ ->
      let t = Spans.now_ns () in
      for _ = 1 to !n do
        f ()
      done;
      Spans.seconds_since t *. 1e9 /. float_of_int !n)

let () =
  let rep = Job.create () in
  let elts = Test.expand Bench_bechamel.tests in
  List.iter
    (fun name ->
      match List.find_opt (fun e -> Test.Elt.name e = name) elts with
      | None -> Job.check rep false "no Bechamel row %s" name
      | Some e ->
        let ns = time (fn_of e) in
        Job.layer rep ("micro." ^ name) (Varan_util.Stats.median ns);
        List.iter (Job.host rep ("micro." ^ name)) ns)
    rows;
  Job.print rep
