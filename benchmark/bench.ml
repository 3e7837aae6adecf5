(* One job of the benchmark, run in its own process by run.py:

     bench.exe --workload W --seed N --job fixed|extra [--trace-out FILE]

   [fixed] is the workload's main run (repeated for host-time samples),
   [extra] the serving workloads' native baseline and capacity search.
   [--trace-out] traces the job: it turns on the cycle profile and the
   host-clock spans, reports per-layer metrics and writes the spans to
   FILE as a Chrome trace. The job prints one JSON object (see Job) as
   its last line. The per-layer host-time rows are micro.exe's job. *)

let workloads = [ "serve-read"; "serve-replicated-write"; "c10k-closed"; "futex-threads" ]

let () =
  let workload = ref "" and seed = ref 424_242 and job = ref "fixed" in
  let trace_out = ref "" in
  let usage = "bench.exe --workload W --seed N --job fixed|extra [--trace-out FILE]" in
  Arg.parse
    [
      ("--workload", Arg.Symbol (workloads, ( := ) workload), " workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--job", Arg.Symbol ([ "fixed"; "extra" ], ( := ) job), " job");
      ("--trace-out", Arg.Set_string trace_out, "FILE trace the job, spans to FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let traced = !trace_out <> "" and seed = !seed in
  Spans.enabled := traced;
  let rep = Job.create () in
  (match (!workload, !job) with
  | "serve-read", "fixed" -> Serve.fixed ~traced rep Serve.read ~seed
  | "serve-read", "extra" -> Serve.extra rep Serve.read ~seed
  | "serve-replicated-write", "fixed" -> Serve.fixed ~traced rep Serve.replicated_write ~seed
  | "serve-replicated-write", "extra" -> Serve.extra rep Serve.replicated_write ~seed
  | "c10k-closed", "fixed" -> C10k.run ~traced rep ~seed
  | "futex-threads", "fixed" -> Futex.run ~traced rep ~seed
  | _ ->
    prerr_endline usage;
    exit 2);
  if traced then Spans.write_chrome !trace_out;
  Job.print rep
