(* CSV export for the benchmark harness: every table the harness prints is
   also written under results/ so downstream tooling (plots, regression
   tracking) can consume the numbers without scraping stdout. *)

let results_dir = "results"

let ensure_dir () =
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755

let save_csv ~name table =
  ensure_dir ();
  let path = Filename.concat results_dir (name ^ ".csv") in
  let oc = open_out path in
  output_string oc (Varan_util.Tablefmt.to_csv table);
  close_out oc;
  Printf.printf "[saved %s]\n" path

(* Machine-trackable hot-path regression record, written at the repo root
   so CI can diff the perf trajectory across PRs. *)
let hotpath_json_path = "BENCH_hotpath.json"

let json_escape = Varan_obs.Trace.json_escape

(* Serving-layer trajectory (req/s vs shard count, tail latency vs
   follower count), also at the repo root for the CI scaling gate. *)
let serving_json_path = "BENCH_serving.json"

type serving_row = {
  r_name : string;
  r_shards : int;
  r_followers : int;
  r_completed : int;
  r_errors : int;
  r_req_per_s : float;
  r_mean_us : float;
  r_p50_us : float;
  r_p99_us : float;
  r_p999_us : float;
}

let save_serving_json rows =
  let oc = open_out serving_json_path in
  output_string oc "{\n";
  output_string oc "  \"schema\": \"varan-serving/1\",\n";
  output_string oc "  \"latency_unit\": \"virtual_us\",\n";
  output_string oc "  \"rows\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"shards\": %d, \"followers\": %d, \
         \"completed\": %d, \"errors\": %d, \"req_per_s\": %.1f, \
         \"mean_us\": %.2f, \"p50_us\": %.2f, \"p99_us\": %.2f, \
         \"p999_us\": %.2f}%s\n"
        (json_escape r.r_name) r.r_shards r.r_followers r.r_completed
        r.r_errors r.r_req_per_s r.r_mean_us r.r_p50_us r.r_p99_us r.r_p999_us
        (if i = n - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "[saved %s]\n" serving_json_path

let save_hotpath_json results =
  let oc = open_out hotpath_json_path in
  output_string oc "{\n";
  output_string oc "  \"schema\": \"varan-hotpath-micro/1\",\n";
  output_string oc "  \"unit\": \"ns/run\",\n";
  output_string oc "  \"results\": {\n";
  let n = List.length results in
  List.iteri
    (fun i (name, ns) ->
      (* Ratios below 100 keep four significant digits, so that a gate
         on a ratio near 1 or below reads what was measured. *)
      Printf.fprintf oc "    \"%s\": %s%s\n" (json_escape name)
        (if Float.abs ns >= 100.0 then Printf.sprintf "%.1f" ns
         else Printf.sprintf "%.4g" ns)
        (if i = n - 1 then "" else ","))
    results;
  output_string oc "  }\n}\n";
  close_out oc;
  Printf.printf "[saved %s]\n" hotpath_json_path
