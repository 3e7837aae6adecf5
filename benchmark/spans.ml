(* Host-clock spans around the benchmark's own calls into each layer,
   kept in memory and written out as Chrome trace-event JSON at the end
   of a traced run. Off unless [enabled] is set, so an untraced run pays
   one branch per site. *)

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let enabled = ref false

(* (name, start ns, duration ns), newest first. *)
let recorded : (string * int64 * int64) list ref = ref []

let span name f =
  if not !enabled then f ()
  else begin
    let t0 = now_ns () in
    Fun.protect f ~finally:(fun () ->
        recorded := (name, t0, Int64.sub (now_ns ()) t0) :: !recorded)
  end

(* Complete ("X") events on one track: viewers nest them by interval, so
   a span's self time is what its children leave uncovered. *)
let write_chrome path =
  let oc = open_out path in
  let spans = List.rev !recorded in
  let base = match spans with (_, t, _) :: _ -> t | [] -> 0L in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i (name, t0, d) ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}"
        (if i = 0 then "" else ",")
        name
        (Int64.to_float (Int64.sub t0 base) /. 1e3)
        (Int64.to_float d /. 1e3))
    spans;
  output_string oc "\n]}\n";
  close_out oc
