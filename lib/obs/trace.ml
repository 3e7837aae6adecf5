(* Virtual-time span tracer.

   Begin/end spans and instant events, stamped with the engine's virtual
   clock plus the caller's Lamport clock and (pid, tid) scope, recorded
   into a bounded pre-allocated buffer and exported as Chrome
   trace-event JSON (loadable in Perfetto / chrome://tracing).

   Recording must be near-free when off: every emit site is guarded by
   [enabled] (a single load-and-branch), and an enabled emit is four
   array stores plus two immediate-int stores — no allocation unless the
   caller builds an args string. When the buffer fills, new events are
   dropped (and counted) rather than overwriting old ones: dropping the
   oldest would orphan end-events and break span nesting in the export.

   Tracks: a track is a (pid, tid) pair. The engine emits one span per
   dispatch slice on pid 0 ("engine"); higher layers (sessions, shards)
   reserve a pid per scope via [pid_of_scope] so their spans nest on
   their own tracks and never interleave with the engine slices. *)

type kind = Begin | End | Instant

let enabled = ref false

type buf = {
  cap : int;
  kinds : kind array;
  ts : int array; (* engine vtime, cycles (immediate int, like the engine) *)
  lamport : int array;
  pids : int array;
  tids : int array;
  names : string array;
  args : string array; (* pre-rendered JSON object fragment or "" *)
  mutable len : int;
  mutable dropped : int;
}

let buf = ref None

(* Scope -> pid registry. Pid 0 is the engine's; scopes get 1, 2, ... in
   first-come order, stable for the lifetime of the trace. *)
let pids : (string, int) Hashtbl.t = Hashtbl.create 8
let next_pid = ref 1

let pid_of_scope scope =
  match Hashtbl.find_opt pids scope with
  | Some p -> p
  | None ->
    let p = !next_pid in
    incr next_pid;
    Hashtbl.replace pids scope p;
    p

let default_capacity = 1 lsl 18

let configure ?(capacity = default_capacity) () =
  buf :=
    Some
      {
        cap = capacity;
        kinds = Array.make capacity Instant;
        ts = Array.make capacity 0;
        lamport = Array.make capacity 0;
        pids = Array.make capacity 0;
        tids = Array.make capacity 0;
        names = Array.make capacity "";
        args = Array.make capacity "";
        len = 0;
        dropped = 0;
      };
  enabled := true

let disable () = enabled := false

let reset () =
  enabled := false;
  buf := None;
  Hashtbl.reset pids;
  next_pid := 1

let count () = match !buf with Some b -> b.len | None -> 0
let dropped () = match !buf with Some b -> b.dropped | None -> 0

let[@inline] emit kind ~ts ~lamport ~pid ~tid ~args name =
  match !buf with
  | None -> ()
  | Some b ->
    if b.len >= b.cap then b.dropped <- b.dropped + 1
    else begin
      let i = b.len in
      b.kinds.(i) <- kind;
      b.ts.(i) <- Int64.to_int ts;
      b.lamport.(i) <- lamport;
      b.pids.(i) <- pid;
      b.tids.(i) <- tid;
      b.names.(i) <- name;
      b.args.(i) <- args;
      b.len <- i + 1
    end

let begin_span ~ts ?(lamport = 0) ?(pid = 0) ~tid name =
  emit Begin ~ts ~lamport ~pid ~tid ~args:"" name

let end_span ~ts ?(lamport = 0) ?(pid = 0) ~tid name =
  emit End ~ts ~lamport ~pid ~tid ~args:"" name

let instant ~ts ?(lamport = 0) ?(pid = 0) ~tid ?(args = "") name =
  emit Instant ~ts ~lamport ~pid ~tid ~args name

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Chrome trace-event JSON. Timestamps are microseconds; the caller
   supplies the cycles-per-us conversion (the simulation's cost model
   clock). Process-name metadata rows label each scope's track group. *)
let write_chrome_json ?(cycles_per_us = 3500.0) path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  let sep () =
    if !first then first := false else output_string oc ",\n"
  in
  sep ();
  output_string oc
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"engine\"}}";
  (* In pid order, not the table's, so the export depends on the scopes
     registered and nothing else. *)
  Hashtbl.fold (fun scope pid acc -> (pid, scope) :: acc) pids []
  |> List.sort compare
  |> List.iter (fun (pid, scope) ->
         sep ();
         Printf.fprintf oc
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
           pid (json_escape scope));
  (match !buf with
  | None -> ()
  | Some b ->
    for i = 0 to b.len - 1 do
      sep ();
      let ph =
        match b.kinds.(i) with Begin -> "B" | End -> "E" | Instant -> "i"
      in
      let us = float_of_int b.ts.(i) /. cycles_per_us in
      let extra =
        match b.kinds.(i) with Instant -> ",\"s\":\"t\"" | _ -> ""
      in
      if b.args.(i) = "" then
        Printf.fprintf oc
          "{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d%s,\"args\":{\"lamport\":%d}}"
          (json_escape b.names.(i)) ph us b.pids.(i) b.tids.(i) extra
          b.lamport.(i)
      else
        Printf.fprintf oc
          "{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d%s,\"args\":{\"lamport\":%d,%s}}"
          (json_escape b.names.(i)) ph us b.pids.(i) b.tids.(i) extra
          b.lamport.(i) b.args.(i)
    done;
    if b.dropped > 0 then begin
      sep ();
      Printf.fprintf oc
        "{\"name\":\"trace-buffer-full: %d events dropped\",\"ph\":\"i\",\"ts\":0,\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{}}"
        b.dropped
    end);
  output_string oc "\n]}\n";
  close_out oc
