(* Hot-path cycle attribution.

   Each task of the engine is in at most one phase at a time, and the
   engine charges every interval a task spends in a phase to that
   phase's bucket when the task switches phase ([Engine.enter_phase],
   [Engine.leave_phase]). Phases nest: entering an inner phase closes
   the outer one's interval, and leaving it reopens the outer one, so
   every cycle lands in exactly one bucket and the buckets can be
   summed and compared against the engine's total task-cycles. A
   pinned phase ([pinned]) takes the inner phases entered while it is
   current as part of itself: the open-loop client's reply wait spans
   the kernel's blocking read and is counted once, as client-wait.

   The buckets are process-global plain int accumulators: [charge] is
   one load, one add, one store, and the engine calls it only while
   [enabled] is set. *)
type phase = int

let ring_wait = 0 (* follower parked waiting for leader events *)
let ring_gate = 1 (* leader parked on the publish gate (slow consumer) *)
let syscall_exec = 2 (* kernel execution of intercepted syscalls *)
let oracle_digest = 3 (* divergence digest + oracle checks *)
let rewrite = 4 (* binary rewrite at spawn: no virtual cycles, reads 0 *)
let bridge_wire = 5 (* cross-node frame encode + link occupancy *)
let sched_dispatch = 6 (* scheduler-induced resume lag (ticker jumps) *)
let kernel_wait = 7 (* blocked in the simulated kernel *)
let app_compute = 8 (* variant body cycles between intercepted syscalls *)
let client_idle = 9 (* open-loop worker ahead of schedule (arrival sleep) *)
let client_wait = 10 (* open-loop worker send-to-reply (incl. queueing) *)

let n_phases = 11

let phase_name = function
  | 0 -> "ring-wait"
  | 1 -> "ring-gate"
  | 2 -> "syscall-exec"
  | 3 -> "oracle-digest"
  | 4 -> "rewrite"
  | 5 -> "bridge-wire"
  | 6 -> "sched-dispatch"
  | 7 -> "kernel-wait"
  | 8 -> "app-compute"
  | 9 -> "client-idle"
  | 10 -> "client-wait"
  | _ -> "?"

let enabled = ref false

(* Above every phase id: a phase entered as [pinned p] charges to [p]. *)
let pin_bit = 0x100
let pinned p = p lor pin_bit

let buckets = Array.make n_phases 0

(* The client backlog gauge: virtual time the open-loop generator was
   behind its own arrival schedule at each send. Not a phase (the cycles
   it measures are already attributed to whatever kept the worker busy);
   it is the direct signal for "client-worker scheduling is the
   bottleneck". *)
let backlog_cycles = ref 0L
let backlog_events = ref 0

let reset () =
  Array.fill buckets 0 n_phases 0;
  backlog_cycles := 0L;
  backlog_events := 0

let charge p d = buckets.(p) <- buckets.(p) + d
let cycles p = Int64.of_int buckets.(p)

let note_backlog d =
  if d > 0L then begin
    backlog_cycles := Int64.add !backlog_cycles d;
    incr backlog_events
  end

let backlog () = (!backlog_cycles, !backlog_events)

let total () = Int64.of_int (Array.fold_left ( + ) 0 buckets)

let rows () =
  List.init n_phases (fun p -> (phase_name p, cycles p))
  |> List.filter (fun (_, c) -> c > 0L)
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* Render the attribution table. [total_cycles] is the denominator the
   coverage line is judged against — the engine's total task-cycles
   (busy + blocked vtime summed over every task's lifetime). *)
let render ~total_cycles =
  let tbl =
    Varan_util.Tablefmt.create ~title:"cycle attribution (virtual cycles)"
      [
        ("phase", Varan_util.Tablefmt.Left);
        ("cycles", Varan_util.Tablefmt.Right);
        ("% of total", Varan_util.Tablefmt.Right);
      ]
  in
  let denom =
    if total_cycles > 0L then Int64.to_float total_cycles
    else Int64.to_float (max 1L (total ()))
  in
  List.iter
    (fun (name, c) ->
      Varan_util.Tablefmt.add_row tbl
        [
          name;
          Int64.to_string c;
          Printf.sprintf "%.1f%%" (100.0 *. Int64.to_float c /. denom);
        ])
    (rows ());
  Varan_util.Tablefmt.add_rule tbl;
  let attributed = total () in
  Varan_util.Tablefmt.add_row tbl
    [
      "attributed";
      Int64.to_string attributed;
      Printf.sprintf "%.1f%%" (100.0 *. Int64.to_float attributed /. denom);
    ];
  Varan_util.Tablefmt.add_row tbl
    [ "total task-cycles"; Int64.to_string total_cycles; "100.0%" ];
  let b = Buffer.create 512 in
  Buffer.add_string b (Varan_util.Tablefmt.render tbl);
  let bl, bn = backlog () in
  if bn > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "client-worker backlog: %Ld cycles behind schedule over %d sends \
          (mean %.0f cycles/send)\n"
         bl bn
         (Int64.to_float bl /. float_of_int bn));
  Buffer.contents b
