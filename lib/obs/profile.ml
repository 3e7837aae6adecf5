(* Hot-path cycle attribution.

   Each instrumented region charges the virtual cycles it spanned
   (measured by the caller as an [Engine.now_cycles] delta) to one of a
   fixed set of phases. The buckets are process-global plain int64
   accumulators: [add] is one load, one add, one store. Everything is
   gated on [enabled] at the call sites, so a disabled build pays a
   single load-and-branch per site.

   Two refinements keep the buckets disjoint (so they can be summed and
   compared against the engine's total task-cycles):

   - Suppression: a region that deliberately subsumes inner waits (the
     open-loop client's reply wait spans the kernel's blocking read)
     marks its task as suppressed; inner wait sites then skip their own
     attribution so the cycles are counted exactly once, in the outer
     phase.

   - Stolen cycles: a region that wants exclusive time (the leader's
     syscall-execute region should not absorb the vtime it spent parked
     in a kernel block) reads its task's [stolen] total before and
     after, and subtracts the delta; wait sites credit [stolen] as they
     charge their own phase.

   The per-task tables are only touched while profiling is enabled, so
   their cost never leaks into production paths. *)

type phase = int

let ring_wait = 0 (* follower parked waiting for leader events *)
let ring_gate = 1 (* leader parked on the publish gate (slow consumer) *)
let syscall_exec = 2 (* kernel execution of intercepted syscalls *)
let oracle_digest = 3 (* divergence digest + oracle checks *)
let rewrite = 4 (* binary rewrite / cached rebase at spawn *)
let bridge_wire = 5 (* cross-node frame encode + link occupancy *)
let sched_dispatch = 6 (* scheduler-induced resume lag (ticker jumps) *)
let kernel_wait = 7 (* blocked in the simulated kernel (unsuppressed) *)
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

let buckets = Array.make n_phases 0L
let hits = Array.make n_phases 0

(* Per-task side tables; live only while profiling. *)
let suppress_tbl : (int, int) Hashtbl.t = Hashtbl.create 64
let stolen_tbl : (int, int64) Hashtbl.t = Hashtbl.create 64
let gap_tbl : (int, int64) Hashtbl.t = Hashtbl.create 64

(* The client backlog gauge: virtual time the open-loop generator was
   behind its own arrival schedule at each send. Not a phase (the cycles
   it measures are already attributed to whatever kept the worker busy);
   it is the direct signal for "client-worker scheduling is the
   bottleneck". *)
let backlog_cycles = ref 0L
let backlog_events = ref 0

let reset () =
  Array.fill buckets 0 n_phases 0L;
  Array.fill hits 0 n_phases 0;
  Hashtbl.reset suppress_tbl;
  Hashtbl.reset stolen_tbl;
  Hashtbl.reset gap_tbl;
  backlog_cycles := 0L;
  backlog_events := 0

let add p d =
  if d > 0L then begin
    buckets.(p) <- Int64.add buckets.(p) d;
    hits.(p) <- hits.(p) + 1
  end

let cycles p = buckets.(p)
let hit_count p = hits.(p)

let suppress tid =
  let d = Option.value (Hashtbl.find_opt suppress_tbl tid) ~default:0 in
  Hashtbl.replace suppress_tbl tid (d + 1)

let unsuppress tid =
  match Hashtbl.find_opt suppress_tbl tid with
  | Some d when d > 1 -> Hashtbl.replace suppress_tbl tid (d - 1)
  | Some _ -> Hashtbl.remove suppress_tbl tid
  | None -> ()

let suppressed tid = Hashtbl.mem suppress_tbl tid

let steal tid d =
  let s = Option.value (Hashtbl.find_opt stolen_tbl tid) ~default:0L in
  Hashtbl.replace stolen_tbl tid (Int64.add s d)

let stolen tid = Option.value (Hashtbl.find_opt stolen_tbl tid) ~default:0L

(* App-compute gap accounting: a variant unit marks its exit timestamp
   when an intercepted syscall returns; the next interposition charges
   the gap — the variant's own computation between syscalls. *)
let gap_mark tid ts = Hashtbl.replace gap_tbl tid ts

let gap_charge tid ts =
  match Hashtbl.find_opt gap_tbl tid with
  | None -> ()
  | Some last ->
    Hashtbl.remove gap_tbl tid;
    add app_compute (Int64.sub ts last)

(* A retired task never charges again: dropping its rows keeps the side
   tables bounded by live tasks, like the engine's own table. *)
let forget tid =
  Hashtbl.remove suppress_tbl tid;
  Hashtbl.remove stolen_tbl tid;
  Hashtbl.remove gap_tbl tid

let note_backlog d =
  if d > 0L then begin
    backlog_cycles := Int64.add !backlog_cycles d;
    incr backlog_events
  end

let backlog () = (!backlog_cycles, !backlog_events)

let total () = Array.fold_left Int64.add 0L buckets

let rows () =
  List.init n_phases (fun p -> (phase_name p, buckets.(p), hits.(p)))
  |> List.filter (fun (_, c, _) -> c > 0L)
  |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)

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
        ("hits", Varan_util.Tablefmt.Right);
      ]
  in
  let denom =
    if total_cycles > 0L then Int64.to_float total_cycles
    else Int64.to_float (max 1L (total ()))
  in
  List.iter
    (fun (name, c, n) ->
      Varan_util.Tablefmt.add_row tbl
        [
          name;
          Int64.to_string c;
          Printf.sprintf "%.1f%%" (100.0 *. Int64.to_float c /. denom);
          string_of_int n;
        ])
    (rows ());
  Varan_util.Tablefmt.add_rule tbl;
  let attributed = total () in
  Varan_util.Tablefmt.add_row tbl
    [
      "attributed";
      Int64.to_string attributed;
      Printf.sprintf "%.1f%%" (100.0 *. Int64.to_float attributed /. denom);
      "";
    ];
  Varan_util.Tablefmt.add_row tbl
    [ "total task-cycles"; Int64.to_string total_cycles; "100.0%"; "" ];
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
