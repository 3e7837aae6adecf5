(* Tests for the discrete-event engine: virtual time, ordering, condition
   variables, timeouts, kill semantics and deadlock detection. *)

module E = Varan_sim.Engine

let test_consume_advances_time () =
  let eng = E.create () in
  let final = ref 0L in
  ignore
    (E.spawn eng ~name:"a" (fun () ->
         E.consume 100;
         E.consume 50;
         final := E.now_cycles ()));
  E.run eng;
  Alcotest.(check int64) "local time" 150L !final;
  Alcotest.(check int64) "global time" 150L (E.now eng)

let test_zero_consume_is_free () =
  let eng = E.create () in
  ignore (E.spawn eng (fun () -> E.consume 0));
  E.run eng;
  Alcotest.(check int64) "no time passes" 0L (E.now eng)

let test_interleaving_by_time () =
  let eng = E.create () in
  let log = ref [] in
  let emit tag = log := tag :: !log in
  ignore
    (E.spawn eng ~name:"slow" (fun () ->
         E.consume 100;
         emit "slow1";
         E.consume 100;
         emit "slow2"));
  ignore
    (E.spawn eng ~name:"fast" (fun () ->
         E.consume 30;
         emit "fast1";
         E.consume 30;
         emit "fast2"));
  E.run eng;
  Alcotest.(check (list string))
    "events ordered by virtual time"
    [ "fast1"; "fast2"; "slow1"; "slow2" ]
    (List.rev !log)

let test_fifo_tie_break () =
  let eng = E.create () in
  let log = ref [] in
  ignore (E.spawn eng ~name:"first" (fun () -> log := "first" :: !log));
  ignore (E.spawn eng ~name:"second" (fun () -> log := "second" :: !log));
  E.run eng;
  Alcotest.(check (list string))
    "creation order on ties" [ "first"; "second" ] (List.rev !log)

let test_sleep () =
  let eng = E.create () in
  let woke = ref 0L in
  ignore
    (E.spawn eng (fun () ->
         E.consume 10;
         E.sleep 90;
         woke := E.now_cycles ()));
  E.run eng;
  Alcotest.(check int64) "sleep adds to clock" 100L !woke

let test_cond_signal () =
  let eng = E.create () in
  let c = E.Cond.create "c" in
  let wake_time = ref 0L in
  ignore
    (E.spawn eng ~name:"waiter" (fun () ->
         E.Cond.wait c;
         wake_time := E.now_cycles ()));
  ignore
    (E.spawn eng ~name:"signaller" (fun () ->
         E.consume 500;
         E.Cond.signal c));
  E.run eng;
  Alcotest.(check int64) "woken at signaller's time" 500L !wake_time

let test_cond_broadcast () =
  let eng = E.create () in
  let c = E.Cond.create "c" in
  let count = ref 0 in
  for _ = 1 to 5 do
    ignore
      (E.spawn eng (fun () ->
           E.Cond.wait c;
           incr count))
  done;
  ignore
    (E.spawn eng (fun () ->
         E.consume 10;
         E.Cond.broadcast c));
  E.run eng;
  Alcotest.(check int) "all woken" 5 !count

let test_cond_signal_wakes_one () =
  let eng = E.create () in
  let c = E.Cond.create "c" in
  let count = ref 0 in
  for _ = 1 to 3 do
    ignore
      (E.spawn eng (fun () ->
           E.Cond.wait c;
           incr count))
  done;
  ignore
    (E.spawn eng (fun () ->
         E.consume 10;
         E.Cond.signal c));
  E.run_until_quiescent eng;
  Alcotest.(check int) "exactly one woken" 1 !count;
  Alcotest.(check int) "two still waiting" 2 (E.Cond.waiters c)

let test_wait_timeout_expires () =
  let eng = E.create () in
  let c = E.Cond.create "c" in
  let result = ref true in
  let woke = ref 0L in
  ignore
    (E.spawn eng (fun () ->
         result := E.Cond.wait_timeout c 250;
         woke := E.now_cycles ()));
  E.run eng;
  Alcotest.(check bool) "timed out" false !result;
  Alcotest.(check int64) "at deadline" 250L !woke

let test_wait_timeout_signalled () =
  let eng = E.create () in
  let c = E.Cond.create "c" in
  let result = ref false in
  ignore (E.spawn eng (fun () -> result := E.Cond.wait_timeout c 1_000));
  ignore
    (E.spawn eng (fun () ->
         E.consume 100;
         E.Cond.signal c));
  E.run eng;
  Alcotest.(check bool) "signalled before deadline" true !result

let test_deadlock_detection () =
  let eng = E.create () in
  let c = E.Cond.create "never" in
  ignore (E.spawn eng ~name:"stuck" (fun () -> E.Cond.wait c));
  match E.run eng with
  | () -> Alcotest.fail "expected Deadlock"
  | exception E.Deadlock names ->
    Alcotest.(check (list string)) "stuck task reported" [ "stuck" ] names

let test_kill_blocked_task () =
  let eng = E.create () in
  let c = E.Cond.create "never" in
  let cleaned = ref false in
  let victim =
    E.spawn eng ~name:"victim" (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () -> E.Cond.wait c))
  in
  ignore
    (E.spawn eng ~name:"killer" (fun () ->
         E.consume 10;
         E.kill_here victim));
  E.run eng;
  Alcotest.(check bool) "finally ran on kill" true !cleaned;
  Alcotest.(check bool) "victim dead" false (E.is_alive eng victim)

let test_kill_running_task () =
  let eng = E.create () in
  let reached = ref false in
  let vid =
    E.spawn eng ~name:"victim" (fun () ->
        E.consume 10;
        E.consume 10;
        reached := true)
  in
  ignore
    (E.spawn eng ~name:"killer" (fun () ->
         E.consume 5;
         E.kill_here vid));
  E.run eng;
  Alcotest.(check bool) "victim never finished body" false !reached

let test_kill_not_started () =
  let eng = E.create () in
  let ran = ref false in
  let vid = E.spawn eng ~name:"victim" (fun () -> ran := true) in
  E.kill eng vid;
  E.run eng;
  Alcotest.(check bool) "never ran" false !ran

let test_spawn_here_inherits_time () =
  let eng = E.create () in
  let child_time = ref 0L in
  ignore
    (E.spawn eng (fun () ->
         E.consume 1234;
         ignore
           (E.spawn_here ~name:"child" (fun () ->
                child_time := E.now_cycles ()))));
  E.run eng;
  Alcotest.(check int64) "child starts at parent's time" 1234L !child_time

let test_failure_recorded () =
  let eng = E.create () in
  ignore (E.spawn eng ~name:"boom" (fun () -> failwith "boom"));
  E.run eng;
  match E.failures eng with
  | [ (_, Failure msg) ] -> Alcotest.(check string) "message" "boom" msg
  | _ -> Alcotest.fail "expected exactly one failure"

let test_yield_fairness () =
  let eng = E.create () in
  let log = ref [] in
  let task tag =
    E.spawn eng ~name:tag (fun () ->
        for _ = 1 to 2 do
          log := tag :: !log;
          E.yield ()
        done)
  in
  ignore (task "a");
  ignore (task "b");
  E.run eng;
  Alcotest.(check (list string))
    "round-robin at equal time"
    [ "a"; "b"; "a"; "b" ]
    (List.rev !log)

(* --- scheduler edge cases ------------------------------------------- *)

(* Killing a task whose continuation entry sits on the ready ring (it
   yielded at the current vtime) must discard the entry, unwind the
   fiber through its [finally] handlers, and leave the engine able to
   finish cleanly. *)
let test_kill_on_ready_ring () =
  let eng = E.create () in
  let runs = ref 0 in
  let cleaned = ref false in
  let victim = ref None in
  ignore
    (E.spawn eng ~name:"killer" (fun () ->
         E.yield ();
         (* The victim has run once and is parked on the ready ring at
            this same virtual time. *)
         match !victim with
         | Some vid -> E.kill_here vid
         | None -> Alcotest.fail "victim not spawned"));
  victim :=
    Some
      (E.spawn eng ~name:"victim" (fun () ->
           Fun.protect
             ~finally:(fun () -> cleaned := true)
             (fun () ->
               while true do
                 incr runs;
                 E.yield ()
               done)));
  E.run eng;
  Alcotest.(check int) "victim ran exactly once before the kill" 1 !runs;
  Alcotest.(check bool) "finally ran on ring-queued kill" true !cleaned;
  Alcotest.(check bool) "victim dead"
    false
    (E.is_alive eng (Option.get !victim))

(* A ticker that deactivates (returns [false]) while the engine is
   draining several ticker deadlines crossed by one large time jump must
   stop firing permanently, and the cached earliest-deadline must be
   recomputed so other tickers keep firing at their own periods. *)
let test_ticker_deactivates_mid_drain () =
  let eng = E.create () in
  let a_fires = ref [] in
  let b_fires = ref [] in
  E.add_ticker eng ~period:100 (fun () ->
      a_fires := E.now eng :: !a_fires;
      List.length !a_fires < 3);
  E.add_ticker eng ~period:250 (fun () ->
      b_fires := E.now eng :: !b_fires;
      true);
  (* A single sleep jumps virtual time across every deadline at once. *)
  ignore (E.spawn eng (fun () -> E.sleep 1050));
  E.run eng;
  Alcotest.(check (list int64))
    "fast ticker fires thrice then deactivates"
    [ 100L; 200L; 300L ]
    (List.rev !a_fires);
  Alcotest.(check (list int64))
    "slow ticker unaffected by the deactivation"
    [ 250L; 500L; 750L; 1000L ]
    (List.rev !b_fires)

(* Deadline-vs-signal race at the same virtual time. The deadline entry
   is scheduled when the wait starts; the signal wake is scheduled when
   the signaller runs. On an exact vtime tie the (etime, eseq) order
   decides: whichever entry was scheduled first wins, so the outcome
   flips with spawn order — but each interleaving is deterministic. *)
let test_timeout_vs_signal_same_vtime () =
  let outcome ~waiter_first =
    let eng = E.create () in
    let c = E.Cond.create "race" in
    let result = ref None in
    let waiter () =
      ignore
        (E.spawn eng ~name:"waiter" (fun () ->
             result := Some (E.Cond.wait_timeout c 100)))
    in
    let signaller () =
      ignore
        (E.spawn eng ~name:"signaller" (fun () ->
             E.consume 100;
             E.Cond.signal c))
    in
    if waiter_first then (
      waiter ();
      signaller ())
    else (
      signaller ();
      waiter ());
    E.run eng;
    match !result with
    | Some r -> r
    | None -> Alcotest.fail "waiter never resolved"
  in
  Alcotest.(check bool)
    "waiter first: its deadline entry wins the tie (timed out)"
    false
    (outcome ~waiter_first:true);
  Alcotest.(check bool)
    "signaller first: its wake wins the tie (signalled)"
    true
    (outcome ~waiter_first:false)

(* 200-seed equivalence against a naive sorted-list scheduler — the
   shape the engine had before the ready-ring/heap rewrite. Random task
   programs over consume/sleep/yield (with zero-cost ops for heavy tie
   pressure) and timed waits on one shared cond must produce the
   identical completion log and task-switch count under both, proving
   the (etime, eseq) dispatch order survived the overhaul. A wait ends
   by its deadline, by a signal or broadcast before it, or by a kill
   while parked; the last three cancel the deadline, which must then
   neither dispatch nor count as a switch. A timer ([after_here]) is the
   task [spawn_here (fun () -> sleep d; f ())] it stands for: one entry
   now, one at the deadline; it broadcasts the cond when it fires.
   [now_cycles] and [self] return the reference's clock and task index
   (the engine numbers the tasks in spawn order). A doomed task is
   flagged by the scheduler-level [kill] while it runs (as a teardown
   run from inside a task kills the caller with its siblings) and then
   makes a call that would act on the engine or park: it must unwind
   with [Killed] at that call, so no waiter is woken, no timer armed and
   no task spawned. *)
type doomed_call =
  | D_broadcast
  | D_signal
  | D_after
  | D_spawn
  | D_consume
  | D_sleep
  | D_yield
  | D_wait

type ref_op =
  | R_consume of int
  | R_sleep of int
  | R_yield
  | R_wait of int (* [Cond.wait_timeout] on the shared cond *)
  | R_signal
  | R_broadcast
  | R_kill of int (* [kill_here] by task index *)
  | R_arm of int (* [after_here d] a broadcasting timer *)
  | R_now
  | R_self
  | R_doomed of doomed_call

type ref_task = {
  mutable pc : int; (* ops started *)
  mutable gone : bool; (* finished or dead: never runs again *)
  mutable killed : bool; (* dies at its next dispatch *)
  mutable deadline : int option; (* seq of its deadline while parked *)
}

let reference_schedule programs =
  (* Entries are (time, seq, task index, wait result); pop always takes
     the (time, seq)-minimum, mirroring the engine's tie-break, and a
     cancelled deadline is simply dropped from the list. The log records
     each op at the vtime its post-effect resumption runs, with 1 for a
     signalled wait and 0 otherwise, and a timer's firing as (task,
     op, time, 2). A timer armed by op [j] of task [i] has entries with
     index [-1 - (i * 64 + j)]: result 0 for its arm entry and 1 for its
     fire entry. *)
  let seq = ref 0 in
  let entries = ref [] in
  let push time i v =
    let s = !seq in
    incr seq;
    entries := (time, s, i, v) :: !entries;
    s
  in
  let pop_min () =
    match !entries with
    | [] -> None
    | first :: rest ->
      let best =
        List.fold_left
          (fun ((bt, bs, _, _) as b) ((t, s, _, _) as e) ->
            if t < bt || (t = bt && s < bs) then e else b)
          first rest
      in
      entries := List.filter (fun e -> e != best) !entries;
      Some best
  in
  let ops = Array.of_list programs in
  let n = Array.length ops in
  let tasks =
    Array.init n (fun _ ->
        { pc = 0; gone = false; killed = false; deadline = None })
  in
  let waiters = ref [] in (* parked task indices, oldest first *)
  let unpark j =
    (match tasks.(j).deadline with
    | Some s -> entries := List.filter (fun (_, s', _, _) -> s' <> s) !entries
    | None -> ());
    tasks.(j).deadline <- None;
    waiters := List.filter (fun k -> k <> j) !waiters
  in
  let wake time j =
    unpark j;
    ignore (push time j 1)
  in
  let log = ref [] in
  let switches = ref 0 in
  for i = 0 to n - 1 do
    ignore (push 0 i 0)
  done;
  let rec run () =
    match pop_min () with
    | None -> ()
    | Some (time, _, who, phase) when who < 0 ->
      incr switches;
      let i = (-1 - who) / 64 and j = (-1 - who) mod 64 in
      (match ops.(i).(j) with
      | R_arm d when phase = 0 -> ignore (push (time + d) who 1)
      | _ ->
        log := (i, j, time, 2) :: !log;
        List.iter (wake time) !waiters);
      run ()
    | Some (time, _, i, v) ->
      incr switches;
      let tk = tasks.(i) in
      if tk.killed then tk.gone <- true;
      if not tk.gone then begin
        (* Still parked at dispatch: the deadline fired. *)
        if tk.deadline <> None then unpark i;
        if tk.pc > 0 then log := (i, tk.pc - 1, time, v) :: !log;
        (* The task runs until its next real effect point. [consume 0]
           is a documented no-op, and signal, broadcast and kill return
           at once: those ops log within the same dispatch instead of
           rescheduling (sleep and yield always reschedule, even at zero
           cost). *)
        let scheduled = ref false in
        while (not !scheduled) && (not tk.gone) && tk.pc < Array.length ops.(i) do
          let j = tk.pc in
          tk.pc <- j + 1;
          let logged () = log := (i, j, time, 0) :: !log in
          match ops.(i).(j) with
          | R_consume 0 -> logged ()
          | R_consume d | R_sleep d ->
            ignore (push (time + d) i 0);
            scheduled := true
          | R_yield ->
            ignore (push time i 0);
            scheduled := true
          | R_wait d ->
            waiters := !waiters @ [ i ];
            tk.deadline <- Some (push (time + d) i 0);
            scheduled := true
          | R_signal ->
            (match !waiters with w :: _ -> wake time w | [] -> ());
            logged ()
          | R_broadcast ->
            List.iter (wake time) !waiters;
            logged ()
          | R_arm _ ->
            ignore (push time (-1 - ((i * 64) + j)) 0);
            logged ()
          | R_now -> log := (i, j, time, time) :: !log
          | R_self -> log := (i, j, time, i) :: !log
          | R_doomed _ -> tk.gone <- true
          | R_kill k when k = i -> tk.gone <- true
          | R_kill k ->
            let victim = tasks.(k) in
            if not (victim.gone || victim.killed) then
              if victim.deadline <> None then begin
                (* Parked: unwound by a dispatch of its own. *)
                unpark k;
                victim.gone <- true;
                ignore (push time k 0)
              end
              else victim.killed <- true;
            logged ()
        done;
        if tk.pc = Array.length ops.(i) && not !scheduled then tk.gone <- true
      end;
      run ()
  in
  run ();
  (List.rev !log, !switches)

(* The completion log and switch count, plus the engine's capacities
   (see [E.capacities]) just before and just after the run. *)
let engine_run programs =
  let eng = E.create () in
  let c = E.Cond.create "shared" in
  let log = ref [] in
  let ids = Array.make (List.length programs) None in
  List.iteri
    (fun i ops ->
      ids.(i) <-
        Some
          (E.spawn eng ~name:(Printf.sprintf "t%d" i) (fun () ->
               Array.iteri
                 (fun j op ->
                   let v =
                     match op with
                     | R_consume d ->
                       E.consume d;
                       0
                     | R_sleep d ->
                       E.sleep d;
                       0
                     | R_yield ->
                       E.yield ();
                       0
                     | R_wait d -> if E.Cond.wait_timeout c d then 1 else 0
                     | R_signal ->
                       E.Cond.signal c;
                       0
                     | R_broadcast ->
                       E.Cond.broadcast c;
                       0
                     | R_kill k ->
                       E.kill_here (Option.get ids.(k));
                       0
                     | R_arm d ->
                       E.after_here d (fun () ->
                           log :=
                             (i, j, Int64.to_int (E.now_cycles ()), 2) :: !log;
                           E.Cond.broadcast c);
                       0
                     | R_now -> Int64.to_int (E.now_cycles ())
                     | R_self -> (E.self () :> int)
                     | R_doomed call ->
                       E.kill eng (Option.get ids.(i));
                       (* The call must raise [Killed]: if it returned,
                          it, the waiter it woke, the timer it armed or
                          the task it spawned would log. *)
                       (match call with
                       | D_broadcast -> E.Cond.broadcast c
                       | D_signal -> E.Cond.signal c
                       | D_after ->
                         E.after_here 0 (fun () ->
                             log := (i, j, -1, 3) :: !log)
                       | D_spawn ->
                         ignore
                           (E.spawn_here (fun () ->
                                log := (i, j, -1, 3) :: !log))
                       | D_consume -> E.consume 1
                       | D_sleep -> E.sleep 3
                       | D_yield -> E.yield ()
                       | D_wait -> ignore (E.Cond.wait_timeout c 5));
                       3
                   in
                   log := (i, j, Int64.to_int (E.now_cycles ()), v) :: !log)
                 ops)))
    programs;
  let caps_before = E.capacities eng in
  E.run eng;
  (List.rev !log, E.task_switches eng, caps_before, E.capacities eng)

let gen_program rng n_tasks =
  let n_ops = 4 + Random.State.int rng 12 in
  Array.init n_ops (fun _ ->
      match Random.State.int rng 24 with
      | 0 | 1 | 2 | 3 | 4 | 5 -> R_consume (Random.State.int rng 31)
      | 6 | 7 | 8 -> R_consume 0 (* force vtime ties *)
      | 9 | 10 | 11 -> R_sleep (Random.State.int rng 51)
      | 12 | 13 -> R_yield
      | 14 | 15 | 16 ->
        R_wait
          (match Random.State.int rng 4 with
          | 0 -> 0 (* the deadline lands on the ready ring *)
          | 1 -> Random.State.int rng 20
          | _ -> 20 + Random.State.int rng 200)
      | 17 -> R_signal
      | 18 -> R_broadcast
      | 19 -> R_kill (Random.State.int rng n_tasks)
      | 20 -> R_now
      | 21 -> R_self
      | 22 when Random.State.int rng 3 = 0 ->
        R_doomed
          (match Random.State.int rng 8 with
          | 0 -> D_broadcast
          | 1 -> D_signal
          | 2 -> D_after
          | 3 -> D_spawn
          | 4 -> D_consume
          | 5 -> D_sleep
          | 6 -> D_yield
          | _ -> D_wait)
      | _ -> R_consume (Random.State.int rng 31))

(* Run [programs] on the engine and on the reference scheduler, fail on
   any difference in the completion log or the switch count, and return
   the engine's capacities before and after the run. *)
let check_schedule seed programs =
  let expected, expected_sw = reference_schedule programs in
  let actual, actual_sw, before, after = engine_run programs in
  if expected <> actual then
    Alcotest.failf
      "seed %d (%d tasks): engine dispatch order diverged from the \
       reference scheduler (%d vs %d events)"
      seed (List.length programs) (List.length actual) (List.length expected);
  if expected_sw <> actual_sw then
    Alcotest.failf "seed %d: %d task switches, the reference made %d" seed
      actual_sw expected_sw;
  (before, after)

let test_schedule_equivalence () =
  for seed = 0 to 199 do
    let rng = Random.State.make [| 0x5EED; seed |] in
    (* Up to 13 tasks: enough parked deadlines that cancelling one can
       need the heap's sift-up as well as its sift-down. *)
    let n_tasks = 2 + Random.State.int rng 12 in
    let programs = List.init n_tasks (fun _ -> gen_program rng n_tasks) in
    ignore (check_schedule seed programs)
  done

let pp_caps (c : E.capacities) =
  Printf.sprintf "nodes %d + %d, links %d, registry %d, free %d" c.nodes
    c.deadline_nodes c.links c.registry c.free

(* The same equivalence with 400-600 tasks. The 200-seed sweep never
   holds more than 13 entries, so it never leaves the initial 256-entry
   capacity of the queue's nodes and links, the slot registry or the
   free-slot stack. Here the registry grows while the tasks are spawned
   (256 live bootstrap entries to carry over). The plain heap's nodes
   and the links, allocated at the queue's first push, grow once most
   tasks have parked a future wakeup at a time of their own, and the
   free stack grows as tasks finish and give back their slots. The last
   three happen while the run is under way. (The deadline heap's nodes
   grow in [test_deadline_heap_grows].) *)
let test_wide_schedule_equivalence () =
  for seed = 0 to 5 do
    let rng = Random.State.make [| 0x3A7E; seed |] in
    let n_tasks = 400 + Random.State.int rng 201 in
    let programs = List.init n_tasks (fun _ -> gen_program rng n_tasks) in
    let before, after = check_schedule seed programs in
    if before.nodes <> 0 || before.links <> 0 || before.free <> 256
       || before.registry < 512
    then Alcotest.failf "seed %d: %s before the run" seed (pp_caps before);
    if after.nodes <= 256 || after.links <= 256 || after.free <= 256 then
      Alcotest.failf
        "seed %d: %s after the run: the queue or the free stack never grew"
        seed (pp_caps after)
  done

(* Herds: groups of tasks that run one template, so they consume the
   same amounts and re-arm the same [wait_timeout]s at the same times,
   and each group's pushes form runs in the engine's queue. Drivers
   broadcast, signal and kill group members -- the first, a middle one
   or the last -- so a kill cancels the head, the middle or the tail of
   a run of deadlines, a signal cancels a head and a broadcast a whole
   run. Templates and drivers arm timers at a group's wait time, so a
   timer's arm entry, re-keyed when it dispatches, can land on the run
   the group's deadlines have just opened. [loners] tasks with random
   programs of their own run beside the groups. *)
let gen_herd rng ~groups ~size ~loners =
  let sizes = Array.init groups (fun _ -> size ()) in
  let bases = Array.make groups 0 in
  for g = 1 to groups - 1 do
    bases.(g) <- bases.(g - 1) + sizes.(g - 1)
  done;
  let members = Array.fold_left ( + ) 0 sizes in
  let drivers = 1 + Random.State.int rng 3 in
  let n_tasks = members + drivers + loners in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let waits = Array.init groups (fun _ -> pick [| 0; 5; 40; 300; 6_000 |]) in
  let template g =
    let w = waits.(g) and c = pick [| 0; 7; 30 |] in
    Array.init
      (3 + Random.State.int rng 6)
      (fun _ ->
        match Random.State.int rng 10 with
        | 0 | 1 | 2 -> R_consume c
        | 3 | 4 | 5 | 6 -> R_wait w
        | 7 -> R_arm w
        | 8 -> R_sleep c
        | _ -> R_yield)
  in
  let driver () =
    Array.init
      (4 + Random.State.int rng 9)
      (fun _ ->
        let g = Random.State.int rng groups in
        match Random.State.int rng 12 with
        | 0 | 1 | 2 -> R_consume (Random.State.int rng 50)
        | 3 -> R_sleep (pick [| 0; 5; 40 |])
        | 4 | 5 -> R_broadcast
        | 6 -> R_signal
        | 7 | 8 | 9 ->
          let k = pick [| 0; sizes.(g) / 2; sizes.(g) - 1 |] in
          R_kill (bases.(g) + k)
        | 10 -> R_arm waits.(g)
        | _ -> R_wait (pick [| 5; 40 |]))
  in
  List.concat
    (List.init groups (fun g -> List.init sizes.(g) (Fun.const (template g))))
  @ List.init drivers (fun _ -> driver ())
  @ List.init loners (fun _ -> gen_program rng n_tasks)

let test_herd_schedule_equivalence () =
  for seed = 0 to 199 do
    let rng = Random.State.make [| 0x4E2D; seed |] in
    let programs =
      gen_herd rng
        ~groups:(1 + Random.State.int rng 3)
        ~size:(fun () -> 2 + Random.State.int rng 15)
        ~loners:(Random.State.int rng 4)
    in
    ignore (check_schedule seed programs)
  done

(* The herds with 400-600 tasks, which take the queue's links and the
   free stack past 256 entries mid-run. *)
let test_wide_herd_schedule_equivalence () =
  for seed = 0 to 5 do
    let rng = Random.State.make [| 0x4E2E; seed |] in
    let programs =
      gen_herd rng ~groups:4
        ~size:(fun () -> 70 + Random.State.int rng 41)
        ~loners:(120 + Random.State.int rng 41)
    in
    let before, after = check_schedule seed programs in
    if before.nodes <> 0 || before.links <> 0 || before.free <> 256
       || before.registry < 512
    then Alcotest.failf "seed %d: %s before the run" seed (pp_caps before);
    (* Links past 256 slots while neither heap outgrew 256 nodes: the
       herds' wakeups and deadlines shared nodes, run by run. *)
    if after.links <= 256 || after.free <= 256 || after.nodes > 256
       || after.deadline_nodes > 256
    then
      Alcotest.failf "seed %d: %s after the run" seed (pp_caps after)
  done

(* --- the queue of future wakeups, against a model ----------------------- *)

(* 1000 removable entries at distinct times: the deadline heap grows
   twice with heads queued, and every other entry then leaves by
   [remove], which needs the positions its sifts recorded. *)
let test_deadline_heap_grows () =
  let module Q = E.Runq in
  let q = Q.create () in
  let time s = (s * 7919) mod 1009 in
  for s = 0 to 999 do
    Q.push q s ~time:(time s) ~seq:s ~removable:true
  done;
  for s = 0 to 999 do
    if s land 1 = 1 then
      Alcotest.(check bool) (Printf.sprintf "remove %d" s) true (Q.remove q s)
  done;
  let expected =
    List.sort compare
      (List.filter_map
         (fun s -> if s land 1 = 0 then Some (time s, s) else None)
         (List.init 1000 Fun.id))
  in
  let popped = List.map (fun _ -> let s = Q.pop q in (time s, s)) expected in
  Alcotest.(check (list (pair int int))) "pop order" expected popped;
  Alcotest.(check bool) "empty" true (Q.is_empty q)

type qop =
  | Q_push of int * int * int
      (* time (-1: the last push's), burst length, removable bits *)
  | Q_pop
  | Q_remove of int (* slot *)
  | Q_remove_recent of int (* the slot pushed this many pushes ago *)

let qslots = 640

let gen_qops =
  let open QCheck.Gen in
  let push =
    map3
      (fun t n bits -> Q_push (t, n, bits))
      (frequency
         [ (3, int_bound 40); (1, int_bound 100_000); (1, return (-1)) ])
      (frequency [ (3, return 1); (2, int_range 2 8); (1, int_range 20 80) ])
      (int_bound 0x3FFF_FFFF)
  in
  list_size (int_range 1 300)
    (frequency
       [
         (3, push);
         (3, return Q_pop);
         (1, map (fun s -> Q_remove s) (int_bound (qslots - 1)));
         (2, map (fun k -> Q_remove_recent k) (int_bound 3));
       ])

let pp_qop = function
  | Q_push (t, n, bits) -> Printf.sprintf "push(%d x%d %x)" t n bits
  | Q_pop -> "pop"
  | Q_remove s -> Printf.sprintf "remove(%d)" s
  | Q_remove_recent k -> Printf.sprintf "remove-recent(%d)" k

(* Random pushes, in bursts of one time, pops and removals against a
   list of (time, seq, slot, removable): every pop must return the
   model's (time, seq)-least entry, [top_time] and [top_seq] must name
   it, and [remove] must succeed exactly on queued removable slots.
   Slots are reused and reach past 512, so the per-slot arrays grow with
   entries queued. *)
let runq_matches_model ops =
  let module Q = E.Runq in
  let q = Q.create () in
  let model = ref [] and seq = ref 0 and cursor = ref 0 in
  let last_time = ref 0 and recent = ref [] in
  let queued = Array.make qslots false in
  let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_report m) fmt in
  let least () =
    List.fold_left
      (fun ((bt, bs, _, _) as b) ((t, s, _, _) as e) ->
        if t < bt || (t = bt && s < bs) then e else b)
      (List.hd !model) !model
  in
  let free_slot () =
    let rec find k =
      if k = qslots then None
      else
        let s = (!cursor + k) mod qslots in
        if queued.(s) then find (k + 1) else Some s
    in
    cursor := (!cursor + 97) mod qslots;
    find 0
  in
  let forget s = model := List.filter (fun (_, _, s', _) -> s' <> s) !model in
  let rec step = function
    | Q_push (t, n, bits) ->
      let t = if t < 0 then !last_time else t in
      last_time := t;
      for b = 0 to n - 1 do
        match free_slot () with
        | None -> ()
        | Some s ->
          let removable = (bits lsr (b mod 30)) land 1 = 1 in
          Q.push q s ~time:t ~seq:!seq ~removable;
          model := (t, !seq, s, removable) :: !model;
          recent := s :: !recent;
          queued.(s) <- true;
          incr seq
      done
    | Q_pop when !model = [] ->
      if not (Q.is_empty q) then fail "empty model, queue not"
    | Q_pop ->
      let t, sq, s, _ = least () in
      if Q.top_time q <> t || Q.top_seq q <> sq then
        fail "top (%d, %d), model (%d, %d)" (Q.top_time q) (Q.top_seq q) t sq;
      let got = Q.pop q in
      if got <> s then fail "popped slot %d, model %d" got s;
      forget s;
      queued.(s) <- false
    | Q_remove s ->
      let expect =
        List.exists (fun (_, _, s', r) -> s' = s && r) !model
      in
      if Q.remove q s <> expect then
        fail "remove %d: %b, model %b" s (not expect) expect;
      if expect then begin
        forget s;
        queued.(s) <- false
      end
    | Q_remove_recent k -> (
      match List.nth_opt !recent k with
      | Some s -> step (Q_remove s)
      | None -> ())
  in
  List.iter
    (fun op ->
      step op;
      if Q.is_empty q <> (!model = []) || Q.length q > List.length !model then
        fail "after %s: %d nodes for %d entries" (pp_qop op) (Q.length q)
          (List.length !model))
    ops;
  while !model <> [] do
    step Q_pop
  done;
  Q.is_empty q

let prop_runq_model =
  QCheck.Test.make ~name:"run queue == sorted list" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map pp_qop ops))
       gen_qops)
    runq_matches_model

let test_many_tasks_scale () =
  let eng = E.create () in
  let total = ref 0 in
  for i = 1 to 1000 do
    ignore
      (E.spawn eng (fun () ->
           E.consume i;
           incr total))
  done;
  E.run eng;
  Alcotest.(check int) "all tasks ran" 1000 !total;
  Alcotest.(check int64) "time is max consume" 1000L (E.now eng)

(* --- task retirement --------------------------------------------------- *)

(* A parent spawns [n] short-lived children, child [i] living
   [(i mod 7) + 3] cycles. Finished tasks leave the engine's table, so the
   live heap after the run must not grow with [n]; their lifetimes must
   still sum exactly into [total_task_cycles]. *)
let churn n =
  let eng = E.create () in
  ignore
    (E.spawn eng ~name:"parent" (fun () ->
         for i = 1 to n do
           ignore
             (E.spawn_here (fun () ->
                  E.sleep (i mod 7);
                  E.consume 3));
           E.consume 1
         done));
  E.run eng;
  eng

let live_words_with eng =
  Gc.compact ();
  let w = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity eng);
  w

let test_retired_tasks_free_memory () =
  let small = churn 1_000 in
  let base = live_words_with small in
  let big = churn 100_000 in
  let grown = live_words_with big - base in
  (* One retained task record is ~10 words plus its name and table slot:
     keeping 99k more of them would add well over a million words. *)
  if grown > 50_000 then
    Alcotest.failf "live heap grew by %d words over 99k extra finished tasks"
      grown;
  let expected n =
    let sum = ref n in
    for i = 1 to n do
      sum := !sum + (i mod 7) + 3
    done;
    Int64.of_int !sum
  in
  Alcotest.(check int64) "lifetimes survive retirement" (expected 100_000)
    (E.total_task_cycles big);
  Alcotest.(check int64) "small run too" (expected 1_000)
    (E.total_task_cycles small)

let test_retired_task_queries () =
  let eng = E.create () in
  let id = E.spawn eng ~name:"short" (fun () -> E.consume 40) in
  Alcotest.(check bool) "alive before the run" true (E.is_alive eng id);
  Alcotest.(check string) "named while live" "short" (E.task_name eng id);
  E.run eng;
  Alcotest.(check bool) "finished task is not alive" false (E.is_alive eng id);
  E.kill eng id;
  Alcotest.(check bool) "kill on a retired id is a no-op" false
    (E.is_alive eng id);
  Alcotest.(check string) "retired id has no name" "?" (E.task_name eng id);
  Alcotest.(check int64) "its lifetime still counts" 40L
    (E.total_task_cycles eng);
  E.run eng

(* --- cycle attribution --------------------------------------------------- *)

(* Four tasks exercise every rule of the per-task phase. [nest] nests
   phases across consume, a blocking cond wait and a sleep: each inner
   enter charges the outer phase up to it, and its leave reopens the
   outer one. [pinned] runs a pinned phase whose inner enters fold into
   it. [victim] is killed parked in an inner phase it entered after
   charging 25 cycles to the outer one, and [spinner] is killed while its
   only phase is open: a retired task's open interval is never charged. *)
let test_phase_attribution () =
  let module P = Varan_obs.Profile in
  P.reset ();
  P.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      P.enabled := false;
      P.reset ())
    (fun () ->
      Alcotest.(check int) "no phase outside a task" (-1)
        (E.enter_phase P.app_compute);
      E.leave_phase P.app_compute;
      let eng = E.create () in
      let woken = E.Cond.create "woken" and never = E.Cond.create "never" in
      ignore
        (E.spawn eng ~name:"nest" (fun () ->
             E.consume 10;
             let p1 = E.enter_phase P.app_compute in
             E.consume 100;
             let p2 = E.enter_phase P.syscall_exec in
             E.consume 20;
             let p3 = E.enter_phase P.kernel_wait in
             E.Cond.wait woken;
             E.leave_phase p3;
             E.consume 30;
             E.leave_phase p2;
             E.consume 5;
             E.leave_phase p1;
             E.consume 7;
             let p4 = E.enter_phase P.client_idle in
             E.sleep 50;
             E.leave_phase p4));
      ignore
        (E.spawn eng ~name:"pinned" (fun () ->
             let outer = E.enter_phase (P.pinned P.client_wait) in
             E.consume 40;
             let k = E.enter_phase P.kernel_wait in
             E.sleep 60;
             let r = E.enter_phase P.ring_wait in
             E.consume 10;
             E.leave_phase r;
             E.leave_phase k;
             E.consume 15;
             E.leave_phase outer;
             E.consume 3));
      let victim =
        E.spawn eng ~name:"victim" (fun () ->
            let outer = E.enter_phase P.ring_gate in
            E.consume 25;
            let inner = E.enter_phase P.ring_wait in
            E.Cond.wait never;
            E.leave_phase inner;
            E.leave_phase outer)
      in
      let spinner =
        E.spawn eng ~name:"spinner" (fun () ->
            ignore (E.enter_phase P.bridge_wire);
            while true do
              E.consume 100
            done)
      in
      ignore
        (E.spawn eng ~name:"killer" (fun () ->
             E.sleep 400;
             E.Cond.signal woken;
             E.kill_here victim;
             E.kill_here spinner));
      E.run eng;
      let expected =
        [
          ("ring-wait", 0L);
          ("ring-gate", 25L);
          ("syscall-exec", 50L);
          ("oracle-digest", 0L);
          ("rewrite", 0L);
          ("bridge-wire", 0L);
          ("sched-dispatch", 0L);
          ("kernel-wait", 270L);
          ("app-compute", 105L);
          ("client-idle", 50L);
          ("client-wait", 125L);
        ]
      in
      Alcotest.(check (list (pair string int64)))
        "per-phase buckets" expected
        (List.init P.n_phases (fun p -> (P.phase_name p, P.cycles p)));
      Alcotest.(check int64) "attributed" 625L (P.total ());
      let total = E.total_task_cycles eng in
      if P.total () > total then
        Alcotest.failf "attributed %Ld exceeds total task-cycles %Ld"
          (P.total ()) total)

(* A phase switch stores two ints in the task and, profiling on, adds
   one int to a bucket: 10k enter/leave pairs inside a task allocate
   nothing, with profiling off and on. *)
let test_phase_switch_allocates_nothing () =
  let module P = Varan_obs.Profile in
  let words = ref [] in
  let eng = E.create () in
  ignore
    (E.spawn eng (fun () ->
         List.iter
           (fun on ->
             P.enabled := on;
             let w0 = Gc.minor_words () in
             for _ = 1 to 10_000 do
               let prev = E.enter_phase P.kernel_wait in
               E.consume 1;
               E.leave_phase prev
             done;
             words := (Gc.minor_words () -. w0) :: !words)
           [ false; true ]));
  Fun.protect
    ~finally:(fun () ->
      P.enabled := false;
      P.reset ())
    (fun () -> E.run eng);
  List.iter
    (fun w ->
      if w > 100. then Alcotest.failf "10k phase switches allocated %.0f words" w)
    !words

(* --- cancelled deadlines ------------------------------------------------ *)

(* [n] timed waits with a 10^12-cycle deadline, each signalled one cycle
   after it parks. A signalled wait's deadline must leave the scheduler
   with the wake, so the live heap at the last signal may not grow with
   [n]: deadlines left to expire would hold ~10 words each. *)
let signalled_waits n =
  let eng = E.create () in
  let c = E.Cond.create "herd" in
  let signalled = ref 0 in
  let words = ref 0 in
  ignore
    (E.spawn eng ~name:"waiter" (fun () ->
         for _ = 1 to n do
           if E.Cond.wait_timeout c 1_000_000_000_000 then incr signalled
         done));
  ignore
    (E.spawn eng ~name:"signaller" (fun () ->
         for _ = 1 to n do
           E.consume 1;
           E.Cond.signal c
         done;
         words := live_words_with eng));
  E.run eng;
  Alcotest.(check int) "every wait signalled" n !signalled;
  Alcotest.(check int64) "no deadline ever fired" (Int64.of_int n) (E.now eng);
  !words

let test_signalled_deadlines_free_memory () =
  let base = signalled_waits 1_000 in
  let grown = signalled_waits 100_000 - base in
  if grown > 50_000 then
    Alcotest.failf
      "live heap grew by %d words over 99k extra early-signalled waits" grown

(* A timer whose callback captures a 1 MB buffer: once it has fired, the
   buffer must be garbage while the engine, and the slot that held the
   timer's entry, live on. Recycling an entry drops its callback (it
   keeps only a stale task pointer, see [Engine.entry]). *)
let[@inline never] arm_big_timer fired =
  let buf = Bytes.make (1 lsl 20) 'x' in
  E.after_here 10 (fun () -> fired := Bytes.length buf > 0)

let test_fired_timer_frees_closure () =
  let eng = E.create () in
  let fired = ref false in
  let before = ref 0 and after = ref 0 in
  ignore
    (E.spawn eng ~name:"armer" (fun () ->
         before := live_words_with eng;
         arm_big_timer fired;
         E.consume 100;
         after := live_words_with eng));
  E.run eng;
  Alcotest.(check bool) "the timer fired" true !fired;
  let grown = !after - !before in
  if grown > 10_000 then
    Alcotest.failf "live heap grew by %d words: the fired timer's closure lives"
      grown

(* --- timers vs one-shot sleeper tasks ---------------------------------- *)

(* A timer must be indistinguishable from the task it replaces: a random
   program arms actions either through [spawn_here (fun () -> sleep d;
   act ())] or through [after_here d act], and both must give the same
   (vtime, label) trace, the same task-switch count and the same final
   clock. Actions log, broadcast a cond that agents wait on, arm child
   actions (timers arming timers) and re-arm themselves like a task
   that sleeps again ([again]). A ticker logs its deadlines, which
   random delays cross between arm and fire. *)
type action = { label : int; rearm : int list; children : (int * action) list }

type op =
  | Op_consume of int
  | Op_sleep of int
  | Op_yield
  | Op_wait of int
  | Op_arm of int * action

let gen_delay rng =
  match Random.State.int rng 4 with
  | 0 -> 0
  | 1 -> 5 * Random.State.int rng 4 (* equal deadlines *)
  | _ -> Random.State.int rng 40

let rec gen_action rng depth =
  {
    label = Random.State.int rng 1000;
    rearm = List.init (Random.State.int rng 3) (fun _ -> gen_delay rng);
    children =
      (if depth >= 2 then []
       else
         List.init (Random.State.int rng 3) (fun _ ->
             (gen_delay rng, gen_action rng (depth + 1))));
  }

let gen_agent rng =
  Array.init
    (3 + Random.State.int rng 8)
    (fun _ ->
      match Random.State.int rng 6 with
      | 0 -> Op_consume (Random.State.int rng 20)
      | 1 -> Op_sleep (gen_delay rng)
      | 2 -> Op_yield
      | 3 -> Op_wait (1 + Random.State.int rng 60)
      | _ -> Op_arm (gen_delay rng, gen_action rng 0))

let run_armed ~timers agents =
  let eng = E.create () in
  let c = E.Cond.create "poke" in
  let log = ref [] in
  let note label = log := (E.now_cycles (), label) :: !log in
  E.add_ticker eng ~period:37 (fun () ->
      log := (E.now eng, "tick") :: !log;
      true);
  let fire act =
    note (Printf.sprintf "a%d" act.label);
    E.Cond.broadcast c
  in
  let rec arm_task d act =
    ignore
      (E.spawn_here (fun () ->
           E.sleep d;
           let rec loop rearm =
             fire act;
             List.iter (fun (d, a) -> arm_task d a) act.children;
             match rearm with
             | [] -> ()
             | d :: rest ->
               E.sleep d;
               loop rest
           in
           loop act.rearm))
  in
  let rec arm_timer d act =
    let rearm = ref act.rearm in
    E.after_here d (fun () ->
        fire act;
        List.iter (fun (d, a) -> arm_timer d a) act.children;
        match !rearm with
        | [] -> ()
        | d :: rest ->
          rearm := rest;
          E.again d)
  in
  let arm = if timers then arm_timer else arm_task in
  List.iteri
    (fun i ops ->
      ignore
        (E.spawn eng (fun () ->
             Array.iteri
               (fun j op ->
                 (match op with
                 | Op_consume d -> E.consume d
                 | Op_sleep d -> E.sleep d
                 | Op_yield -> E.yield ()
                 | Op_wait d -> ignore (E.Cond.wait_timeout c d)
                 | Op_arm (d, act) -> arm d act);
                 note (Printf.sprintf "t%d.%d" i j))
               ops)))
    agents;
  E.run eng;
  (List.rev !log, E.task_switches eng, E.now eng)

let test_timers_match_sleeper_tasks () =
  for seed = 0 to 199 do
    let rng = Random.State.make [| 0x71AE; seed |] in
    let agents = List.init (1 + Random.State.int rng 4) (fun _ -> gen_agent rng) in
    let log_t, sw_t, end_t = run_armed ~timers:false agents in
    let log_e, sw_e, end_e = run_armed ~timers:true agents in
    if log_t <> log_e then
      Alcotest.failf "seed %d: timer trace diverged from sleeper tasks" seed;
    if sw_t <> sw_e then
      Alcotest.failf "seed %d: %d task switches with tasks, %d with timers"
        seed sw_t sw_e;
    if end_t <> end_e then Alcotest.failf "seed %d: final clocks differ" seed
  done

(* --- the task-context contract ------------------------------------------- *)

(* [f ()] must raise [Effect.Unhandled]. *)
let check_unhandled what f =
  match f () with
  | _ -> Alcotest.failf "%s returned: no task runs here" what
  | exception Effect.Unhandled _ -> ()

(* No task runs: the slot is clear and every call raises. *)
let check_outside_any_task when_ =
  let c = E.Cond.create "nobody" in
  check_unhandled (when_ ^ ": now_cycles") E.now_cycles;
  check_unhandled (when_ ^ ": self") (fun () -> ignore (E.self ()));
  check_unhandled (when_ ^ ": consume") (fun () -> E.consume 1);
  check_unhandled (when_ ^ ": Cond.broadcast") (fun () -> E.Cond.broadcast c)

let test_calls_outside_any_task () = check_outside_any_task "before any run"

(* A timer callback answers [now_cycles] with its firing time, but runs
   in no task: the calls that need one still raise. So does a ticker's,
   which may make no engine call at all. *)
let test_calls_inside_callbacks () =
  let eng = E.create () in
  let seen = ref [] in
  let note what = seen := what :: !seen in
  E.add_ticker eng ~period:1_000 (fun () ->
      check_unhandled "ticker: now_cycles" E.now_cycles;
      check_unhandled "ticker: self" (fun () -> ignore (E.self ()));
      check_unhandled "ticker: consume" (fun () -> E.consume 1);
      note "tick";
      false);
  ignore
    (E.spawn eng ~name:"armer" (fun () ->
         E.consume 100;
         E.after_here 50 (fun () ->
             Alcotest.(check int64) "timer: now_cycles" 150L (E.now_cycles ());
             check_unhandled "timer: consume" (fun () -> E.consume 1);
             check_unhandled "timer: self" (fun () -> ignore (E.self ()));
             check_unhandled "timer: spawn_here" (fun () ->
                 ignore (E.spawn_here ignore));
             note "timer");
         E.sleep 200;
         (* Parked across the ticker's deadline: the ticker fires right
            after this task's slice, with no timer in between. *)
         E.sleep 2_000;
         Alcotest.(check int64) "the task's clock" 2_300L (E.now_cycles ())));
  E.run eng;
  Alcotest.(check (list string)) "both callbacks ran" [ "timer"; "tick" ]
    (List.rev !seen)

(* The slot is clear once [run] returns, whether the run ended or the
   budget stopped it mid-task. *)
let test_slot_clear_after_run () =
  let eng = E.create () in
  ignore (E.spawn eng (fun () -> E.consume 10));
  E.run eng;
  check_outside_any_task "after a run";
  let eng = E.create () in
  ignore
    (E.spawn eng (fun () ->
         while true do
           E.consume 1_000
         done));
  (match E.run ~cycle_budget:10_000L eng with
  | () -> Alcotest.fail "the budget never tripped"
  | exception E.Budget_exceeded _ -> ());
  check_outside_any_task "after Budget_exceeded"

(* A task that runs a second engine to completion gets its own slot
   back: its clock, its id and its inline consumes are its own again. *)
let test_nested_run_restores_slot () =
  let outer = E.create () in
  let ids = ref [] in
  let me =
    E.spawn outer ~name:"outer" (fun () ->
        E.consume 7;
        let inner = E.create () in
        ignore (E.spawn inner (fun () -> E.consume 1_000));
        ignore (E.spawn inner (fun () -> E.consume 2_000));
        E.run inner;
        ids := (E.self () :> int) :: !ids;
        Alcotest.(check int64) "outer clock" 7L (E.now_cycles ());
        E.consume 3;
        Alcotest.(check int64) "outer clock after" 10L (E.now_cycles ()))
  in
  E.run outer;
  Alcotest.(check (list int)) "outer id" [ (me :> int) ] !ids;
  Alcotest.(check int64) "outer engine time" 10L (E.now outer)

let test_again_outside_timer () =
  Alcotest.check_raises "again needs a timer callback"
    (Invalid_argument "Engine.again: outside a timer callback") (fun () ->
      E.again 5)

(* The Chrome export names each scope's track group in pid order,
   whatever order the scope table holds them in. *)
let test_trace_process_names_in_pid_order () =
  let module Trace = Varan_obs.Trace in
  Trace.reset ();
  Trace.configure ~capacity:16 ();
  for i = 1 to 24 do
    ignore (Trace.pid_of_scope (Printf.sprintf "scope-%d" (i * 7919 mod 97)))
  done;
  let path = Filename.temp_file "varan-trace" ".json" in
  Trace.write_chrome_json path;
  Trace.reset ();
  let ic = open_in path in
  let prefix = "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" in
  let rec pids acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | l when String.starts_with ~prefix l ->
      let rest = String.length l - String.length prefix in
      let pid = String.sub l (String.length prefix) rest in
      pids (Scanf.sscanf pid "%d" Fun.id :: acc)
    | _ -> pids acc
  in
  let got = pids [] in
  close_in ic;
  Sys.remove path;
  Alcotest.(check (list int))
    "engine, then scopes by pid" (List.init 25 Fun.id) got

let () =
  Alcotest.run "varan_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "consume advances time" `Quick
            test_consume_advances_time;
          Alcotest.test_case "zero consume free" `Quick
            test_zero_consume_is_free;
          Alcotest.test_case "interleaving by time" `Quick
            test_interleaving_by_time;
          Alcotest.test_case "fifo tie break" `Quick test_fifo_tie_break;
          Alcotest.test_case "sleep" `Quick test_sleep;
          Alcotest.test_case "many tasks" `Quick test_many_tasks_scale;
          Alcotest.test_case "spawn_here inherits time" `Quick
            test_spawn_here_inherits_time;
          Alcotest.test_case "failure recorded" `Quick test_failure_recorded;
          Alcotest.test_case "yield fairness" `Quick test_yield_fairness;
        ] );
      ( "cond",
        [
          Alcotest.test_case "signal wakes at signaller time" `Quick
            test_cond_signal;
          Alcotest.test_case "broadcast wakes all" `Quick test_cond_broadcast;
          Alcotest.test_case "signal wakes one" `Quick
            test_cond_signal_wakes_one;
          Alcotest.test_case "wait_timeout expires" `Quick
            test_wait_timeout_expires;
          Alcotest.test_case "wait_timeout signalled" `Quick
            test_wait_timeout_signalled;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "deadlock detection" `Quick
            test_deadlock_detection;
          Alcotest.test_case "kill blocked task" `Quick test_kill_blocked_task;
          Alcotest.test_case "kill running task" `Quick test_kill_running_task;
          Alcotest.test_case "kill before start" `Quick test_kill_not_started;
        ] );
      ( "edge",
        [
          Alcotest.test_case "kill while queued on ready ring" `Quick
            test_kill_on_ready_ring;
          Alcotest.test_case "ticker deactivation mid-drain" `Quick
            test_ticker_deactivates_mid_drain;
          Alcotest.test_case "timeout vs signal at same vtime" `Quick
            test_timeout_vs_signal_same_vtime;
          Alcotest.test_case "200-seed equivalence vs list scheduler" `Quick
            test_schedule_equivalence;
          Alcotest.test_case "400-600 task equivalence vs list scheduler"
            `Quick test_wide_schedule_equivalence;
          Alcotest.test_case "200-seed herd equivalence vs list scheduler"
            `Quick test_herd_schedule_equivalence;
          Alcotest.test_case "400-600 task herd equivalence vs list scheduler"
            `Quick test_wide_herd_schedule_equivalence;
        ] );
      ( "queue",
        [
          Alcotest.test_case "the deadline heap grows" `Quick
            test_deadline_heap_grows;
          QCheck_alcotest.to_alcotest prop_runq_model;
        ] );
      ( "retire",
        [
          Alcotest.test_case "100k finished tasks free their memory" `Quick
            test_retired_tasks_free_memory;
          Alcotest.test_case "queries on a retired id" `Quick
            test_retired_task_queries;
        ] );
      ( "profile",
        [
          Alcotest.test_case "nested, pinned and killed phases" `Quick
            test_phase_attribution;
          Alcotest.test_case "phase switches allocate nothing" `Quick
            test_phase_switch_allocates_nothing;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "100k signalled deadlines free their memory"
            `Quick test_signalled_deadlines_free_memory;
          Alcotest.test_case "a fired timer frees its closure" `Quick
            test_fired_timer_frees_closure;
        ] );
      ( "timer",
        [
          Alcotest.test_case "200-seed timers == sleeper tasks" `Quick
            test_timers_match_sleeper_tasks;
          Alcotest.test_case "again outside a callback" `Quick
            test_again_outside_timer;
        ] );
      ( "trace",
        [
          Alcotest.test_case "process names in pid order" `Quick
            test_trace_process_names_in_pid_order;
        ] );
      ( "contract",
        [
          Alcotest.test_case "calls outside any task raise" `Quick
            test_calls_outside_any_task;
          Alcotest.test_case "calls inside timer and ticker callbacks" `Quick
            test_calls_inside_callbacks;
          Alcotest.test_case "slot clear after run and budget stop" `Quick
            test_slot_clear_after_run;
          Alcotest.test_case "nested run restores the slot" `Quick
            test_nested_run_restores_slot;
        ] );
    ]
