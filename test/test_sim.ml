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
   neither dispatch nor count as a switch. *)
type ref_op =
  | R_consume of int
  | R_sleep of int
  | R_yield
  | R_wait of int (* [Cond.wait_timeout] on the shared cond *)
  | R_signal
  | R_broadcast
  | R_kill of int (* [kill_here] by task index *)

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
     signalled wait and 0 otherwise. *)
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
      match Random.State.int rng 20 with
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
      | _ -> R_kill (Random.State.int rng n_tasks))

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

(* The same equivalence with 400-600 tasks. The 200-seed sweep never
   holds more than 13 entries, so it never leaves the initial 256-entry
   capacity of the heap's key array, the slot registry or the free-slot
   stack. Here the registry grows while the tasks are spawned (256 live
   bootstrap entries to carry over); the heap, allocated at its first
   push, grows once most tasks have parked a future wakeup; and the free
   stack grows as tasks finish and give back their slots. The last two
   happen while the run is under way. *)
let test_wide_schedule_equivalence () =
  for seed = 0 to 5 do
    let rng = Random.State.make [| 0x3A7E; seed |] in
    let n_tasks = 400 + Random.State.int rng 201 in
    let programs = List.init n_tasks (fun _ -> gen_program rng n_tasks) in
    let (h0, r0, f0), (h1, r1, f1) = check_schedule seed programs in
    if h0 <> 0 || f0 <> 256 || r0 < 512 then
      Alcotest.failf "seed %d: capacities (%d, %d, %d) before the run" seed h0
        r0 f0;
    if h1 <= 256 || f1 <= 256 then
      Alcotest.failf
        "seed %d: capacities (%d, %d, %d) after the run: the heap or the \
         free stack never grew"
        seed h1 r1 f1
  done

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

let test_again_outside_timer () =
  Alcotest.check_raises "again needs a timer callback"
    (Invalid_argument "Engine.again: outside a timer callback") (fun () ->
      E.again 5)

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
        ] );
      ( "retire",
        [
          Alcotest.test_case "100k finished tasks free their memory" `Quick
            test_retired_tasks_free_memory;
          Alcotest.test_case "queries on a retired id" `Quick
            test_retired_task_queries;
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
    ]
