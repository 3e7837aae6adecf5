type task_id = int

exception Deadlock of string list
exception Killed
exception Budget_exceeded of int64

type task_state = Runnable | Blocked | Finished | Dead

(* ------------------------------------------------------------------ *)
(* Core types. Virtual time is int64 at the API boundary but a plain   *)
(* (63-bit) immediate int internally: cycle counts stay far below      *)
(* 2^62, and immediate arithmetic keeps the dispatch path free of      *)
(* int64 boxing and write barriers. Tasks carry a reusable resumption  *)
(* frame. Dispatch entries live in a slab: each gets a fixed slot when *)
(* it is created, a registry array maps slots back to entries, and a   *)
(* recycled entry's slot goes on an int stack of free slots. The queue *)
(* of future wakeups stores keys and slots as plain ints, so neither a *)
(* sift nor a recycle stores a pointer and pays the GC write barrier.  *)
(* ------------------------------------------------------------------ *)

(* The parked continuation of a suspended task. Exactly one entry (or
   cond waiter) owns the right to resume it; taking the frame (clearing
   the task's [fr_parked]) transfers ownership to the dispatcher, so a
   one-shot continuation can never be resumed twice. [K_none] only
   until the first park. *)
type frame_k =
  | K_none
  | K_unit of (unit, unit) Effect.Deep.continuation
  | K_bool of (bool, unit) Effect.Deep.continuation

type task = {
  id : task_id;
  name : string;
  start : int; (* spawn time; (time - start) is the task's lifetime *)
  mutable time : int; (* local virtual clock, cycles *)
  mutable state : task_state;
  mutable killed : bool;
  (* Reusable resumption frame: instead of capturing the continuation in
     a fresh closure per effect, the fast paths (consume/sleep/yield/
     wait) park it here and schedule a plain [Ek_resume] entry pointing
     back at the task. *)
  mutable fr_k : frame_k;
  (* [fr_k] holds a continuation no one has taken yet. A bool, so taking
     the frame stores no pointer and pays no write barrier; a taken
     frame's stale continuation has given its stack back to the resume. *)
  mutable fr_parked : bool;
  (* Set while parked on a condition variable and not yet claimed by a
     signaller: lets kill (and an expiring [wait_timeout] deadline)
     claim the waiter in O(1). *)
  mutable fr_waiter : cond_waiter option;
  (* The slot of the pending [wait_timeout] deadline entry, -1 for none:
     an early signal or kill takes it out of the scheduler at once (see
     [cancel_entry]). An int, so arming and clearing it allocates
     nothing and stores no pointer. *)
  mutable fr_deadline : int;
  (* Cycle attribution: the profile phase the task is in (-1 for none,
     at or above [Profile.pin_bit] when pinned), and the task time it
     entered it. Ints, so switching phase allocates nothing. *)
  mutable ph : int;
  mutable ph_t0 : int;
}

and entry = {
  mutable etime : int;
  mutable eseq : int;
  mutable ekind : ekind;
  (* [Ek_resume]: the task to resume. Other kinds ignore it, and a
     recycled entry keeps its last task: clearing it would cost a write
     barrier per dispatch, and a stale pointer pins at most one small
     retired task record per slot. *)
  mutable e_task : task;
  (* [Ek_run] bootstrap or timer callback; reset to [no_fn] on recycle,
     so a timer's closure (and what it captures) dies with its firing. *)
  mutable e_fn : unit -> unit;
  (* [Ek_resume]: resume value for [K_bool] frames (0 = false);
     [Ek_arm]: when the timer fires. One shared slot keeps every entry a
     word smaller. *)
  mutable e_arg : int;
  e_slot : int; (* fixed index in the engine's slot registry *)
}

and ekind =
  | Ek_cancelled (* inert: skipped (and recycled) without dispatching *)
  | Ek_resume (* resume [e_task]'s frame *)
  | Ek_run (* run [e_fn] — spawn bootstrap *)
  | Ek_arm (* a timer's arm entry: fire [e_fn] at [e_arg] *)
  | Ek_fire (* run the timer callback [e_fn] at [etime] *)

and cond_waiter = {
  w_task : task;
  w_cond : cond;
  mutable w_claimed : bool;
}

and cond = {
  c_name : string;
  c_waiters : cond_waiter Queue.t;
  (* Unclaimed waiters currently parked: kept exact at every claim site so
     signallers can test "anyone there?" in O(1). The ring buffer's
     targeted-wakeup policy reads this on every publish/consume, so it
     must not degrade into a queue walk. *)
  mutable c_nwaiters : int;
}

let dummy_task =
  {
    id = -1;
    name = "<dummy>";
    start = 0;
    time = 0;
    state = Dead;
    killed = true;
    fr_k = K_none;
    fr_parked = false;
    fr_waiter = None;
    fr_deadline = -1;
    ph = -1;
    ph_t0 = 0;
  }

let no_fn () = ()

let dummy_entry =
  {
    etime = 0;
    eseq = 0;
    ekind = Ek_cancelled;
    e_task = dummy_task;
    e_fn = no_fn;
    e_arg = 0;
    e_slot = -1;
  }

let dummy_cond =
  { c_name = "<dummy>"; c_waiters = Queue.create (); c_nwaiters = 0 }

module Runq = struct
  (* The queue of future wakeups: binary min-heaps of {e runs}. A run is
     a FIFO of entries that share one [etime] and were pushed into one
     heap back to back, with no other push into that heap in between;
     the heap orders runs, and the entries of a run leave in push order.
     Holds only live, genuinely future wakeups: due-now entries go to
     the ready ring instead, and a cancelled entry is taken out at once
     ([remove]).

     Entries are named by their slot. Pushes come with strictly
     increasing [eseq]s, as the engine's do (an entry takes its [eseq]
     just before its push). Runs of one [etime] in one heap therefore
     hold disjoint, ordered [eseq] ranges, and a node keyed by the
     [eseq] of its run's current head sorts exactly as that head would
     on its own: taking the head off and keying the node by the next
     member's [eseq] cannot move it past another node. So each heap pops
     in (etime, eseq) order, and [pop] takes the lesser of the two
     heads. A follower herd that wakes and re-arms at one time pushes,
     pops and cancels in O(1) instead of sifting through ~9 levels.

     Only removable entries (the engine's [wait_timeout] deadlines) can
     leave other than by [pop], so only they need their node found. They
     get a heap of their own, [deadlines], whose sifts are followed by a
     pass that records in [pos] where each moved head now sits. The
     other heap, [plain], keeps no positions, so a time that holds one
     ordinary entry costs what it did in a heap of single entries.

     Node [i] of a heap is three ints in its flat array: etime at [3i],
     the head's eseq at [3i + 1] and the head's slot at [3i + 2]. Per
     slot, [next] holds the successor in its run ([absent] at the tail);
     [pos] holds the node index of a removable head, [linked] for a
     removable member behind its head, and [absent] otherwise; and, for
     members only, [l] holds the predecessor at [2s] and the eseq at
     [2s + 1]. No array holds a pointer, so no store pays a write
     barrier. Reads and writes skip the bounds check: every node index
     is below its heap's [len], and every queued slot below the length
     of [next] and [pos] (and half that of [l]), which [push] grows
     first. Arrays are allocated at their first use: 256 nodes are too
     big for the minor heap, and an engine whose work never leaves the
     ready ring and the inline path should not pay for a major-heap
     block. *)
  type heap = {
    mutable a : int array;
    mutable len : int;
    tracked : bool; (* [pos] follows its heads *)
    mutable open_time : int;
    (* The tail of the open run (the one the last push into this heap
       joined or began), or [absent] once that run has emptied: a push
       at [open_time] appends to it. *)
    mutable open_tail : int;
  }

  type t = {
    plain : heap;
    deadlines : heap;
    mutable next : int array;
    mutable pos : int array;
    mutable l : int array;
  }

  let absent = -1
  let linked = -2

  let heap tracked =
    { a = [||]; len = 0; tracked; open_time = 0; open_tail = absent }

  let create () =
    {
      plain = heap false;
      deadlines = heap true;
      next = [||];
      pos = [||];
      l = [||];
    }

  let[@inline] time (a : int array) i = Array.unsafe_get a (3 * i)
  let[@inline] seq (a : int array) i = Array.unsafe_get a ((3 * i) + 1)
  let[@inline] slot (a : int array) i = Array.unsafe_get a ((3 * i) + 2)
  let[@inline] get (v : int array) s = Array.unsafe_get v s
  let[@inline] set (v : int array) s x = Array.unsafe_set v s x

  let is_empty q = q.plain.len = 0 && q.deadlines.len = 0
  let length q = q.plain.len + q.deadlines.len

  (* The heap whose head comes first; [q] must not be empty. *)
  let[@inline] first q =
    let p = q.plain and d = q.deadlines in
    if d.len = 0 then p
    else if p.len = 0 then d
    else
      let pt = time p.a 0 and dt = time d.a 0 in
      if pt < dt || (pt = dt && seq p.a 0 < seq d.a 0) then p else d

  (* The first head's keys. Bounds-checked, so a read of an empty queue
     raises or gives a stale key, never garbage. *)
  let top_time q = (first q).a.(0)
  let top_seq q = (first q).a.(1)

  let[@inline] place (a : int array) i t s sl =
    Array.unsafe_set a (3 * i) t;
    Array.unsafe_set a ((3 * i) + 1) s;
    Array.unsafe_set a ((3 * i) + 2) sl

  (* Place (t, s, sl) at or above the hole at [i]; return where. *)
  let sift_up h i t s sl =
    let a = h.a in
    let i = ref i in
    let continue = ref true in
    while !continue && !i > 0 do
      let up = (!i - 1) / 2 in
      let ut = time a up in
      if t < ut || (t = ut && s < seq a up) then begin
        place a !i ut (seq a up) (slot a up);
        i := up
      end
      else continue := false
    done;
    place a !i t s sl;
    !i

  (* Place (t, s, sl) at or below the hole at [i]; return where. *)
  let sift_down h i t s sl =
    let a = h.a and len = h.len in
    let i = ref i in
    let continue = ref true in
    while !continue do
      let c = (2 * !i) + 1 in
      if c >= len then continue := false
      else begin
        let r = c + 1 in
        let c =
          if r < len then begin
            let tl = time a c and tr = time a r in
            if tr < tl || (tr = tl && seq a r < seq a c) then r else c
          end
          else c
        in
        let ct = time a c and cs = seq a c in
        if ct < t || (ct = t && cs < s) then begin
          place a !i ct cs (slot a c);
          i := c
        end
        else continue := false
      end
    done;
    place a !i t s sl;
    !i

  (* A sift filled the nodes on the path from [lo] down to its
     descendant [hi]: in the deadline heap, record where their heads now
     sit. A pass of its own, so the sift loops stay those of a plain
     heap. *)
  let fix_path q h lo hi =
    if h.tracked then begin
      let a = h.a and p = q.pos in
      let j = ref hi in
      while !j >= lo do
        set p (slot a !j) !j;
        j := if !j = lo then -1 else (!j - 1) / 2
      done
    end

  (* Drop the last node and place its keys into the hole at [i]. *)
  let refill q h i =
    h.len <- h.len - 1;
    let n = h.len in
    if i < n then begin
      let a = h.a in
      let t = time a n and s = seq a n and sl = slot a n in
      let up = (i - 1) / 2 in
      if i > 0 && (t < time a up || (t = time a up && s < seq a up)) then
        fix_path q h (sift_up h i t s sl) i
      else fix_path q h i (sift_down h i t s sl)
    end

  (* Make room for slot [s] in the per-slot arrays. *)
  let grow_slots q s =
    let n = ref (max 256 (2 * Array.length q.next)) in
    while s >= !n do
      n := 2 * !n
    done;
    let grow v len =
      let bigger = Array.make len absent in
      Array.blit v 0 bigger 0 (Array.length v);
      bigger
    in
    q.next <- grow q.next !n;
    q.pos <- grow q.pos !n;
    q.l <- grow q.l (2 * !n)

  (* Queue slot [s] at [time], with an [eseq] above every earlier
     push's. *)
  let push q s ~time:t ~seq:sq ~removable =
    if s >= Array.length q.next then begin
      if s < 0 then invalid_arg "Runq.push: negative slot";
      grow_slots q s
    end;
    let h = if removable then q.deadlines else q.plain in
    set q.next s absent;
    let tail = h.open_tail in
    if t = h.open_time && tail <> absent then begin
      (* Join the open run behind its tail. *)
      set q.next tail s;
      let l = q.l in
      set l (2 * s) tail;
      set l ((2 * s) + 1) sq;
      if removable then set q.pos s linked
    end
    else begin
      if 3 * h.len = Array.length h.a then begin
        let bigger = Array.make (max (3 * 256) (2 * Array.length h.a)) 0 in
        Array.blit h.a 0 bigger 0 (3 * h.len);
        h.a <- bigger
      end;
      h.len <- h.len + 1;
      let hole = h.len - 1 in
      fix_path q h (sift_up h hole t sq s) hole;
      h.open_time <- t
    end;
    h.open_tail <- s

  (* Head [s] of node [i] of [h] leaves. Its successor, if any, takes
     over the node, keyed by its own eseq (see above); a lone head takes
     its node out. *)
  let[@inline] unhead q h s i =
    let n = get q.next s in
    if n = absent then begin
      if s = h.open_tail then h.open_tail <- absent;
      refill q h i
    end
    else begin
      let a = h.a in
      Array.unsafe_set a ((3 * i) + 1) (get q.l ((2 * n) + 1));
      Array.unsafe_set a ((3 * i) + 2) n;
      if h.tracked then set q.pos n i
    end;
    if h.tracked then set q.pos s absent

  (* The head of [h], which holds the first head. *)
  let pop_from q h =
    let s = slot h.a 0 in
    unhead q h s 0;
    s

  let pop q =
    if is_empty q then invalid_arg "Runq.pop: empty";
    pop_from q (first q)

  (* Take out [s], pushed removable; [false] if it is not queued. *)
  let remove q s =
    if s < 0 || s >= Array.length q.pos then false
    else begin
      let p = q.pos in
      let i = get p s in
      if i >= 0 then begin
        unhead q q.deadlines s i;
        true
      end
      else if i = linked then begin
        let nx = q.next in
        let pr = get q.l (2 * s) and n = get nx s in
        set nx pr n;
        if n <> absent then set q.l (2 * n) pr
        else if s = q.deadlines.open_tail then q.deadlines.open_tail <- pr;
        set p s absent;
        true
      end
      else false
    end

  let capacities q =
    ( Array.length q.plain.a / 3,
      Array.length q.deadlines.a / 3,
      Array.length q.next )
end

module Ready = struct
  (* Flat FIFO ring of due-now entries. Scheduling never places an entry
     in the past (see [enqueue]), so everything here carries
     [etime = global_time] and FIFO order coincides with (etime, eseq)
     order — a same-timestamp resumption chain costs two array stores
     instead of a queue push + pop. Capacity is a power of two. *)
  type t = { mutable a : entry array; mutable head : int; mutable len : int }

  let create () = { a = Array.make 256 dummy_entry; head = 0; len = 0 }

  let grow r =
    let n = Array.length r.a in
    let bigger = Array.make (2 * n) dummy_entry in
    for i = 0 to r.len - 1 do
      bigger.(i) <- r.a.((r.head + i) land (n - 1))
    done;
    r.a <- bigger;
    r.head <- 0

  let push r e =
    if r.len = Array.length r.a then grow r;
    r.a.((r.head + r.len) land (Array.length r.a - 1)) <- e;
    r.len <- r.len + 1

  (* Caller must check [len > 0]. *)
  let front r = r.a.(r.head)

  let pop r =
    let e = r.a.(r.head) in
    r.a.(r.head) <- dummy_entry;
    r.head <- (r.head + 1) land (Array.length r.a - 1);
    r.len <- r.len - 1;
    e
end

(* Every transition of [w_claimed] from false to true goes through here so
   the waiter count stays exact. *)
let claim_waiter c w =
  if not w.w_claimed then begin
    w.w_claimed <- true;
    c.c_nwaiters <- c.c_nwaiters - 1
  end

(* A ticker is a periodic scheduler-context hook: it fires as virtual
   time advances past its deadlines but never schedules scheduler entries of
   its own, so an otherwise-quiescent simulation is never kept alive by
   its watchdogs. Callbacks run outside any task and must not perform
   engine effects; they may call [spawn] to delegate work to a task. *)
type ticker = {
  tk_period : int;
  mutable tk_next : int;
  tk_fn : unit -> bool; (* [false] deactivates the ticker *)
  mutable tk_active : bool;
}

type t = {
  queue : Runq.t; (* future wakeups *)
  ready : Ready.t;
  (* The entry slab: slot [i] of [slots] is the entry created with
     [e_slot = i] ([nslots] so far, so the registry never outgrows the
     peak number of live entries); [free.(0 .. nfree - 1)] is a stack of
     the slots of recycled entries. *)
  mutable slots : entry array;
  mutable nslots : int;
  mutable free : int array;
  mutable nfree : int;
  mutable seq : int;
  mutable next_id : task_id;
  tasks : (task_id, task) Hashtbl.t; (* live tasks only *)
  mutable retired_cycles : int; (* summed lifetimes of retired tasks *)
  mutable global_time : int;
  mutable failure_list : (task_id * exn) list; (* reversed *)
  mutable tickers : ticker list;
  (* Earliest [tk_next] over active tickers ([max_int] if none),
     maintained at add/fire/deactivate so the dispatch loop pays one
     compare instead of a list fold per iteration. *)
  mutable tick_due : int;
  (* The active [drain]'s cycle budget ([max_int] outside a budgeted
     run): the inline dispatch fast path must divert to the slow path
     rather than silently run past it. *)
  mutable cur_budget : int;
  mutable switches : int; (* entries dispatched — task switches *)
}

(* The payload side-slots of the suspending effects: a constant effect
   constructor allocates nothing at [perform], so the wrappers stash
   their argument here and the handler reads it back synchronously
   (tasks are cooperative and effects are handled before the wrapper
   returns, so a slot is never live across two performs). *)
let pending_int = ref 0
let pending_cond = ref dummy_cond

(* While a timer callback runs: its engine and its firing time, so the
   task-context wrappers ([now_cycles], [after_here], [Cond.signal] and
   [Cond.broadcast]) act on the engine directly instead of performing an
   effect no handler would catch. [timer_at < 0] outside callbacks;
   [timer_again] is the delay passed to [again], or -1. *)
let timer_eng : t option ref = ref None
let timer_at = ref (-1)
let timer_again = ref (-1)

(* A task performs an effect only to park: the calls that return at once
   act on the engine directly, through the running-task slot (below).
   [E_outside] is performed only where no task runs, so that no handler
   takes it and the call raises [Effect.Unhandled]. *)
type _ Effect.t +=
  | E_consume : unit Effect.t (* resume at the task's own clock *)
  | E_yield : unit Effect.t (* the same *)
  | E_sleep : unit Effect.t (* resume at [pending_int] *)
  | E_wait : unit Effect.t (* cond in [pending_cond] *)
  | E_wait_timeout : bool Effect.t (* cond + cycles in the slots *)
  | E_outside : 'a Effect.t

let create () =
  {
    queue = Runq.create ();
    ready = Ready.create ();
    slots = Array.make 256 dummy_entry;
    nslots = 0;
    free = Array.make 256 0;
    nfree = 0;
    seq = 0;
    next_id = 0;
    tasks = Hashtbl.create 64;
    retired_cycles = 0;
    global_time = 0;
    failure_list = [];
    tickers = [];
    tick_due = max_int;
    cur_budget = max_int;
    switches = 0;
  }

(* The running-task slot: the task whose code runs now, or [dummy_task]
   where none does (outside [drain], inside a timer or ticker callback,
   and before a drain's first dispatch). A dispatch stores it only when
   the task changes, and a timer or ticker clears it before its
   callback. [running_eng] is the engine of the innermost [drain]:
   [drain] clears the slot and sets the engine on entry and restores
   both on exit, so a slot that holds a task holds one of that engine.
   Through them the calls that never suspend act on the engine directly
   instead of performing an effect. *)
let running = ref dummy_task
let running_eng = ref (create ())

let add_ticker t ~period fn =
  if period <= 0 then invalid_arg "Engine.add_ticker: period must be positive";
  let next = t.global_time + period in
  t.tickers <-
    { tk_period = period; tk_next = next; tk_fn = fn; tk_active = true }
    :: t.tickers;
  if next < t.tick_due then t.tick_due <- next

let next_due_ticker t =
  List.fold_left
    (fun acc tk ->
      if not tk.tk_active then acc
      else
        match acc with
        | Some best when best.tk_next <= tk.tk_next -> acc
        | _ -> Some tk)
    None t.tickers

let refresh_tick_due t =
  t.tick_due <-
    List.fold_left
      (fun acc tk -> if tk.tk_active && tk.tk_next < acc then tk.tk_next else acc)
      max_int t.tickers

(* ------------------------------------------------------------------ *)
(* Entry slab                                                          *)
(* ------------------------------------------------------------------ *)

(* The slab is empty: create an entry in the next slot, doubling the
   registry when it is full. *)
let new_entry t ~time ~kind =
  let slot = t.nslots in
  if slot = Array.length t.slots then begin
    let bigger = Array.make (2 * slot) dummy_entry in
    Array.blit t.slots 0 bigger 0 slot;
    t.slots <- bigger
  end;
  let e =
    {
      etime = time;
      eseq = t.seq;
      ekind = kind;
      e_task = dummy_task;
      e_fn = no_fn;
      e_arg = 0;
      e_slot = slot;
    }
  in
  t.slots.(slot) <- e;
  t.nslots <- slot + 1;
  t.seq <- t.seq + 1;
  e

(* Reusing a slot stores only ints and a constant constructor: no write
   barrier. *)
let alloc_entry t ~time ~kind =
  let n = t.nfree in
  if n = 0 then new_entry t ~time ~kind
  else begin
    t.nfree <- n - 1;
    let e = t.slots.(t.free.(n - 1)) in
    e.etime <- time;
    e.eseq <- t.seq;
    t.seq <- t.seq + 1;
    e.ekind <- kind;
    e.e_arg <- 0;
    e
  end

let recycle t e =
  e.ekind <- Ek_cancelled;
  if e.e_fn != no_fn then e.e_fn <- no_fn;
  let n = t.nfree in
  if n = Array.length t.free then begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit t.free 0 bigger 0 n;
    t.free <- bigger
  end;
  t.free.(n) <- e.e_slot;
  t.nfree <- n + 1

(* Tasks never schedule in the past (a running task's local clock equals
   the global clock, and cond wakes clamp with [max]), so due-now means
   [etime = global_time] exactly and the ready ring preserves the
   documented (etime, eseq) total order. The [<=] is defensive. Only a
   [wait_timeout] deadline is [removable]: nothing else is cancelled. *)
let[@inline] enqueue_as t e ~removable =
  if e.etime <= t.global_time then Ready.push t.ready e
  else Runq.push t.queue e.e_slot ~time:e.etime ~seq:e.eseq ~removable

let enqueue t e = enqueue_as t e ~removable:false

let[@inline] sched_resume_as t time task ~removable =
  let e = alloc_entry t ~time ~kind:Ek_resume in
  e.e_task <- task;
  enqueue_as t e ~removable;
  e

let sched_resume t time task = sched_resume_as t time task ~removable:false

let sched_run t time fn =
  let e = alloc_entry t ~time ~kind:Ek_run in
  e.e_fn <- fn;
  enqueue t e

(* Cancel a scheduled entry that will never be dispatched. A queued
   entry is unlinked from its run and goes back to the slab at once, so
   the queue holds only live entries and a herd of early-signalled
   [wait_timeout]s costs nothing once woken. An entry on the ready ring
   (a deadline of zero cycles or less) is flagged instead, and recycled
   when it reaches the front. *)
let cancel_entry t e =
  if Runq.remove t.queue e.e_slot then recycle t e
  else e.ekind <- Ek_cancelled

(* Drop [task]'s pending [wait_timeout] deadline, if any. *)
let[@inline] cancel_deadline t task =
  let d = task.fr_deadline in
  if d >= 0 then begin
    cancel_entry t t.slots.(d);
    task.fr_deadline <- -1
  end

let maxi (a : int) b = if a > b then a else b

(* Arm a timer at [at]: one due-now entry, exactly the bootstrap entry
   [spawn_here (fun () -> sleep d; f ())] would schedule. Its dispatch
   then does what that task's [sleep d] would: fire inline or schedule
   the fire entry (see [drain]). *)
let arm t at d f =
  let e = alloc_entry t ~time:at ~kind:Ek_arm in
  e.e_fn <- f;
  e.e_arg <- at + maxi d 0;
  enqueue t e

let now t = Int64.of_int t.global_time

let task_name t id =
  match Hashtbl.find_opt t.tasks id with Some task -> task.name | None -> "?"

let is_alive t id =
  match Hashtbl.find_opt t.tasks id with
  | Some task -> task.state <> Finished && task.state <> Dead
  | None -> false

let failures t = List.rev t.failure_list
let task_switches t = t.switches

type capacities = {
  nodes : int;
  deadline_nodes : int;
  links : int;
  registry : int;
  free : int;
}

let capacities t =
  let nodes, deadline_nodes, links = Runq.capacities t.queue in
  {
    nodes;
    deadline_nodes;
    links;
    registry = Array.length t.slots;
    free = Array.length t.free;
  }

(* Total task-cycles: every task's lifetime (busy + blocked vtime from
   spawn to its current local clock) summed. Finished and dead tasks
   leave the table when they retire, banking their final lifetime in
   [retired_cycles], so this stays exact while the table holds only
   live work. This is the denominator the cycle-attribution profile is
   judged against: the phase buckets partition (most of) this quantity.
   A sum, so the table's order does not matter. *)
let total_task_cycles t =
  Int64.of_int
    (Hashtbl.fold
       (fun _ task acc -> acc + (task.time - task.start))
       t.tasks t.retired_cycles)

(* A finished or dead task never runs again, so its clock is final: bank
   its lifetime and drop it. A phase it is still in is never charged. *)
let retire t task =
  Hashtbl.remove t.tasks task.id;
  t.retired_cycles <- t.retired_cycles + (task.time - task.start)

(* Schedule the resumption of a claimed waiter's task: clear the park
   bookkeeping, cancel any pending deadline, and hand the wake time to a
   reusable [Ek_resume] entry. [e_arg = 1] marks "signalled" for
   [wait_timeout] frames; plain waits ignore it. *)
let wake_waiter t w at =
  let task = w.w_task in
  task.fr_waiter <- None;
  cancel_deadline t task;
  let e = sched_resume t (maxi at task.time) task in
  e.e_arg <- 1

(* Wake one claimable waiter of [c] at a time not before [at]. *)
let signal_at t c at =
  let rec pop () =
    if not (Queue.is_empty c.c_waiters) then begin
      let w = Queue.pop c.c_waiters in
      if w.w_claimed then pop ()
      else if w.w_task.state = Dead then begin
        claim_waiter c w;
        pop ()
      end
      else begin
        claim_waiter c w;
        wake_waiter t w at
      end
    end
  in
  pop ()

(* Drain in place: tasks are cooperative and this loop performs no
   engine effect, so no waiter can register while it runs — the
   defensive queue copy the previous implementation paid per broadcast
   is not needed. Claimed waiters (already woken, killed, or timed out)
   are simply dropped. *)
let broadcast_at t c at =
  while not (Queue.is_empty c.c_waiters) do
    let w = Queue.pop c.c_waiters in
    if not w.w_claimed then begin
      let dead = w.w_task.state = Dead in
      claim_waiter c w;
      if not dead then wake_waiter t w at
    end
  done

(* Inline dispatch fast path: when the performing task's resumption at
   [nt] would be the scheduler's very next pick — nothing due in the
   ready ring, every queued entry strictly later, no ticker deadline to
   cross, budget not hit — parking it and immediately dispatching it is
   equivalent to continuing it in place. The park/resume round trip
   through the scheduler stack costs ~4x an inline continue, so consume
   chains (cost charging, the hottest effect in the system) skip it
   entirely. The strict [>] on the queue top keeps (etime, eseq) order:
   an equal-time queued entry was scheduled earlier and must run first. *)
let[@inline] can_inline t nt =
  t.ready.Ready.len = 0
  && (Runq.is_empty t.queue || Runq.top_time t.queue > nt)
  && t.tick_due >= nt
  && nt <= t.cur_budget

let[@inline] note_inline_switch t nt =
  t.global_time <- nt;
  t.switches <- t.switches + 1

(* The shared handler set. A fiber performs only to park, from the
   wrappers below, which have already done the work that does not
   suspend: checked [killed], advanced the clock, found that the task
   cannot continue inline. The handler parks the frame in the running
   task and schedules its resumption. Each handler is a closed closure
   allocated once, so [effc] allocates nothing. With the slot clear the
   effect came from a timer or ticker callback of an engine nested in a
   task: no handler takes it, so it raises [Effect.Unhandled] as it
   would outside any engine. *)
let[@inline] park task fk =
  task.fr_k <- fk;
  task.fr_parked <- true

let h_requeue =
  Some
    (fun (k : (unit, unit) Effect.Deep.continuation) ->
      let task = !running in
      park task (K_unit k);
      ignore (sched_resume !running_eng task.time task))

let h_sleep =
  Some
    (fun (k : (unit, unit) Effect.Deep.continuation) ->
      let task = !running in
      task.state <- Blocked;
      park task (K_unit k);
      ignore (sched_resume !running_eng !pending_int task))

(* Queue [task] as a waiter of [pending_cond]. *)
let enlist task =
  let c = !pending_cond in
  task.state <- Blocked;
  let w = { w_task = task; w_cond = c; w_claimed = false } in
  Queue.push w c.c_waiters;
  c.c_nwaiters <- c.c_nwaiters + 1;
  task.fr_waiter <- Some w

let h_wait =
  Some
    (fun (k : (unit, unit) Effect.Deep.continuation) ->
      let task = !running in
      enlist task;
      park task (K_unit k))

let h_wait_timeout =
  Some
    (fun (k : (bool, unit) Effect.Deep.continuation) ->
      let task = !running in
      enlist task;
      park task (K_bool k);
      (* The deadline rides an ordinary resume entry with [e_arg = 0]
         ("timed out"); an earlier signal or kill cancels it via
         [fr_deadline]. *)
      let d =
        sched_resume_as !running_eng (task.time + !pending_int) task
          ~removable:true
      in
      task.fr_deadline <- d.e_slot)

let effc :
    type a. a Effect.t -> ((a, unit) Effect.Deep.continuation -> unit) option
    =
 fun eff ->
  if !running == dummy_task then None
  else
    match eff with
    | E_consume -> h_requeue
    | E_yield -> h_requeue
    | E_sleep -> h_sleep
    | E_wait -> h_wait
    | E_wait_timeout -> h_wait_timeout
    | _ -> None

(* A fiber returns or raises while its task is in the slot: the dispatch
   that resumed it put it there, and a nested [drain] puts it back. *)
let handler : (unit, unit) Effect.Deep.handler =
  {
    retc =
      (fun () ->
        let task = !running in
        if task.state <> Dead then task.state <- Finished;
        retire !running_eng task);
    exnc =
      (fun e ->
        let task = !running and t = !running_eng in
        (match e with
        | Killed -> ()
        | e -> t.failure_list <- (task.id, e) :: t.failure_list);
        task.state <- Dead;
        retire t task);
    effc;
  }

let spawn_internal : t -> ?name:string -> at:int -> (unit -> unit) -> task_id =
 fun t ?name ~at body ->
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let name =
    match name with Some n -> n | None -> Printf.sprintf "task-%d" id
  in
  let task =
    {
      id;
      name;
      start = at;
      time = at;
      state = Runnable;
      killed = false;
      fr_k = K_none;
      fr_parked = false;
      fr_waiter = None;
      fr_deadline = -1;
      ph = -1;
      ph_t0 = at;
    }
  in
  Hashtbl.replace t.tasks id task;
  sched_run t at (fun () ->
      if task.killed || task.state = Dead then begin
        task.state <- Dead;
        retire t task
      end
      else begin
        running := task;
        if !Varan_obs.Trace.enabled then begin
          (* First dispatch slice: from spawn to the first park. *)
          Varan_obs.Trace.begin_span ~ts:(Int64.of_int task.time) ~tid:id name;
          Effect.Deep.match_with body () handler;
          Varan_obs.Trace.end_span ~ts:(Int64.of_int task.time) ~tid:id name
        end
        else Effect.Deep.match_with body () handler
      end);
  id

let kill_internal t ~at victim_id =
  match Hashtbl.find_opt t.tasks victim_id with
  | None -> ()
  | Some victim ->
    if victim.state <> Finished && victim.state <> Dead then begin
      victim.killed <- true;
      match victim.fr_waiter with
      | Some w ->
        (* Parked on a cond with no scheduled resumption: claim the
           waiter, drop any deadline, and schedule the unwind. The
           dispatcher sees [killed] and discontinues the frame. *)
        claim_waiter w.w_cond w;
        victim.fr_waiter <- None;
        cancel_deadline t victim;
        victim.state <- Dead;
        ignore (sched_resume t (maxi at victim.time) victim)
      | None ->
        (* Running, queued, or not yet started: the flag is checked at the
           next scheduled resumption or task-context call. *)
        ()
    end

let spawn t ?name body = spawn_internal t ?name ~at:t.global_time body

(* In table order; [run] sorts the names before it raises [Deadlock]. *)
let blocked_task_names t =
  Hashtbl.fold
    (fun _ task acc ->
      match task.state with
      | Runnable | Blocked -> task.name :: acc
      | Finished | Dead -> acc)
    t.tasks []

let[@inline] clear_running () =
  if !running != dummy_task then running := dummy_task

(* Fire the earliest due ticker (the cached [tick_due] told the caller
   one is due before the next entry). The callback may [spawn] tasks at
   the deadline, which land in the ready ring ahead of the pending entry
   and are picked up by the next dispatch iteration. *)
let fire_due_ticker t =
  match next_due_ticker t with
  | None -> t.tick_due <- max_int
  | Some tk ->
    let due = tk.tk_next in
    if due > t.global_time then t.global_time <- due;
    tk.tk_next <- due + tk.tk_period;
    clear_running ();
    if not (tk.tk_fn ()) then tk.tk_active <- false;
    refresh_tick_due t

(* Run timer callback [fn] at [at] in scheduler context. If it called
   [again d], refire it [d] cycles later exactly as a task looping on
   [sleep d] would continue: in place when [can_inline] holds, otherwise
   through one fire entry. *)
let rec fire t me at fn =
  clear_running ();
  timer_eng := me;
  timer_at := at;
  timer_again := -1;
  (match fn () with
  | () -> ()
  | exception ex ->
    timer_eng := None;
    timer_at := -1;
    raise ex);
  timer_eng := None;
  timer_at := -1;
  let d = !timer_again in
  if d >= 0 then begin
    let nt = at + d in
    if can_inline t nt then begin
      note_inline_switch t nt;
      fire t me nt fn
    end
    else begin
      let e = alloc_entry t ~time:nt ~kind:Ek_fire in
      e.e_fn <- fn;
      enqueue t e
    end
  end

let drain ?cycle_budget t =
  let budget =
    match cycle_budget with
    | Some b when b < Int64.of_int max_int -> Int64.to_int b
    | _ -> max_int
  in
  t.cur_budget <- budget;
  let me = Some t in
  let queue = t.queue and ready = t.ready in
  let outer = !running and outer_eng = !running_eng in
  running := dummy_task;
  running_eng := t;
  let rec loop () =
    (* Recycle cancelled entries at the ready ring's front without
       dispatching; the queue never holds one (see [cancel_entry]). *)
    if ready.Ready.len > 0 && (Ready.front ready).ekind == Ek_cancelled then begin
      recycle t (Ready.pop ready);
      loop ()
    end
    else begin
      let have_r = ready.Ready.len > 0 and have_q = not (Runq.is_empty queue) in
      if have_r || have_q then begin
        (* The ready ring holds due-now entries; the queue can also carry
           entries at the current timestamp (pushed as future, reached
           since), so ties fall back to the full (etime, eseq) compare. *)
        let h = if have_q then Runq.first queue else queue.Runq.plain in
        let qt = if have_q then Runq.time h.Runq.a 0 else max_int in
        let from_queue =
          have_q
          && ((not have_r)
             ||
             let r = Ready.front ready in
             qt < r.etime || (qt = r.etime && Runq.seq h.Runq.a 0 < r.eseq))
        in
        if from_queue && t.tick_due < qt then begin
          (* Virtual time is about to jump past a ticker's deadline:
             fire it first, then re-select. *)
          fire_due_ticker t;
          loop ()
        end
        else begin
          let e =
            if from_queue then t.slots.(Runq.pop_from queue h)
            else Ready.pop ready
          in
          (* Liveness watchdog: a simulation that schedules work past the
             budget is considered hung (livelock, missed wakeup, runaway
             retry loop) and aborted rather than left spinning. *)
          if e.etime > budget then begin
            recycle t e;
            raise (Budget_exceeded (Int64.of_int t.global_time))
          end;
          if e.etime > t.global_time then t.global_time <- e.etime
          else if
              e.etime < t.global_time
              && e.ekind == Ek_resume
              && !Varan_obs.Profile.enabled
            then
            (* The entry was due at [etime] but a ticker (or an earlier
               same-dispatch entry) already pushed virtual time past it:
               the task resumes late through no fault of its own. This is
               the scheduler-induced lag the profile reports as
               sched-dispatch. *)
            Varan_obs.Profile.charge Varan_obs.Profile.sched_dispatch
              (t.global_time - e.etime);
          t.switches <- t.switches + 1;
          (match e.ekind with
          | Ek_resume ->
            let task = e.e_task and etime = e.etime and flag = e.e_arg <> 0 in
            if task.fr_deadline = e.e_slot then task.fr_deadline <- -1;
            recycle t e;
            (* A still-queued waiter at resume time means the deadline
               fired before any signal: claim it so signallers skip it. *)
            (match task.fr_waiter with
            | Some w ->
              claim_waiter w.w_cond w;
              task.fr_waiter <- None
            | None -> ());
            (* A frame no longer parked is stale: ownership already
               transferred. *)
            if task.fr_parked then begin
              task.fr_parked <- false;
              if !running != task then running := task;
              match task.fr_k with
              | K_none -> () (* unreachable: a parked frame holds one *)
              | K_unit k ->
                if task.killed then Effect.Deep.discontinue k Killed
                else begin
                  task.state <- Runnable;
                  if etime > task.time then task.time <- etime;
                  if !Varan_obs.Trace.enabled then begin
                    (* One span per dispatch slice, on the engine track
                       (pid 0) keyed by task id. Begin at the resume time,
                       end at the task's local clock when it parks again —
                       so the span covers exactly the vtime the slice
                       consumed and excludes the wait that follows. Inline
                       fast-path switches stay inside the enclosing span,
                       which keeps per-track nesting trivially correct. *)
                    Varan_obs.Trace.begin_span ~ts:(Int64.of_int task.time)
                      ~tid:task.id task.name;
                    Effect.Deep.continue k ();
                    Varan_obs.Trace.end_span ~ts:(Int64.of_int task.time)
                      ~tid:task.id task.name
                  end
                  else Effect.Deep.continue k ()
                end
              | K_bool k ->
                if task.killed then Effect.Deep.discontinue k Killed
                else begin
                  task.state <- Runnable;
                  if etime > task.time then task.time <- etime;
                  if !Varan_obs.Trace.enabled then begin
                    Varan_obs.Trace.begin_span ~ts:(Int64.of_int task.time)
                      ~tid:task.id task.name;
                    Effect.Deep.continue k flag;
                    Varan_obs.Trace.end_span ~ts:(Int64.of_int task.time)
                      ~tid:task.id task.name
                  end
                  else Effect.Deep.continue k flag
                end
            end
          | Ek_run ->
            let fn = e.e_fn in
            recycle t e;
            fn ()
          | Ek_arm ->
            let fn = e.e_fn and due = e.e_arg in
            if can_inline t due then begin
              recycle t e;
              note_inline_switch t due;
              fire t me due fn
            end
            else begin
              (* The sleep entry the replaced task would allocate right
                 after recycling its bootstrap entry: same (etime, eseq),
                 so re-key this entry in place. *)
              e.etime <- due;
              e.eseq <- t.seq;
              t.seq <- t.seq + 1;
              e.ekind <- Ek_fire;
              enqueue t e
            end
          | Ek_fire ->
            let fn = e.e_fn and at = e.etime in
            recycle t e;
            fire t me at fn
          | Ek_cancelled -> recycle t e (* unreachable: pruned above *));
          loop ()
        end
      end
    end
    (* tickers never outlive the work they monitor *)
  in
  match loop () with
  | () ->
    running := outer;
    running_eng := outer_eng
  | exception ex ->
    running := outer;
    running_eng := outer_eng;
    raise ex

let run ?cycle_budget t =
  drain ?cycle_budget t;
  let leftover = blocked_task_names t in
  if leftover <> [] then raise (Deadlock (List.sort compare leftover))

let run_until_quiescent ?cycle_budget t = drain ?cycle_budget t

(* Task-context wrappers. Inside a task they act on the engine directly
   and perform an effect only to park; a killed task unwinds with
   [Killed] at the call, as it did when a handler discontinued it. With
   the slot clear they perform an effect no handler takes, so outside
   any task they raise [Effect.Unhandled] — except for the calls a timer
   callback may make, which act on the timer's engine. *)
let consume n =
  if n > 0 then begin
    let task = !running in
    if task == dummy_task then Effect.perform E_consume
    else if task.killed then raise Killed
    else begin
      let t = !running_eng in
      let nt = task.time + n in
      task.time <- nt;
      if can_inline t nt then note_inline_switch t nt
      else Effect.perform E_consume
    end
  end

let sleep n =
  let task = !running in
  if task == dummy_task then Effect.perform E_sleep
  else if task.killed then raise Killed
  else begin
    let t = !running_eng in
    let nt = task.time + maxi n 0 in
    if can_inline t nt then begin
      task.time <- nt;
      note_inline_switch t nt
    end
    else begin
      pending_int := nt;
      Effect.perform E_sleep
    end
  end

let yield () =
  let task = !running in
  if task == dummy_task then Effect.perform E_yield
  else if task.killed then raise Killed
  else begin
    let t = !running_eng in
    if can_inline t task.time then note_inline_switch t task.time
    else Effect.perform E_yield
  end

let in_timer () = !timer_at >= 0
let timer_engine () = Option.get !timer_eng

let now_int () =
  let task = !running in
  if task != dummy_task then task.time
  else if in_timer () then !timer_at
  else Effect.perform E_outside

let now_cycles () = Int64.of_int (now_int ())

let self () =
  let task = !running in
  if task != dummy_task then task.id else Effect.perform E_outside

(* Cycle attribution. Switching phase closes the task's current interval
   and charges it to the phase it leaves; a pinned phase takes every
   inner enter and leave as a no-op, so its interval covers them. *)
let[@inline] switch_phase task p =
  let cur = task.ph in
  if cur >= 0 && !Varan_obs.Profile.enabled then
    Varan_obs.Profile.charge
      (cur land (Varan_obs.Profile.pin_bit - 1))
      (task.time - task.ph_t0);
  task.ph <- p;
  task.ph_t0 <- task.time

let enter_phase p =
  let task = !running in
  if task == dummy_task then -1
  else begin
    let cur = task.ph in
    if cur < Varan_obs.Profile.pin_bit then switch_phase task p;
    cur
  end

let leave_phase prev =
  let task = !running in
  if task != dummy_task && task.ph <> prev then switch_phase task prev

let spawn_here ?name body =
  let task = !running in
  if task == dummy_task then Effect.perform E_outside
  else if task.killed then raise Killed
  else spawn_internal !running_eng ?name ~at:task.time body

let after_here d f =
  let task = !running in
  if task != dummy_task then begin
    if task.killed then raise Killed;
    arm !running_eng task.time d f
  end
  else if in_timer () then arm (timer_engine ()) !timer_at d f
  else Effect.perform E_outside

let again d =
  if not (in_timer ()) then invalid_arg "Engine.again: outside a timer callback";
  timer_again := maxi d 0

let kill t id = kill_internal t ~at:t.global_time id

let kill_here id =
  let task = !running in
  if task == dummy_task then Effect.perform E_outside
  else begin
    kill_internal !running_eng ~at:task.time id;
    if task.killed then raise Killed
  end

module Cond = struct
  type nonrec cond = cond

  let create name = { c_name = name; c_waiters = Queue.create (); c_nwaiters = 0 }

  let wait c =
    let task = !running in
    if task != dummy_task && task.killed then raise Killed;
    pending_cond := c;
    Effect.perform E_wait

  let wait_timeout c cycles =
    let task = !running in
    if task != dummy_task && task.killed then raise Killed;
    pending_cond := c;
    pending_int := cycles;
    Effect.perform E_wait_timeout

  let signal c =
    let task = !running in
    if task != dummy_task then begin
      if task.killed then raise Killed;
      signal_at !running_eng c task.time
    end
    else if in_timer () then signal_at (timer_engine ()) c !timer_at
    else Effect.perform E_outside

  let broadcast c =
    let task = !running in
    if task != dummy_task then begin
      if task.killed then raise Killed;
      broadcast_at !running_eng c task.time
    end
    else if in_timer () then broadcast_at (timer_engine ()) c !timer_at
    else Effect.perform E_outside

  let waiters c = c.c_nwaiters
  let has_waiters c = c.c_nwaiters > 0

  (* The targeted-wakeup primitive: a no-op (no engine effect at all) when
     nobody is parked, so uncontended publishes and consumes pay nothing.
     Checking [c_nwaiters] outside an effect is sound because tasks are
     cooperative: no waiter can register between this test and the
     broadcast. *)
  let broadcast_if_waiting c = if c.c_nwaiters > 0 then broadcast c

  let _name c = c.c_name
end
