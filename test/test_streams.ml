(* Tests for the shared-memory pool, the Disruptor ring buffer, Lamport
   clocks and the BPF engine (verifier, interpreter, assembler, rules). *)

module E = Varan_sim.Engine
module Pool = Varan_shmem.Pool
module Ring = Varan_ringbuf.Ring
module Event = Varan_ringbuf.Event
module Lamport = Varan_vclock.Lamport
module Bi = Varan_bpf.Insn
module Verifier = Varan_bpf.Verifier
module Interp = Varan_bpf.Interp
module Asm = Varan_bpf.Asm
module Rules = Varan_bpf.Rules

(* --- pool ------------------------------------------------------------ *)

let test_pool_alloc_free () =
  let p = Pool.create () in
  let c = Pool.alloc p 100 in
  Alcotest.(check bool) "chunk live" true c.Pool.live;
  Alcotest.(check bool)
    "bucket rounds up to power of two" true
    (Pool.chunk_capacity p c >= 100);
  Pool.write c (Bytes.of_string "hello");
  Alcotest.(check string)
    "roundtrip" "hello"
    (Bytes.to_string (Pool.read c 5));
  Pool.free p c;
  let s = Pool.stats p in
  Alcotest.(check int) "allocs" 1 s.Pool.allocs;
  Alcotest.(check int) "frees" 1 s.Pool.frees;
  Alcotest.(check int) "no live chunks" 0 s.Pool.live_chunks

let test_pool_reuses_chunks () =
  let p = Pool.create () in
  let c1 = Pool.alloc p 64 in
  let addr = c1.Pool.addr in
  Pool.free p c1;
  let c2 = Pool.alloc p 64 in
  Alcotest.(check int) "free list reuse" addr c2.Pool.addr;
  let s = Pool.stats p in
  Alcotest.(check int) "one segment" 1 s.Pool.segments_in_use

let test_pool_bucket_segregation () =
  let p = Pool.create () in
  let small = Pool.alloc p 64 in
  let big = Pool.alloc p 4096 in
  Alcotest.(check bool)
    "separate buckets" true
    (small.Pool.bucket <> big.Pool.bucket);
  let s = Pool.stats p in
  Alcotest.(check int) "two segments" 2 s.Pool.segments_in_use

let test_pool_double_free_rejected () =
  let p = Pool.create () in
  let c = Pool.alloc p 64 in
  Pool.free p c;
  match Pool.free p c with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected double-free rejection"

let test_pool_exhaustion () =
  let p = Pool.create ~pool_bytes:65536 ~segment_bytes:65536 () in
  (* One segment of 64 KiB split into 1 KiB chunks: 64 allocs succeed. *)
  for _ = 1 to 64 do
    ignore (Pool.alloc p 1024)
  done;
  match Pool.alloc p 1024 with
  | exception Pool.Out_of_memory -> ()
  | _ -> Alcotest.fail "expected Out_of_memory"

let test_pool_oversized_alloc () =
  let p = Pool.create () in
  match Pool.alloc p (1 lsl 30) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_pool_read_into () =
  let p = Pool.create () in
  let c = Pool.alloc p 64 in
  Pool.write c (Bytes.of_string "zero-copy");
  Alcotest.(check bool)
    "size covers the payload (zero-alloc length check)" true (Pool.size c >= 9);
  (* Fill a caller-owned buffer; bytes outside the request are untouched. *)
  let dst = Bytes.make 16 '.' in
  let n = Pool.read_into c dst ~len:9 in
  Alcotest.(check int) "copied the request" 9 n;
  Alcotest.(check string) "contents + untouched tail" "zero-copy......."
    (Bytes.to_string dst);
  (* Offset writes land where asked. *)
  let dst = Bytes.make 8 '.' in
  let n = Pool.read_into c ~pos:4 dst ~len:4 in
  Alcotest.(check int) "partial copy" 4 n;
  Alcotest.(check string) "placed at pos" "....zero" (Bytes.to_string dst);
  (* read_into must match read byte for byte. *)
  let via_read = Pool.read c 9 in
  let via_into = Bytes.create 9 in
  ignore (Pool.read_into c via_into ~len:9);
  Alcotest.(check bool) "read_into == read" true (Bytes.equal via_read via_into);
  (* An over-long request is capped at the chunk's capacity, exactly as
     Pool.read caps its result. *)
  let cap = Pool.size c in
  let big = Bytes.create (cap + 32) in
  Alcotest.(check int)
    "capped at capacity" cap
    (Pool.read_into c big ~len:(cap + 32))

let test_pool_view () =
  let p = Pool.create () in
  let c = Pool.alloc p 64 in
  Pool.write c (Bytes.of_string "borrowed");
  let seen =
    Pool.view c ~len:8 (fun data off len -> Bytes.sub_string data off len)
  in
  Alcotest.(check string) "view sees the bytes" "borrowed" seen;
  (* The view is clamped to the chunk's capacity and floored at zero. *)
  Alcotest.(check int)
    "clamped" (Pool.size c)
    (Pool.view c ~len:(Pool.size c + 100) (fun _ _ n -> n));
  Alcotest.(check int) "floored" 0 (Pool.view c ~len:(-3) (fun _ _ n -> n))

(* --- ring ------------------------------------------------------------- *)

let test_ring_publish_consume () =
  let eng = E.create () in
  let r = Ring.create ~size:8 "test" in
  let got = ref [] in
  let cid = Ring.add_consumer r in
  ignore
    (E.spawn eng ~name:"producer" (fun () ->
         for i = 1 to 20 do
           E.consume 10;
           Ring.publish r i
         done));
  ignore
    (E.spawn eng ~name:"consumer" (fun () ->
         for _ = 1 to 20 do
           got := Ring.consume r cid :: !got
         done));
  E.run eng;
  Alcotest.(check (list int))
    "in order, none lost"
    (List.init 20 (fun i -> i + 1))
    (List.rev !got)

let test_ring_backpressure () =
  (* A slow consumer must stall the producer once the ring fills. *)
  let eng = E.create () in
  let r = Ring.create ~size:4 "bp" in
  let cid = Ring.add_consumer r in
  ignore
    (E.spawn eng ~name:"producer" (fun () ->
         for i = 1 to 12 do
           Ring.publish r i
         done));
  ignore
    (E.spawn eng ~name:"slow-consumer" (fun () ->
         for _ = 1 to 12 do
           E.consume 1_000;
           ignore (Ring.consume r cid)
         done));
  E.run eng;
  let s = Ring.stats r in
  Alcotest.(check bool) "producer stalled" true (s.Ring.producer_stalls > 0);
  Alcotest.(check int) "all consumed" 12 s.Ring.consumes

let test_ring_multiple_consumers_each_get_all () =
  let eng = E.create () in
  let r = Ring.create ~size:16 "multi" in
  let sums = Array.make 3 0 in
  let cids = Array.init 3 (fun _ -> Ring.add_consumer r) in
  Array.iteri
    (fun i cid ->
      ignore
        (E.spawn eng ~name:(Printf.sprintf "consumer%d" i) (fun () ->
             for _ = 1 to 10 do
               sums.(i) <- sums.(i) + Ring.consume r cid
             done)))
    cids;
  ignore
    (E.spawn eng ~name:"producer" (fun () ->
         for v = 1 to 10 do
           E.consume 5;
           Ring.publish r v
         done));
  E.run eng;
  Array.iteri
    (fun i sum -> Alcotest.(check int) (Printf.sprintf "consumer %d" i) 55 sum)
    sums

let test_ring_remove_consumer_unblocks_producer () =
  let eng = E.create () in
  let r = Ring.create ~size:2 "crash" in
  let dead = Ring.add_consumer r in
  let live = Ring.add_consumer r in
  let produced = ref 0 in
  ignore
    (E.spawn eng ~name:"producer" (fun () ->
         for i = 1 to 6 do
           Ring.publish r i;
           produced := i
         done));
  ignore
    (E.spawn eng ~name:"live-consumer" (fun () ->
         for _ = 1 to 6 do
           ignore (Ring.consume r live)
         done));
  (* The dead consumer never reads; unsubscribe it shortly after start,
     as the coordinator does when a follower crashes. *)
  ignore
    (E.spawn eng ~name:"coordinator" (fun () ->
         E.consume 100;
         Ring.remove_consumer r dead));
  E.run eng;
  Alcotest.(check int) "producer finished" 6 !produced

let test_ring_lag () =
  let eng = E.create () in
  let r = Ring.create ~size:64 "lag" in
  let cid = Ring.add_consumer r in
  ignore
    (E.spawn eng (fun () ->
         for i = 1 to 10 do
           Ring.publish r i
         done;
         Alcotest.(check int) "lag after 10 publishes" 10 (Ring.lag r cid);
         ignore (Ring.consume r cid);
         ignore (Ring.consume r cid);
         Alcotest.(check int) "lag after 2 consumes" 8 (Ring.lag r cid)));
  E.run eng

let test_ring_try_variants () =
  let eng = E.create () in
  let r = Ring.create ~size:2 "try" in
  let cid = Ring.add_consumer r in
  ignore
    (E.spawn eng (fun () ->
         Alcotest.(check bool) "consume on empty" true (Ring.try_consume r cid = None);
         Alcotest.(check bool) "publish ok" true (Ring.try_publish r 1);
         Alcotest.(check bool) "publish ok" true (Ring.try_publish r 2);
         Alcotest.(check bool) "publish full" false (Ring.try_publish r 3);
         Alcotest.(check bool) "peek" true (Ring.peek r cid = Some 1);
         Alcotest.(check bool) "consume" true (Ring.try_consume r cid = Some 1);
         Alcotest.(check bool) "now room" true (Ring.try_publish r 3)));
  E.run eng

let test_ring_try_publish_stalled_consumer () =
  let eng = E.create () in
  let r = Ring.create ~size:4 "stalled" in
  let stalled = Ring.add_consumer r in
  let live = Ring.add_consumer r in
  ignore
    (E.spawn eng (fun () ->
         for i = 1 to 4 do
           Alcotest.(check bool) "room" true (Ring.try_publish r i)
         done;
         Alcotest.(check bool) "full" false (Ring.try_publish r 5);
         (* The live consumer drains, but the stalled cursor still pins
            every slot: the publisher must keep failing. *)
         for i = 1 to 4 do
           Alcotest.(check bool) "live reads" true
             (Ring.try_consume r live = Some i)
         done;
         Alcotest.(check bool) "still full" false (Ring.try_publish r 5);
         Alcotest.(check int) "stalled lag" 4 (Ring.lag r stalled);
         Alcotest.(check (list int))
           "unread preserved" [ 1; 2; 3; 4 ] (Ring.unread r stalled);
         (* Removing the stalled consumer frees all its slots at once —
            the publisher wraps the ring twice more without blocking. *)
         Ring.remove_consumer r stalled;
         for i = 5 to 12 do
           Alcotest.(check bool) "room again" true (Ring.try_publish r i);
           Alcotest.(check bool) "live reads on" true
             (Ring.try_consume r live = Some i)
         done;
         Alcotest.(check int) "published" 12 (Ring.published r)));
  E.run eng

let test_ring_wraparound_cursor_accounting () =
  let eng = E.create () in
  let r = Ring.create ~size:4 "wrap" in
  let cid = Ring.add_consumer r in
  ignore
    (E.spawn eng (fun () ->
         (* Two full revolutions with interleaved reads: cursors are
            absolute sequence numbers, not slot indices. *)
         for i = 0 to 7 do
           Alcotest.(check bool) "publish" true (Ring.try_publish r i);
           Alcotest.(check int) "cursor trails head" i (Ring.cursor r cid);
           Alcotest.(check bool) "read back" true
             (Ring.try_consume r cid = Some i)
         done;
         Alcotest.(check int) "cursor caught up" 8 (Ring.cursor r cid);
         Alcotest.(check bool) "empty" true (Ring.try_consume r cid = None)));
  E.run eng

(* --- batched publish/consume ------------------------------------------ *)

module Prng = Varan_util.Prng
module Programs = Varan_torture.Programs
module Oracle = Varan_trace.Oracle

(* Seeded event-stream generator built on the torture suite's op
   generator: each op becomes one stream event whose registers, result
   and inline payload are drawn from the same PRNG, with the oracle's
   clock = seq + 1 convention. *)
let gen_events prng n =
  let ops = Array.of_list (Programs.gen_ops prng n) in
  Array.mapi
    (fun i op ->
      let sysno = Hashtbl.hash op land 0xff in
      let nargs = Prng.int prng 4 in
      let args = Array.init nargs (fun _ -> Prng.int prng 1000) in
      let inline_out =
        if Prng.bool prng then
          Some
            (Bytes.init (1 + Prng.int prng 16) (fun _ ->
                 Char.chr (Prng.int prng 256)))
        else None
      in
      Event.make ~tid:0 ~args ~ret:(Prng.int prng 4096) ?inline_out
        ~clock:(i + 1) sysno)
    ops

(* Run [events] through a fresh ring with [nconsumers] consumers, using
   the given publish and consume strategies; returns what each consumer
   saw plus the oracle's report. *)
let run_stream ~events ~nconsumers ~publisher ~consumer =
  let eng = E.create () in
  let ring = Ring.create ~size:32 "prop" in
  let oracle = Oracle.create () in
  Oracle.attach_ring oracle ~tuple:0 ring;
  let seen = Array.make nconsumers [] in
  let handles = Array.init nconsumers (fun _ -> Ring.subscribe ring) in
  Array.iteri
    (fun i h ->
      ignore
        (E.spawn eng ~name:(Printf.sprintf "consumer%d" i) (fun () ->
             consumer h (Array.length events) (fun e ->
                 seen.(i) <- e :: seen.(i)))))
    handles;
  ignore (E.spawn eng ~name:"producer" (fun () -> publisher ring events));
  E.run eng;
  (Array.map List.rev seen, Oracle.report oracle)

let one_at_a_time_publisher ring events =
  Array.iter
    (fun e ->
      E.consume 3;
      Ring.publish ring e)
    events

let one_at_a_time_consumer h total push =
  for _ = 1 to total do
    push (Ring.consume_h h)
  done

let batched_publisher ~chunk ring events =
  let n = Array.length events in
  let i = ref 0 in
  while !i < n do
    let take = min chunk (n - !i) in
    E.consume 3;
    Ring.publish_batch ring (Array.sub events !i take);
    i := !i + take
  done

let batched_consumer ~max h total push =
  let left = ref total in
  while !left > 0 do
    let batch = Ring.consume_batch_h h ~max in
    List.iter push batch;
    left := !left - List.length batch
  done

(* The tentpole equivalence: batched publish/consume must be
   indistinguishable from the one-at-a-time path — same events in the
   same order at every consumer, and an identical oracle report
   (per-tuple structural digests included) — across 200 seeds. *)
let test_batched_equals_unbatched () =
  for seed = 0 to 199 do
    let prng = Prng.create seed in
    let n = 1 + Prng.int prng 60 in
    let events = gen_events prng n in
    let nconsumers = 1 + Prng.int prng 3 in
    let chunk = 1 + Prng.int prng 8 in
    let max = 1 + Prng.int prng 64 in
    let ref_seen, ref_report =
      run_stream ~events ~nconsumers ~publisher:one_at_a_time_publisher
        ~consumer:one_at_a_time_consumer
    in
    let got_seen, got_report =
      run_stream ~events ~nconsumers
        ~publisher:(batched_publisher ~chunk)
        ~consumer:(batched_consumer ~max)
    in
    if not (Oracle.ok ref_report) then
      Alcotest.failf "seed %d: reference oracle unclean" seed;
    if not (Oracle.ok got_report) then
      Alcotest.failf "seed %d: batched oracle unclean" seed;
    for i = 0 to nconsumers - 1 do
      if ref_seen.(i) <> got_seen.(i) then
        Alcotest.failf "seed %d: consumer %d saw a different sequence" seed i
    done;
    if ref_report.Oracle.digests <> got_report.Oracle.digests then
      Alcotest.failf "seed %d: oracle stream digests differ" seed
  done

let test_batch_wraparound () =
  let eng = E.create () in
  let r = Ring.create ~size:4 "batch-wrap" in
  let c = Ring.subscribe r in
  let got = ref [] in
  (* 3 batches of 10 over a 4-slot ring: every batch spans at least one
     wraparound and is split into gate-limited runs internally. *)
  ignore
    (E.spawn eng ~name:"producer" (fun () ->
         for b = 0 to 2 do
           Ring.publish_batch r (Array.init 10 (fun i -> (b * 10) + i))
         done));
  ignore
    (E.spawn eng ~name:"consumer" (fun () ->
         let left = ref 30 in
         while !left > 0 do
           E.consume 7;
           let batch = Ring.consume_batch_h c ~max:3 in
           List.iter (fun v -> got := v :: !got) batch;
           left := !left - List.length batch
         done));
  E.run eng;
  Alcotest.(check (list int))
    "in order across wraps"
    (List.init 30 Fun.id)
    (List.rev !got);
  let s = Ring.stats r in
  Alcotest.(check int) "all published" 30 s.Ring.publishes;
  Alcotest.(check int) "all consumed" 30 s.Ring.consumes

let test_batch_consumer_removed_mid_stream () =
  let eng = E.create () in
  let r = Ring.create ~size:4 "batch-crash" in
  let dead = Ring.subscribe r in
  let live = Ring.subscribe r in
  let got = ref [] in
  (* The dead consumer reads one batch and stops; its cursor pins the
     ring until the coordinator removes it, after which the batched
     publisher must finish all 12 events for the live consumer. *)
  ignore
    (E.spawn eng ~name:"dead" (fun () ->
         ignore (Ring.consume_batch_h dead ~max:2)));
  ignore
    (E.spawn eng ~name:"live" (fun () ->
         let left = ref 12 in
         while !left > 0 do
           E.consume 5;
           let batch = Ring.consume_batch_h live ~max:4 in
           List.iter (fun v -> got := v :: !got) batch;
           left := !left - List.length batch
         done));
  ignore
    (E.spawn eng ~name:"producer" (fun () ->
         Ring.publish_batch r (Array.init 12 Fun.id)));
  ignore
    (E.spawn eng ~name:"coordinator" (fun () ->
         E.consume 1_000;
         Ring.unsubscribe dead));
  E.run eng;
  Alcotest.(check (list int))
    "live consumer got everything"
    (List.init 12 Fun.id)
    (List.rev !got);
  Alcotest.(check int) "only the live consumer remains" 1
    (Ring.active_consumers r)

let test_uncontended_ring_takes_no_wakeups () =
  let eng = E.create () in
  let r = Ring.create ~size:16 "quiet" in
  let c = Ring.subscribe r in
  (* A strictly alternating publish/consume in one task never parks, so
     the targeted-wakeup policy must never pay a broadcast. *)
  ignore
    (E.spawn eng (fun () ->
         for i = 1 to 50 do
           Ring.publish r i;
           Alcotest.(check (option int)) "read back" (Some i)
             (Ring.try_consume_h c)
         done));
  E.run eng;
  let s = Ring.stats r in
  Alcotest.(check int) "no publish wakeups" 0 s.Ring.publish_wakeups;
  Alcotest.(check int) "no consume wakeups" 0 s.Ring.consume_wakeups;
  Alcotest.(check int) "no stalls" 0
    (s.Ring.producer_stalls + s.Ring.consumer_stalls)

(* --- events ----------------------------------------------------------- *)

let test_event_sizing () =
  Alcotest.(check int) "cache line" 64 Event.event_bytes;
  let e = Event.make ~clock:1 ~args:[| 1; 2; 3 |] 42 in
  Alcotest.(check bool) "fits inline" true (Event.fits_inline e);
  match Event.make ~clock:1 ~args:(Array.make 7 0) 42 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "seven args must be rejected"

(* --- follower streams (tape catch-up spliced onto a live ring) ------- *)

module Stream = Varan_nvx.Stream
module Tape = Varan_nvx.Tape

(* The leader's event at global sequence [seq] carries [seq] as its clock
   and result, so a reader can tell exactly which event it got. *)
let seq_event seq = Event.make ~clock:seq ~ret:seq 0

(* Publish global sequence [seq] into the leader's ring and tape. *)
let leader_publish ring tape seq =
  let e = seq_event seq in
  Ring.publish ring e;
  Tape.append tape e ~out:None

(* Read [s] until it runs dry, checking at every step that the event is
   the next global sequence and that [Stream.position] names it; returns
   the sequences read and the one after which the catch-up spliced. *)
let drain_stream s =
  let got = ref [] and spliced_after = ref (-1) in
  let rec go () =
    match Stream.peek s ~tid:0 with
    | None -> ()
    | Some e ->
      Alcotest.(check int)
        (Printf.sprintf "position names event %d" e.Event.ret)
        e.Event.ret (Stream.position s);
      got := e.Event.ret :: !got;
      if Stream.advance s ~tid:0 then spliced_after := e.Event.ret;
      go ()
  in
  go ();
  (List.rev !got, !spliced_after)

(* Run [f] as an engine task (ring wakeups need one) and re-raise what
   it raised, so a failed check fails the test instead of the task. *)
let in_task f =
  let eng = E.create () in
  let outcome = ref (Error Exit) in
  ignore
    (E.spawn eng ~name:"stream-test" (fun () ->
         outcome := try Ok (f ()) with exn -> Error exn));
  E.run eng;
  match !outcome with Ok () -> () | Error exn -> raise exn

let test_stream_local_splice () =
  in_task (fun () ->
      let ring = Ring.create ~size:256 "ring0" and tape = Tape.create () in
      for seq = 0 to 39 do
        leader_publish ring tape seq
      done;
      (* A respawned follower subscribes at the head and replays the
         recorded prefix from sequence 10 (its checkpoint) first. *)
      let s = Stream.subscribe ~tape ring in
      Alcotest.(check int) "subscribes at the head" 40 (Stream.position s);
      Stream.catch_up s ~from:10;
      Alcotest.(check bool) "catching up" true (Stream.in_catchup s);
      Alcotest.(check int) "catch-up starts at the checkpoint" 10
        (Stream.position s);
      for seq = 40 to 59 do
        leader_publish ring tape seq
      done;
      Alcotest.(check int) "lag spans tape and ring" 50 (Stream.lag s);
      let got, spliced_after = drain_stream s in
      Alcotest.(check (list int))
        "no gap, no duplicate at the splice"
        (List.init 50 (fun i -> 10 + i))
        got;
      Alcotest.(check int) "splices after the recorded prefix" 39
        spliced_after;
      Alcotest.(check bool) "live after the splice" false
        (Stream.in_catchup s);
      Alcotest.(check int) "position after the last event" 60
        (Stream.position s);
      leader_publish ring tape 60;
      let got, _ = drain_stream s in
      Alcotest.(check (list int)) "keeps reading live" [ 60 ] got)

let test_stream_remote_mirror_splice () =
  in_task (fun () ->
      let ring = Ring.create ~size:256 "ring0" and tape = Tape.create () in
      (* The bridge ships the local ring into the mirror; its own consumer
         on the local ring is all that [ship] needs. *)
      let shipper = Ring.subscribe ring in
      for seq = 0 to 29 do
        leader_publish ring tape seq
      done;
      ignore (Ring.consume_batch_h shipper ~max:30);
      (* A healed partition re-attaches a fresh mirror at the local head:
         its sequence 0 is global sequence 30. *)
      let base = 30 in
      let mirror = Ring.create ~size:256 "mirror1" in
      let ship n =
        List.iter (Ring.publish mirror) (Ring.consume_batch_h shipper ~max:n)
      in
      for seq = 30 to 49 do
        leader_publish ring tape seq
      done;
      ship 10;
      let s = Stream.subscribe ~tape ~base ~upstream:ring mirror in
      Alcotest.(check bool) "a mirror reader is remote" true (Stream.remote s);
      Alcotest.(check int) "subscribes at the mirror head, globally" 40
        (Stream.position s);
      Stream.catch_up s ~from:25;
      ship 10;
      let got, spliced_after = drain_stream s in
      Alcotest.(check (list int))
        "no gap, no duplicate at the splice"
        (List.init 25 (fun i -> 25 + i))
        got;
      Alcotest.(check int) "splices after the recorded prefix" 39
        spliced_after;
      Alcotest.(check int) "position in global coordinates" 50
        (Stream.position s);
      (* Events the link has not delivered are backlog, not consumable. *)
      for seq = 50 to 54 do
        leader_publish ring tape seq
      done;
      Alcotest.(check int) "nothing consumable yet" 0 (Stream.lag s);
      Alcotest.(check int) "upstream backlog counted" 5 (Stream.total_lag s);
      ship 5;
      let got, _ = drain_stream s in
      Alcotest.(check (list int)) "live after the link delivers"
        [ 50; 51; 52; 53; 54 ] got)

(* Expect test for the failure-dump rendering: tid, register args, the
   escaped inline payload and the grant marker must all be visible. *)
let test_event_pp_full_dump () =
  let e =
    Event.make ~tid:3 ~args:[| 1; 2 |] ~ret:7
      ~inline_out:(Bytes.of_string "hi\001") ~clock:5 42
  in
  Alcotest.(check string)
    "syscall with inline payload"
    "[syscall nr=42 tid=3 clk=5 args=(1,2) ret=7 out=\"hi\\x01\"(3B)]"
    (Format.asprintf "%a" Event.pp e);
  let long =
    Event.make ~tid:1 ~ret:20
      ~inline_out:(Bytes.of_string "aaaaaaaaaaaaaaaaaaaa") ~clock:9 0
  in
  Alcotest.(check string)
    "long payloads are previewed"
    "[syscall nr=0 tid=1 clk=9 ret=20 out=\"aaaaaaaaaaaaaaaa..\"(20B)]"
    (Format.asprintf "%a" Event.pp long);
  let g = Event.make ~kind:Event.Ev_fork ~tid:2 ~args:[| 4 |] ~ret:99
      ~grant:(Obj.repr 17) ~clock:3 57
  in
  Alcotest.(check string)
    "fork with grant marker"
    "[fork nr=57 tid=2 clk=3 args=(4) ret=99 grant]"
    (Format.asprintf "%a" Event.pp g)

(* --- lamport ----------------------------------------------------------- *)

let test_lamport_leader_follower () =
  let leader = Lamport.create () in
  let follower = Lamport.create () in
  let s1 = Lamport.tick leader in
  let s2 = Lamport.tick leader in
  Alcotest.(check (list int)) "timestamps" [ 1; 2 ] [ s1; s2 ];
  (* Follower must take s1 before s2. *)
  Alcotest.(check bool) "s2 too early" false (Lamport.try_advance follower s2);
  Alcotest.(check bool) "s1 ok" true (Lamport.try_advance follower s1);
  Alcotest.(check bool) "s2 now ok" true (Lamport.try_advance follower s2);
  Alcotest.(check bool) "replay rejected" false (Lamport.try_advance follower s2)

let test_lamport_force_on_promotion () =
  let c = Lamport.create () in
  Lamport.force c 41;
  Alcotest.(check int) "adopted position" 42 (Lamport.tick c)

(* --- bpf --------------------------------------------------------------- *)

let test_verifier_accepts_listing1 () =
  match Asm.assemble Rules.listing1 with
  | Ok prog -> (
    match Verifier.verify prog with
    | Ok () -> ()
    | Error m -> Alcotest.failf "verifier rejected listing1: %s" m)
  | Error m -> Alcotest.failf "assembly failed: %s" m

let test_verifier_rejects_empty_and_endless () =
  (match Verifier.verify [||] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty accepted");
  match Verifier.verify [| Bi.Ld_imm 1 |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "no-ret accepted"

let test_verifier_rejects_out_of_range_jump () =
  let prog = [| Bi.Jeq (1, 5, 0); Bi.Ret_k 0 |] in
  match Verifier.verify prog with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-range jump accepted"

let test_interp_arithmetic () =
  let prog =
    [| Bi.Ld_imm 40; Bi.Ldx_imm 2; Bi.Alu_add Bi.X; Bi.Ret_a |]
  in
  let out =
    Interp.run prog ~data:{ Interp.nr = 0; args = [||] } ~event:Interp.no_event
  in
  Alcotest.(check int) "40+2" 42 out.Interp.action;
  Alcotest.(check int) "steps" 4 out.Interp.steps

let test_interp_listing1_semantics () =
  let prog = Asm.assemble_exn Rules.listing1 in
  let run ~leader_nr ~follower_nr =
    (Interp.run prog
       ~data:{ Interp.nr = follower_nr; args = [||] }
       ~event:{ Interp.ev_nr = leader_nr; ev_ret = 0; ev_args = [||] })
      .Interp.action
  in
  (* Leader at getegid (108), follower inserting getuid (102): allowed. *)
  Alcotest.(check int) "getuid insertion" Bi.ret_allow
    (run ~leader_nr:108 ~follower_nr:102);
  (* Leader at open (2), follower inserting getgid (104): allowed. *)
  Alcotest.(check int) "getgid insertion" Bi.ret_allow
    (run ~leader_nr:2 ~follower_nr:104);
  (* Unknown leader event: killed. *)
  Alcotest.(check int) "unknown divergence" Bi.ret_kill
    (run ~leader_nr:1 ~follower_nr:102);
  (* The published filter falls through from the getegid check into the
     open check, so leader=getegid with follower=getgid is also allowed —
     the paper notes one could write a tighter filter using more context. *)
  Alcotest.(check int) "fall-through of the published filter" Bi.ret_allow
    (run ~leader_nr:108 ~follower_nr:104);
  Alcotest.(check int) "genuinely wrong follower call" Bi.ret_kill
    (run ~leader_nr:108 ~follower_nr:7)

let test_asm_errors () =
  (match Asm.assemble "frobnicate #1\nret #0" with
  | Error m ->
    Alcotest.(check bool) "line number" true (String.length m > 0)
  | Ok _ -> Alcotest.fail "unknown mnemonic accepted");
  match Asm.assemble "start: jmp start\nret #0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "backward jump accepted"

let test_rules_added () =
  let prog =
    Rules.allow_added_syscalls ~expected_leader:[ 108; 2 ] ~added:[ 102; 104 ]
  in
  let run leader follower =
    Rules.verdict_of_action
      (Interp.run prog
         ~data:{ Interp.nr = follower; args = [||] }
         ~event:{ Interp.ev_nr = leader; ev_ret = 0; ev_args = [||] })
        .Interp.action
  in
  Alcotest.(check bool) "insertion ok" true
    (run 108 102 = Rules.Execute_follower_call);
  Alcotest.(check bool) "insertion ok 2" true
    (run 2 104 = Rules.Execute_follower_call);
  Alcotest.(check bool) "kill otherwise" true (run 3 102 = Rules.Kill)

let test_rules_removed () =
  let prog = Rules.allow_removed_syscalls ~removed:[ 72 ] in
  let run leader =
    Rules.verdict_of_action
      (Interp.run prog
         ~data:{ Interp.nr = 0; args = [||] }
         ~event:{ Interp.ev_nr = leader; ev_ret = 0; ev_args = [||] })
        .Interp.action
  in
  Alcotest.(check bool) "fcntl removable" true (run 72 = Rules.Skip_leader_event);
  Alcotest.(check bool) "others kill" true (run 1 = Rules.Kill)

let test_rules_combine () =
  let a = Rules.allow_added_syscalls ~expected_leader:[ 108 ] ~added:[ 102 ] in
  let b = Rules.allow_removed_syscalls ~removed:[ 72 ] in
  let prog = Rules.combine a b in
  let run leader follower =
    Rules.verdict_of_action
      (Interp.run prog
         ~data:{ Interp.nr = follower; args = [||] }
         ~event:{ Interp.ev_nr = leader; ev_ret = 0; ev_args = [||] })
        .Interp.action
  in
  Alcotest.(check bool) "rule a fires" true
    (run 108 102 = Rules.Execute_follower_call);
  Alcotest.(check bool) "rule b fires" true (run 72 999 = Rules.Skip_leader_event);
  Alcotest.(check bool) "both miss" true (run 5 5 = Rules.Kill)

let test_codec_roundtrip_listing1 () =
  let prog = Asm.assemble_exn Rules.listing1 in
  let image = Varan_bpf.Codec.encode_program prog in
  Alcotest.(check int) "8 bytes per insn" (8 * Array.length prog)
    (Bytes.length image);
  match Varan_bpf.Codec.decode_program image with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok prog' ->
    Alcotest.(check bool) "roundtrip" true (prog = prog')

let test_codec_rejects_garbage () =
  (match Varan_bpf.Codec.decode_program (Bytes.make 7 '\xff') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "odd size accepted");
  match Varan_bpf.Codec.decode_program (Bytes.make 8 '\xff') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage opcode accepted"

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"sock_filter codec roundtrip" ~count:200
    QCheck.(pair (int_bound 200) (int_bound 200))
    (fun (a, b) ->
      let prog =
        Rules.combine
          (Rules.allow_added_syscalls ~expected_leader:[ a + 1 ] ~added:[ b + 1 ])
          (Rules.allow_removed_syscalls ~removed:[ a + b + 2 ])
      in
      match Varan_bpf.Codec.decode_program (Varan_bpf.Codec.encode_program prog) with
      | Ok prog' -> prog = prog'
      | Error _ -> false)

(* --- bpf compiler ------------------------------------------------------ *)

(* Random programs that pass the verifier by construction: straight-line
   loads/ALU ops with forward-only in-range jumps, ending in Ret. *)
let gen_verified_program prng =
  let n = 2 + Prng.int prng 30 in
  Array.init n (fun i ->
      let room = n - i - 2 in
      (* insns after pc+1 a jump may skip *)
      if i = n - 1 then
        if Prng.bool prng then Bi.Ret_a else Bi.Ret_k (Prng.int prng 4096)
      else begin
        let src () = if Prng.bool prng then Bi.K (Prng.int prng 64) else Bi.X in
        let jump mk =
          let t = if room > 0 then Prng.int prng (room + 1) else 0 in
          let f = if room > 0 then Prng.int prng (room + 1) else 0 in
          mk (Prng.int prng 256, t, f)
        in
        match Prng.int prng 15 with
        | 0 -> Bi.Ld_imm (Prng.int prng 4096)
        | 1 ->
          (* nr, a valid arg offset, or garbage the decoder zero-fills *)
          Bi.Ld_abs (Prng.choose prng [| 0; 16; 24; 32; 21; 7 |])
        | 2 -> Bi.Ld_event (Prng.int prng 10)
        | 3 -> Bi.Ldx_imm (Prng.int prng 4096)
        | 4 -> Bi.Tax
        | 5 -> Bi.Txa
        | 6 -> Bi.Alu_add (src ())
        | 7 -> Bi.Alu_sub (src ())
        | 8 -> Bi.Alu_mul (src ())
        | 9 -> Bi.Alu_and (src ())
        | 10 -> Bi.Alu_or (src ())
        | 11 -> Bi.Alu_lsh (Bi.K (Prng.int prng 8))
        | 12 -> Bi.Alu_rsh (Bi.K (Prng.int prng 8))
        | 13 -> jump (fun (k, t, f) -> Bi.Jeq (k, t, f))
        | _ -> (
          match Prng.int prng 4 with
          | 0 -> jump (fun (k, t, f) -> Bi.Jgt (k, t, f))
          | 1 -> jump (fun (k, t, f) -> Bi.Jge (k, t, f))
          | 2 -> jump (fun (k, t, f) -> Bi.Jset (k, t, f))
          | _ -> Bi.Ja (if room > 0 then Prng.int prng (room + 1) else 0))
      end)

let gen_interp_inputs prng =
  let data =
    {
      Interp.nr = Prng.int prng 256;
      args = Array.init (Prng.int prng 7) (fun _ -> Prng.int prng 10_000);
    }
  in
  let event =
    {
      Interp.ev_nr = Prng.int prng 256;
      ev_ret = Prng.int prng 10_000 - 5000;
      ev_args = Array.init (Prng.int prng 7) (fun _ -> Prng.int prng 10_000);
    }
  in
  (data, event)

(* The compiled closure is the reference interpreter exactly: same
   action, same step count, over random verified programs (plus the
   generated rewrite rules) and random inputs — 200 seeds. *)
let test_compile_matches_interp () =
  for seed = 0 to 199 do
    let prng = Prng.create (0x5eed + seed) in
    let progs =
      [
        gen_verified_program prng;
        gen_verified_program prng;
        Rules.combine
          (Rules.allow_added_syscalls
             ~expected_leader:[ 1 + Prng.int prng 200 ]
             ~added:[ 1 + Prng.int prng 200 ])
          (Rules.allow_removed_syscalls ~removed:[ 1 + Prng.int prng 200 ]);
      ]
    in
    List.iter
      (fun prog ->
        (match Verifier.verify prog with
        | Ok () -> ()
        | Error m -> Alcotest.failf "seed %d: generator broke: %s" seed m);
        let compiled = Interp.compile prog in
        for _ = 1 to 5 do
          let data, event = gen_interp_inputs prng in
          let reference = Interp.run prog ~data ~event in
          let got = Interp.run_compiled compiled ~data ~event in
          if got.Interp.action <> reference.Interp.action then
            Alcotest.failf "seed %d: action %d <> %d" seed got.Interp.action
              reference.Interp.action;
          if got.Interp.steps <> reference.Interp.steps then
            Alcotest.failf "seed %d: steps %d <> %d" seed got.Interp.steps
              reference.Interp.steps
        done)
      progs
  done

let test_compile_rejects_unverified () =
  match Sys.opaque_identity (Interp.compile [| Bi.Ld_imm 1 |]) with
  | exception Interp.Not_verified _ -> ()
  | (_ : Interp.ctx -> Interp.outcome) ->
    Alcotest.fail "expected Not_verified"

(* Property: generated addition rules never allow an un-listed call. *)
let prop_added_rules_sound =
  QCheck.Test.make ~name:"addition rules are sound" ~count:300
    QCheck.(triple (int_bound 200) (int_bound 200) (int_bound 1000))
    (fun (leader, follower, salt) ->
      let expected = [ 10 + (salt mod 5); 50 ] in
      let added = [ 100; 101 ] in
      let prog =
        Rules.allow_added_syscalls ~expected_leader:expected ~added
      in
      let out =
        Interp.run prog
          ~data:{ Interp.nr = follower; args = [||] }
          ~event:{ Interp.ev_nr = leader; ev_ret = 0; ev_args = [||] }
      in
      let allowed = out.Interp.action = Bi.ret_allow in
      let should_allow = List.mem leader expected && List.mem follower added in
      allowed = should_allow)

let () =
  Alcotest.run "varan_streams"
    [
      ( "pool",
        [
          Alcotest.test_case "alloc/free" `Quick test_pool_alloc_free;
          Alcotest.test_case "chunk reuse" `Quick test_pool_reuses_chunks;
          Alcotest.test_case "bucket segregation" `Quick
            test_pool_bucket_segregation;
          Alcotest.test_case "double free" `Quick test_pool_double_free_rejected;
          Alcotest.test_case "exhaustion" `Quick test_pool_exhaustion;
          Alcotest.test_case "oversized" `Quick test_pool_oversized_alloc;
          Alcotest.test_case "read_into" `Quick test_pool_read_into;
          Alcotest.test_case "view" `Quick test_pool_view;
        ] );
      ( "ring",
        [
          Alcotest.test_case "publish/consume" `Quick test_ring_publish_consume;
          Alcotest.test_case "backpressure" `Quick test_ring_backpressure;
          Alcotest.test_case "multiple consumers" `Quick
            test_ring_multiple_consumers_each_get_all;
          Alcotest.test_case "remove consumer" `Quick
            test_ring_remove_consumer_unblocks_producer;
          Alcotest.test_case "lag" `Quick test_ring_lag;
          Alcotest.test_case "try variants" `Quick test_ring_try_variants;
          Alcotest.test_case "try_publish vs stalled consumer" `Quick
            test_ring_try_publish_stalled_consumer;
          Alcotest.test_case "wraparound cursor accounting" `Quick
            test_ring_wraparound_cursor_accounting;
          Alcotest.test_case "event sizing" `Quick test_event_sizing;
          Alcotest.test_case "event pp full dump" `Quick
            test_event_pp_full_dump;
        ] );
      ( "stream",
        [
          Alcotest.test_case "local tape-to-ring splice" `Quick
            test_stream_local_splice;
          Alcotest.test_case "remote splice onto a re-attached mirror" `Quick
            test_stream_remote_mirror_splice;
        ] );
      ( "batch",
        [
          Alcotest.test_case "batched == unbatched (200 seeds)" `Quick
            test_batched_equals_unbatched;
          Alcotest.test_case "batch wraparound" `Quick test_batch_wraparound;
          Alcotest.test_case "consumer removed mid-stream" `Quick
            test_batch_consumer_removed_mid_stream;
          Alcotest.test_case "uncontended ring takes no wakeups" `Quick
            test_uncontended_ring_takes_no_wakeups;
        ] );
      ( "lamport",
        [
          Alcotest.test_case "leader/follower ordering" `Quick
            test_lamport_leader_follower;
          Alcotest.test_case "force on promotion" `Quick
            test_lamport_force_on_promotion;
        ] );
      ( "bpf",
        [
          Alcotest.test_case "verifier accepts listing1" `Quick
            test_verifier_accepts_listing1;
          Alcotest.test_case "verifier rejects bad" `Quick
            test_verifier_rejects_empty_and_endless;
          Alcotest.test_case "verifier rejects wild jump" `Quick
            test_verifier_rejects_out_of_range_jump;
          Alcotest.test_case "interp arithmetic" `Quick test_interp_arithmetic;
          Alcotest.test_case "listing1 semantics" `Quick
            test_interp_listing1_semantics;
          Alcotest.test_case "assembler errors" `Quick test_asm_errors;
          Alcotest.test_case "addition rules" `Quick test_rules_added;
          Alcotest.test_case "removal rules" `Quick test_rules_removed;
          Alcotest.test_case "combine rules" `Quick test_rules_combine;
          QCheck_alcotest.to_alcotest prop_added_rules_sound;
          Alcotest.test_case "compile == interp (200 seeds)" `Quick
            test_compile_matches_interp;
          Alcotest.test_case "compile rejects unverified" `Quick
            test_compile_rejects_unverified;
          Alcotest.test_case "codec roundtrip listing1" `Quick
            test_codec_roundtrip_listing1;
          Alcotest.test_case "codec rejects garbage" `Quick
            test_codec_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
        ] );
    ]
