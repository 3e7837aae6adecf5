(* Tests for the utility layer: PRNG determinism and distribution, the
   statistics helpers, table rendering, the byte queue and the framed
   message protocol. *)

module Prng = Varan_util.Prng
module Stats = Varan_util.Stats
module Tablefmt = Varan_util.Tablefmt
module Bytequeue = Varan_kernel.Bytequeue

(* --- prng ------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 a = Prng.next_int64 b then incr same
  done;
  Alcotest.(check int) "streams differ" 0 !same

let test_prng_split_independent () =
  let g = Prng.create 7 in
  let g1 = Prng.split g in
  let g2 = Prng.split g in
  Alcotest.(check bool) "split streams differ" false
    (Prng.next_int64 g1 = Prng.next_int64 g2)

(* The first outputs of each draw, pinned for a few seeds: the SplitMix64
   stream itself, not just two generators agreeing with each other. Seed
   0's first [next_int64] is SplitMix64's published 0xE220A8397B1DCDAF.
   Each row: seed, three [next_int64], three [int _ 1000], two
   [float _ 1.0], eight [bool] as 0/1, two [exponential _ 10.0], and a
   [split]'s first output with the parent's next one after it. Every
   column draws from a fresh [create seed]. *)
let prng_golden =
  [
    ( 0,
      [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L ],
      [ 823; 796; 679 ],
      [ 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2 ],
      "10101010",
      [ 0x1.3da3db16a4528p+0; 0x1.0cef7164b212p+3 ],
      (-6411193824288604561L, 7960286522194355700L) );
    ( 1,
      [ -7995527694508729151L; -4689498862643123097L; -534904783426661026L ],
      [ 657; 711; 878 ],
      [ 0x1.22145bd91204bp-1; 0x1.7dd71b42cb1ddp-1 ],
      "11011011",
      [ 0x1.6ba0e4803387fp+2; 0x1.7773d796b4144p+1 ],
      (6791897765849424158L, -4689498862643123097L) );
    ( -1,
      [ -1956407806741107680L; -1612297016619662647L; 4048727598324417001L ],
      [ 224; 257; 1 ],
      [ 0x1.c9b2e2ee36ca5p-1; 0x1.d33ff0cfb7edp-1 ],
      "01100110",
      [ 0x1.1f029b7730bdfp+0; 0x1.d44755e7241f8p-1 ],
      (6755974106381971767L, -1612297016619662647L) );
    ( 424242,
      [ -4010013233811074325L; -4948147101084267366L; 3817912305944005771L ],
      [ 579; 442; 771 ],
      [ 0x1.90b3246b6c26ap-1; 0x1.76a94cdb1efc9p-1 ],
      "10111011",
      [ 0x1.39be5b1f2610bp+1; 0x1.8fbf2972f7a63p+1 ],
      (526600513236330320L, -4948147101084267366L) );
  ]

let test_prng_golden_vectors () =
  let open Alcotest in
  List.iter
    (fun (seed, i64s, ints, floats, bools, exps, (child, parent)) ->
      let fresh () = Prng.create seed in
      let draws n f =
        let g = fresh () in
        List.init n (fun _ -> f g)
      in
      let name what = Printf.sprintf "seed %d %s" seed what in
      check (list int64) (name "next_int64") i64s (draws 3 Prng.next_int64);
      check (list int) (name "int") ints (draws 3 (fun g -> Prng.int g 1000));
      check (list (float 0.0)) (name "float") floats
        (draws 2 (fun g -> Prng.float g 1.0));
      check string (name "bool") bools
        (String.concat ""
           (draws 8 (fun g -> if Prng.bool g then "1" else "0")));
      check (list (float 0.0)) (name "exponential") exps
        (draws 2 (fun g -> Prng.exponential g 10.0));
      let g = fresh () in
      let c = Prng.split g in
      check int64 (name "split child") child (Prng.next_int64 c);
      check int64 (name "split parent") parent (Prng.next_int64 g))
    prng_golden

let prop_prng_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int stays in bounds" ~count:500
    QCheck.(pair (int_bound 10_000) (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Prng.create seed in
      let v = Prng.int g bound in
      v >= 0 && v < bound)

let prop_prng_int_in_range =
  QCheck.Test.make ~name:"Prng.int_in inclusive range" ~count:500
    QCheck.(triple (int_bound 10_000) (int_range (-50) 50) (int_bound 100))
    (fun (seed, lo, span) ->
      let g = Prng.create seed in
      let hi = lo + span in
      let v = Prng.int_in g lo hi in
      v >= lo && v <= hi)

let test_prng_shuffle_permutation () =
  let g = Prng.create 11 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* --- stats ------------------------------------------------------------ *)

let test_stats_basics () =
  let xs = [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (Stats.median [ 1.0; 2.0; 7.0 ]);
  let lo, hi = Stats.min_max xs in
  Alcotest.(check (float 1e-9)) "min" 1.0 lo;
  Alcotest.(check (float 1e-9)) "max" 4.0 hi

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile 50.0 xs);
  Alcotest.(check (float 1e-9)) "p95" 95.0 (Stats.percentile 95.0 xs);
  Alcotest.(check (float 1e-9)) "p0 is min" 1.0 (Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-9)) "p100 is max" 100.0 (Stats.percentile 100.0 xs)

let prop_stats_summary_consistent =
  QCheck.Test.make ~name:"summary min<=median<=max" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      QCheck.assume (xs <> []);
      let s = Stats.summarize xs in
      s.Stats.min <= s.Stats.median
      && s.Stats.median <= s.Stats.max
      && s.Stats.min <= s.Stats.mean +. 1e-9
      && s.Stats.mean <= s.Stats.max +. 1e-9
      && s.Stats.p99 <= s.Stats.p999
      && s.Stats.p999 <= s.Stats.max
      && s.Stats.n = List.length xs)

let test_stats_tail_percentiles () =
  (* On 1..10000 the tail order is strict and p999 sits in the last
     handful of samples — the open-loop benches live on this field. *)
  let xs = List.init 10_000 (fun i -> float_of_int (i + 1)) in
  let s = Stats.summarize xs in
  Alcotest.(check bool) "p95 < p99 < p999 < max" true
    (s.Stats.p95 < s.Stats.p99 && s.Stats.p99 < s.Stats.p999
   && s.Stats.p999 <= s.Stats.max);
  Alcotest.(check bool) "p999 in the top 0.2%" true (s.Stats.p999 >= 9_980.0);
  (* List and array summaries agree; the array input is left untouched. *)
  let a = Array.of_list xs in
  let shuffled = Array.copy a in
  let tmp = shuffled.(0) in
  shuffled.(0) <- shuffled.(9999);
  shuffled.(9999) <- tmp;
  let sa = Stats.summarize_array shuffled in
  Alcotest.(check (float 1e-9)) "array p999 agrees" s.Stats.p999 sa.Stats.p999;
  Alcotest.(check (float 1e-9)) "shuffled input untouched" 10_000.0 shuffled.(0)

let test_stats_tiny_samples () =
  (* n=1: every statistic collapses to the sample. *)
  let s1 = Stats.summarize [ 42.0 ] in
  Alcotest.(check int) "n=1 n" 1 s1.Stats.n;
  Alcotest.(check (float 1e-9)) "n=1 mean" 42.0 s1.Stats.mean;
  Alcotest.(check (float 1e-9)) "n=1 median" 42.0 s1.Stats.median;
  Alcotest.(check (float 1e-9)) "n=1 p999" 42.0 s1.Stats.p999;
  Alcotest.(check (float 1e-9)) "n=1 min" 42.0 s1.Stats.min;
  Alcotest.(check (float 1e-9)) "n=1 max" 42.0 s1.Stats.max;
  Alcotest.(check (float 1e-9)) "n=1 percentile 50" 42.0
    (Stats.percentile 50.0 [ 42.0 ]);
  (* n=2: median averages, the tail percentiles sit on the larger
     sample (nearest-rank never interpolates past the data). *)
  let s2 = Stats.summarize [ 10.0; 20.0 ] in
  Alcotest.(check (float 1e-9)) "n=2 median" 15.0 s2.Stats.median;
  Alcotest.(check (float 1e-9)) "n=2 p95" 20.0 s2.Stats.p95;
  Alcotest.(check (float 1e-9)) "n=2 p999" 20.0 s2.Stats.p999;
  Alcotest.(check (float 1e-9)) "n=2 min" 10.0 s2.Stats.min;
  (* p999 on a tiny sample set equals the max, never an extrapolation. *)
  let xs = [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check (float 1e-9)) "tiny p999 = max" 3.0
    (Stats.percentile 99.9 xs);
  Alcotest.(check (float 1e-9)) "tiny summarize p999 = max" 3.0
    (Stats.summarize xs).Stats.p999

let test_summarize_array_non_mutation () =
  (* summarize_array sorts a copy: the caller's array must come back
     byte-identical even when thoroughly unsorted. *)
  let a = [| 5.0; 1.0; 4.0; 2.0; 3.0; 0.5; 9.0 |] in
  let before = Array.copy a in
  let s = Stats.summarize_array a in
  Alcotest.(check (array (float 1e-9))) "input untouched" before a;
  Alcotest.(check (float 1e-9)) "median over the sorted copy" 3.0
    s.Stats.median

(* --- floatbuf --------------------------------------------------------- *)

module Floatbuf = Varan_util.Floatbuf

let test_floatbuf_grows_in_order () =
  let b = Floatbuf.create ~capacity:4 () in
  Alcotest.(check bool) "fresh is empty" true (Floatbuf.is_empty b);
  Alcotest.(check bool) "no summary when empty" true
    (Floatbuf.summary b = None);
  for i = 0 to 9_999 do
    Floatbuf.push b (float_of_int i)
  done;
  Alcotest.(check int) "length counts pushes" 10_000 (Floatbuf.length b);
  Alcotest.(check (float 1e-9)) "get is positional" 1_234.0
    (Floatbuf.get b 1_234);
  (* Insertion order survives growth; to_list and to_array agree. *)
  let l = Floatbuf.to_list b in
  Alcotest.(check int) "to_list length" 10_000 (List.length l);
  Alcotest.(check (float 1e-9)) "list head" 0.0 (List.hd l);
  Alcotest.(check (float 1e-9)) "array tail" 9_999.0 ((Floatbuf.to_array b).(9_999));
  (match Floatbuf.summary b with
  | None -> Alcotest.fail "summary lost the samples"
  | Some s ->
    Alcotest.(check int) "summary n" 10_000 s.Stats.n;
    Alcotest.(check (float 1e-9)) "summary max" 9_999.0 s.Stats.max);
  Floatbuf.clear b;
  Alcotest.(check int) "clear empties" 0 (Floatbuf.length b)

let test_floatbuf_capacity_doubling () =
  (* Push across the growth boundary of a deliberately tiny buffer and
     check every element: growth must copy the old prefix, not lose or
     reorder it. *)
  let b = Floatbuf.create ~capacity:2 () in
  for i = 0 to 4 do
    Floatbuf.push b (float_of_int (i * 10))
  done;
  Alcotest.(check int) "length across two doublings" 5 (Floatbuf.length b);
  for i = 0 to 4 do
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "element %d survives growth" i)
      (float_of_int (i * 10))
      (Floatbuf.get b i)
  done;
  Alcotest.(check (array (float 1e-9))) "to_array in push order"
    [| 0.0; 10.0; 20.0; 30.0; 40.0 |]
    (Floatbuf.to_array b)

(* --- tablefmt ---------------------------------------------------------- *)

let test_table_renders_aligned () =
  let t =
    Tablefmt.create ~title:"T"
      [ ("name", Tablefmt.Left); ("value", Tablefmt.Right) ]
  in
  Tablefmt.add_row t [ "alpha"; "1" ];
  Tablefmt.add_rule t;
  Tablefmt.add_row t [ "b"; "1234567" ];
  let s = Tablefmt.render t in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "has title" true (List.hd lines = "T");
  (* All non-empty lines share the same width. *)
  let widths =
    List.filter_map
      (fun l -> if l = "" || l = "T" then None else Some (String.length l))
      lines
  in
  let all_eq = List.for_all (fun w -> w = List.hd widths) widths in
  Alcotest.(check bool) "aligned" true all_eq

let test_table_short_rows_padded () =
  let t = Tablefmt.create [ ("a", Tablefmt.Left); ("b", Tablefmt.Left) ] in
  Tablefmt.add_row t [ "only" ];
  Alcotest.(check bool) "renders" true (String.length (Tablefmt.render t) > 0)

let test_table_too_many_cells () =
  let t = Tablefmt.create [ ("a", Tablefmt.Left) ] in
  match Tablefmt.add_row t [ "x"; "y" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument"

let test_ratio_pct () =
  Alcotest.(check string) "ratio" "1.52x" (Tablefmt.ratio 1.52);
  Alcotest.(check string) "pct" "11.3%" (Tablefmt.pct 0.113)

(* --- bytequeue ---------------------------------------------------------- *)

let test_bytequeue_fifo () =
  let q = Bytequeue.create () in
  ignore (Bytequeue.write q (Bytes.of_string "hello "));
  ignore (Bytequeue.write q (Bytes.of_string "world"));
  Alcotest.(check string) "reads across chunks" "hello world"
    (Bytes.to_string (Bytequeue.read q 11));
  Alcotest.(check bool) "empty after" true (Bytequeue.is_empty q)

let test_bytequeue_partial_reads () =
  let q = Bytequeue.create () in
  ignore (Bytequeue.write q (Bytes.of_string "abcdef"));
  Alcotest.(check string) "first" "ab" (Bytes.to_string (Bytequeue.read q 2));
  Alcotest.(check string) "second" "cd" (Bytes.to_string (Bytequeue.read q 2));
  Alcotest.(check string) "rest" "ef" (Bytes.to_string (Bytequeue.read q 10))

let test_bytequeue_capacity () =
  let q = Bytequeue.create ~capacity:4 () in
  (match Bytequeue.write q (Bytes.of_string "abcdef") with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a write past capacity must be refused");
  Alcotest.(check int) "refused write buffers nothing" 4 (Bytequeue.space q);
  Bytequeue.write q (Bytes.of_string "abcd");
  Alcotest.(check int) "no space" 0 (Bytequeue.space q);
  ignore (Bytequeue.read q 2);
  Alcotest.(check int) "space reclaimed" 2 (Bytequeue.space q)

let test_bytequeue_peek () =
  let q = Bytequeue.create () in
  ignore (Bytequeue.write q (Bytes.of_string "xyz"));
  Alcotest.(check string) "peek" "xy" (Bytes.to_string (Bytequeue.peek q 2));
  Alcotest.(check int) "peek does not consume" 3 (Bytequeue.length q)

let prop_bytequeue_roundtrip =
  QCheck.Test.make ~name:"bytequeue write/read roundtrip" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 20) (string_of_size Gen.(int_range 0 64)))
    (fun chunks ->
      let q = Bytequeue.create ~capacity:(1 lsl 20) () in
      List.iter (fun c -> ignore (Bytequeue.write q (Bytes.of_string c))) chunks;
      let total = List.fold_left (fun n c -> n + String.length c) 0 chunks in
      let out = Bytequeue.read q total in
      Bytes.to_string out = String.concat "" chunks)

type bq_op =
  | Write of string
  | Read of int
  | Read_front (* exactly the rest of the front chunk *)
  | Read_half (* half of it: a split read *)
  | Peek of int

let pp_bq_op = function
  | Write s -> Printf.sprintf "Write %S" s
  | Read n -> Printf.sprintf "Read %d" n
  | Read_front -> "Read_front"
  | Read_half -> "Read_half"
  | Peek n -> Printf.sprintf "Peek %d" n

let bq_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (4, map (fun s -> Write s) (string_size ~gen:printable (int_range 0 40)));
        (2, map (fun n -> Read n) (int_range 0 50));
        (2, return Read_front);
        (1, return Read_half);
        (1, map (fun n -> Peek n) (int_range 0 50));
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_bq_op ops))
    (list_size (int_range 1 80) op)

(* The queue against a string model: random writes (clipped to the
   space of a small capacity, as the kernel does; the whole buffer must
   be refused when it does not fit), random reads, reads aligned to the
   front chunk and reads that split it, and peeks. A reader owns what it
   gets, so scribbling over every read result must not change what
   later reads see. *)
let prop_bytequeue_model =
  QCheck.Test.make ~name:"bytequeue matches a string model" ~count:500 bq_ops
    (fun ops ->
      let cap = 64 in
      let q = Bytequeue.create ~capacity:cap () in
      let data = ref "" in
      (* bytes left in each written chunk, front first *)
      let chunks = Queue.create () in
      let take n =
        let n = min n (String.length !data) in
        let s = String.sub !data 0 n in
        data := String.sub !data n (String.length !data - n);
        let left = ref n in
        while !left > 0 do
          let c = Queue.peek chunks in
          if !c <= !left then begin
            left := !left - !c;
            ignore (Queue.pop chunks)
          end
          else begin
            c := !c - !left;
            left := 0
          end
        done;
        s
      in
      let front () = if Queue.is_empty chunks then 0 else !(Queue.peek chunks) in
      let read n =
        let b = Bytequeue.read q n in
        let got = Bytes.to_string b in
        Bytes.fill b 0 (Bytes.length b) '#';
        got = take n
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Write s ->
              let want = min (String.length s) (cap - String.length !data) in
              let refused =
                want = String.length s
                ||
                match Bytequeue.write q (Bytes.of_string s) with
                | exception Invalid_argument _ -> true
                | () -> false
              in
              if want > 0 then begin
                data := !data ^ String.sub s 0 want;
                Queue.push (ref want) chunks
              end;
              Bytequeue.write q (Bytes.of_string (String.sub s 0 want));
              refused
            | Read n -> read n
            | Read_front -> read (front ())
            | Read_half -> read ((front () + 1) / 2)
            | Peek n ->
              Bytes.to_string (Bytequeue.peek q n)
              = String.sub !data 0 (min n (String.length !data))
          in
          ok
          && Bytequeue.length q = String.length !data
          && Bytequeue.space q = cap - String.length !data)
        ops)

(* --- syscall tables -------------------------------------------------------- *)

module Sysno = Varan_syscall.Sysno
module Errno = Varan_syscall.Errno

let test_sysno_roundtrips () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Sysno.name s ^ " number roundtrip")
        true
        (Sysno.of_int (Sysno.to_int s) = Some s))
    Sysno.all;
  Alcotest.(check bool) "at least 86 syscalls, like the prototype" true
    (List.length Sysno.all >= 86);
  Alcotest.(check bool) "unknown number" true (Sysno.of_int 9999 = None)

let test_sysno_numbers_unique () =
  let nums = List.map Sysno.to_int Sysno.all in
  let sorted = List.sort_uniq compare nums in
  Alcotest.(check int) "no duplicate numbers" (List.length nums)
    (List.length sorted)

let test_sysno_classes_consistent () =
  (* The transfer classes drive the monitor; spot-check the key ones. *)
  let open Sysno in
  Alcotest.(check bool) "read is out-buffer" true
    (transfer_class Read = Out_buffer);
  Alcotest.(check bool) "write is in-buffer" true
    (transfer_class Write = In_buffer);
  Alcotest.(check bool) "open creates fds" true (transfer_class Open = New_fd);
  Alcotest.(check bool) "time is virtual" true (transfer_class Time = Vdso);
  Alcotest.(check bool) "mmap is local" true
    (transfer_class Mmap = Process_local);
  Alcotest.(check bool) "read blocks" true (is_blocking Read);
  Alcotest.(check bool) "write does not block" false (is_blocking Write)

let test_errno_roundtrips () =
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Errno.name e ^ " roundtrip")
        true
        (Errno.of_int (Errno.to_int e) = Some e))
    [ Errno.EPERM; Errno.ENOENT; Errno.EBADF; Errno.EAGAIN; Errno.EPIPE;
      Errno.ECONNREFUSED; Errno.ERESTARTSYS ];
  Alcotest.(check int) "ERESTARTSYS is the kernel's 512" 512
    (Errno.to_int Errno.ERESTARTSYS)

(* --- engine stress ---------------------------------------------------------- *)

module E2 = Varan_sim.Engine

(* Random mixes of consume/sleep/yield across many tasks: the engine's
   global time must equal the longest task's local time, and every task
   must complete. *)
let prop_engine_time_is_max =
  QCheck.Test.make ~name:"engine time = max task time" ~count:200
    QCheck.(pair (int_bound 100_000) (int_range 1 20))
    (fun (seed, ntasks) ->
      let rng = Varan_util.Prng.create seed in
      let eng = E2.create () in
      let expected = Array.make ntasks 0 in
      for i = 0 to ntasks - 1 do
        let steps =
          List.init (1 + Varan_util.Prng.int rng 10) (fun _ ->
              (Varan_util.Prng.int rng 3, Varan_util.Prng.int rng 1000))
        in
        expected.(i) <-
          List.fold_left
            (fun acc (kind, n) -> if kind = 2 then acc else acc + n)
            0 steps;
        ignore
          (E2.spawn eng (fun () ->
               List.iter
                 (fun (kind, n) ->
                   match kind with
                   | 0 -> E2.consume n
                   | 1 -> E2.sleep n
                   | _ -> E2.yield ())
                 steps))
      done;
      E2.run eng;
      E2.now eng = Int64.of_int (Array.fold_left max 0 expected))

(* --- proto --------------------------------------------------------------- *)

module E = Varan_sim.Engine
module K = Varan_kernel.Kernel
module Api = Varan_kernel.Api
module Proto = Varan_workloads.Proto

let test_proto_roundtrip_over_socket () =
  let eng = E.create () in
  let k = K.create eng in
  let got = ref [] in
  let sproc = K.new_proc k "s" and cproc = K.new_proc k "c" in
  ignore
    (E.spawn eng ~name:"server" (fun () ->
         let api = Api.direct k sproc in
         let ok = Result.get_ok in
         let lfd = ok (Api.socket api) in
         ok (Api.bind api lfd 9999);
         ok (Api.listen api lfd);
         let c = ok (Api.accept api lfd) in
         let rec loop () =
           match Proto.recv_msg api c with
           | Ok (Some m) ->
             got := Bytes.to_string m :: !got;
             loop ()
           | _ -> ()
         in
         loop ()));
  ignore
    (E.spawn eng ~name:"client" (fun () ->
         let api = Api.direct k cproc in
         let ok = Result.get_ok in
         E.consume 1000;
         let fd = ok (Api.socket api) in
         ok (Api.connect api fd 9999);
         ok (Proto.send_msg api fd Bytes.empty);
         ok (Proto.send_msg api fd (Bytes.of_string "one"));
         ok (Proto.send_msg api fd (Bytes.make 5000 'x'));
         ignore (Api.close api fd)));
  E.run_until_quiescent eng;
  match List.rev !got with
  | [ a; b; c ] ->
    Alcotest.(check int) "empty frame" 0 (String.length a);
    Alcotest.(check string) "small frame" "one" b;
    Alcotest.(check int) "big frame" 5000 (String.length c)
  | l -> Alcotest.failf "expected 3 frames, got %d" (List.length l)

(* A send copies what the kernel accepts before it returns, so a sender
   may overwrite its buffer at once: over a socket whose delivery waits
   out a link latency, and over a pipe, the peer still reads what was
   sent. *)
let test_sender_mutation_invisible_to_peer () =
  let eng = E.create () in
  let k = K.create ~link_latency:35_000 eng in
  let got = ref [] in
  let piped = ref "" in
  let sproc = K.new_proc k "s" and cproc = K.new_proc k "c" in
  let ok = function
    | Ok v -> v
    | Error e -> Alcotest.failf "errno %s" (Varan_syscall.Errno.name e)
  in
  let scribble b = Bytes.fill b 0 (Bytes.length b) 'X' in
  ignore
    (E.spawn eng ~name:"server" (fun () ->
         let api = Api.direct k sproc in
         let lfd = ok (Api.socket api) in
         ok (Api.bind api lfd 9998);
         ok (Api.listen api lfd);
         let c = ok (Api.accept api lfd) in
         let rec loop () =
           match Proto.recv_msg api c with
           | Ok (Some m) ->
             got := Bytes.to_string m :: !got;
             loop ()
           | _ -> ()
         in
         loop ()));
  ignore
    (E.spawn eng ~name:"client" (fun () ->
         let api = Api.direct k cproc in
         E.consume 1000;
         let fd = ok (Api.socket api) in
         ok (Api.connect api fd 9998);
         let payload = Bytes.of_string "by send_msg" in
         ok (Proto.send_msg api fd payload);
         scribble payload;
         let frame = Proto.frame_of_string "a reused frame" in
         ok (Api.write_all api fd frame);
         Bytes.fill frame Proto.header_len
           (Bytes.length frame - Proto.header_len) 'X';
         ok (Api.write_all api fd frame);
         let raw = Proto.frame (Bytes.make 5000 'w') in
         ok (Api.write_all api fd raw);
         scribble raw;
         ignore (Api.close api fd);
         let r, w = ok (Api.pipe api) in
         let data = Bytes.of_string "through a pipe" in
         ok (Api.write_all api w data);
         scribble data;
         piped := Bytes.to_string (ok (Api.read api r 64))));
  E.run_until_quiescent eng;
  Alcotest.(check (list string)) "socket peer reads what was sent"
    [ "by send_msg"; "a reused frame"; "XXXXXXXXXXXXXX"; String.make 5000 'w' ]
    (List.rev !got);
  Alcotest.(check string) "pipe reader too" "through a pipe" !piped

let () =
  Alcotest.run "varan_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "split independent" `Quick
            test_prng_split_independent;
          Alcotest.test_case "shuffle permutation" `Quick
            test_prng_shuffle_permutation;
          Alcotest.test_case "golden vectors" `Quick test_prng_golden_vectors;
          QCheck_alcotest.to_alcotest prop_prng_int_in_bounds;
          QCheck_alcotest.to_alcotest prop_prng_int_in_range;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "percentiles" `Quick test_stats_percentile;
          Alcotest.test_case "tail percentiles (p999)" `Quick
            test_stats_tail_percentiles;
          Alcotest.test_case "tiny samples (n=1, n=2)" `Quick
            test_stats_tiny_samples;
          Alcotest.test_case "summarize_array non-mutation" `Quick
            test_summarize_array_non_mutation;
          Alcotest.test_case "floatbuf grows in order" `Quick
            test_floatbuf_grows_in_order;
          Alcotest.test_case "floatbuf capacity doubling" `Quick
            test_floatbuf_capacity_doubling;
          QCheck_alcotest.to_alcotest prop_stats_summary_consistent;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "aligned" `Quick test_table_renders_aligned;
          Alcotest.test_case "short rows" `Quick test_table_short_rows_padded;
          Alcotest.test_case "too many cells" `Quick test_table_too_many_cells;
          Alcotest.test_case "ratio/pct" `Quick test_ratio_pct;
        ] );
      ( "bytequeue",
        [
          Alcotest.test_case "fifo" `Quick test_bytequeue_fifo;
          Alcotest.test_case "partial reads" `Quick test_bytequeue_partial_reads;
          Alcotest.test_case "capacity" `Quick test_bytequeue_capacity;
          Alcotest.test_case "peek" `Quick test_bytequeue_peek;
          QCheck_alcotest.to_alcotest prop_bytequeue_roundtrip;
          QCheck_alcotest.to_alcotest prop_bytequeue_model;
        ] );
      ( "syscall-tables",
        [
          Alcotest.test_case "sysno roundtrips" `Quick test_sysno_roundtrips;
          Alcotest.test_case "sysno numbers unique" `Quick
            test_sysno_numbers_unique;
          Alcotest.test_case "transfer classes" `Quick
            test_sysno_classes_consistent;
          Alcotest.test_case "errno roundtrips" `Quick test_errno_roundtrips;
        ] );
      ( "engine-stress",
        [ QCheck_alcotest.to_alcotest prop_engine_time_is_max ] );
      ( "proto",
        [
          Alcotest.test_case "roundtrip over socket" `Quick
            test_proto_roundtrip_over_socket;
          Alcotest.test_case "sender mutation invisible to the peer" `Quick
            test_sender_mutation_invisible_to_peer;
        ] );
    ]
