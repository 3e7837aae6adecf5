let mean xs =
  assert (xs <> []);
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sorted xs = List.sort compare xs

let median_sorted a =
  let n = Array.length a in
  assert (n > 0);
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median xs = median_sorted (Array.of_list (sorted xs))

let percentile_sorted p a =
  let n = Array.length a in
  assert (n > 0);
  if p <= 0.0 then a.(0)
  else if p >= 100.0 then a.(n - 1)
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let percentile p xs = percentile_sorted p (Array.of_list (sorted xs))

let min_max xs =
  assert (xs <> []);
  let f (lo, hi) x = (Stdlib.min lo x, Stdlib.max hi x) in
  match xs with
  | [] -> assert false
  | x :: rest -> List.fold_left f (x, x) rest

type summary = {
  n : int;
  mean : float;
  median : float;
  stddev : float;
  min : float;
  max : float;
  p95 : float;
  p99 : float;
  p999 : float;
}

(* Shared by the list and array entry points; [a] is sorted ascending. *)
let summarize_sorted a =
  let n = Array.length a in
  assert (n > 0);
  let mean = Array.fold_left ( +. ) 0.0 a /. float_of_int n in
  let sq =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 a
  in
  {
    n;
    mean;
    median = median_sorted a;
    stddev = sqrt (sq /. float_of_int n);
    min = a.(0);
    max = a.(n - 1);
    p95 = percentile_sorted 95.0 a;
    p99 = percentile_sorted 99.0 a;
    p999 = percentile_sorted 99.9 a;
  }

let summarize xs =
  assert (xs <> []);
  summarize_sorted (Array.of_list (sorted xs))

let summarize_array a =
  let a = Array.copy a in
  Array.sort compare a;
  summarize_sorted a
