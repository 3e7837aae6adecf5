(** Small statistics helpers used by the benchmark harness and the load
    generators: summary statistics over float samples. *)

val mean : float list -> float
(** Arithmetic mean. Requires a non-empty list. *)

val median : float list -> float
(** Median (average of the two middle elements for even lengths).
    Requires a non-empty list. *)

val percentile : float -> float list -> float
(** [percentile p samples] with [p] in [\[0,100\]], nearest-rank method.
    Requires a non-empty list. *)

val min_max : float list -> float * float
(** Smallest and largest sample. Requires a non-empty list. *)

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
(** One-shot summary of a sample set. [p999] is the 99.9th percentile —
    for open-loop serving runs the tail beyond p99 is the whole point. *)

val summarize : float list -> summary
(** Compute all summary fields in one pass over a sorted copy.
    Requires a non-empty list. *)

val summarize_array : float array -> summary
(** Same over an array (sorts a copy; input untouched). Requires a
    non-empty array. Preferred at million-sample scale — no cons cells. *)
