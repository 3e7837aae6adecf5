(* The SplitMix64 state lives in an 8-byte buffer, not in a mutable
   [int64] field: a store to such a field boxes a fresh [int64], so
   every draw would allocate. Reading and writing the buffer keeps the
   state unboxed, and [next_int64] is inlined into the draws below so
   its result never boxes either. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let g = Bytes.create 8 in
  Bytes.set_int64_ne g 0 s;
  g

let create seed = of_state (Int64.of_int seed)

let[@inline] next_int64 g =
  let z = Int64.add (Bytes.get_int64_ne g 0) golden_gamma in
  Bytes.set_int64_ne g 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split g = of_state (next_int64 g)

let int g bound =
  assert (bound > 0);
  (* Keep 62 bits so the value fits OCaml's 63-bit int non-negatively. *)
  let r = Int64.to_int (Int64.logand (next_int64 g) 0x3FFF_FFFF_FFFF_FFFFL) in
  r mod bound

let int_in g lo hi =
  assert (lo <= hi);
  lo + int g (hi - lo + 1)

let bits53 g = Int64.to_int (Int64.shift_right_logical (next_int64 g) 11)

let float g bound =
  (* 53 random bits scaled into [0,1) *)
  float_of_int (bits53 g) /. 9007199254740992.0 *. bound

let bool g = Int64.logand (next_int64 g) 1L = 1L

let exponential g mean =
  let u = float g 1.0 in
  (* Avoid log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose g a =
  assert (Array.length a > 0);
  a.(int g (Array.length a))
