(* The splitmix64 state lives unboxed in 8 bytes: a boxed [int64] field
   would allocate a fresh box on every draw, and the network draws on
   every send. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let copy = Bytes.copy

(* splitmix64, Steele et al.; passes BigCrush and needs only one word of
   state, which keeps [split] trivial.  Inlined into every draw below, so
   the intermediate [int64]s stay unboxed in registers. *)
let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = next t

let split t = create (next t)

let[@inline] float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1.0p-53

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let bool t p = float t < p

let uniform t lo hi = lo +. ((hi -. lo) *. float t)

let exponential t mean = -.mean *. log (1. -. float t)

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let shuffle t xs =
  let arr = Array.of_list xs in
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr
