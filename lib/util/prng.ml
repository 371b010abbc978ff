(* The splitmix64 state lives unboxed in eight bytes: a mutable [int64]
   field would box a fresh word on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64 finalizer: xor-shift-multiply mixing of the advanced state. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* Inlined into every draw below, so the 64-bit words stay in
   registers. *)
let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (next_int64 t)

let int t ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Masked rejection sampling keeps the draw unbiased. *)
  let mask = ref 1 in
  while !mask < bound - 1 do
    mask := (!mask lsl 1) lor 1
  done;
  let v = ref bound in
  while !v >= bound do
    v := Int64.to_int (next_int64 t) land max_int land !mask
  done;
  !v

(* 53 high-quality bits scaled to [0,1). *)
let[@inline] float t =
  Int64.to_float (Int64.shift_right_logical (next_int64 t) 11)
  *. (1.0 /. 9007199254740992.0)

let bool t ~p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t ~bound:(Array.length arr))

let pick_weighted t ~weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Prng.pick_weighted: empty weights";
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let w = weights.(i) in
    if w < 0.0 then invalid_arg "Prng.pick_weighted: negative weight";
    total := !total +. w
  done;
  if !total <= 0.0 then invalid_arg "Prng.pick_weighted: zero total weight";
  let target = float t *. !total in
  let i = ref 0 and acc = ref weights.(0) in
  while !i < n - 1 && not (target < !acc) do
    incr i;
    acc := !acc +. weights.(!i)
  done;
  !i

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
