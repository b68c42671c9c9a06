(* The 64-bit state lives in an 8-byte buffer, read and written with the
   native-endian bytes primitives: the int64 temporaries of a draw stay
   unboxed in registers, so a draw allocates nothing, where a mutable
   [int64] field would box a fresh state on every store. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  set64 t 0 state;
  t

let create seed = of_state (Int64.of_int seed)

(* Advance the state and return the next 64 output bits.  Inlined into
   each draw below, which keeps only the bits it needs, so no [int64]
   crosses a call. *)
let[@inline] next_raw t =
  let z = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next_raw t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so the value fits OCaml's native int non-negatively *)
  let raw = Int64.to_int (Int64.shift_right_logical (next_raw t) 2) in
  raw mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (next_raw t) 11) in
  bound *. (raw /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next_raw t) 1L = 1L

let choose t = function
  | [] -> invalid_arg "Rng.choose: empty list"
  | items -> List.nth items (int t (List.length items))

let shuffle t items =
  let arr = Array.of_list items in
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr
