type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

let rank = function Null -> 0 | Bool _ -> 1 | Int _ | Float _ -> 2 | Str _ -> 3

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | (Null | Bool _ | Int _ | Float _ | Str _), _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* [Hashtbl.hash (float_of_int i)], computed without boxing the float:
   the runtime's MurmurHash3 mixing of the float's two 32-bit halves,
   finalized and truncated to 30 bits.  (The runtime also normalizes NaNs
   and -0., which [float_of_int] never returns.) *)
let m32 = 0xFFFF_FFFF
let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land m32

let murmur_mix h d =
  let d = rotl32 ((d * 0xcc9e2d51) land m32) 15 * 0x1b873593 land m32 in
  ((rotl32 (h lxor d) 13 * 5) + 0xe6546b64) land m32

let int_hash i =
  let bits = Int64.bits_of_float (float_of_int i) in
  let lo = Int64.to_int bits land m32 and hi = Int64.to_int (Int64.shift_right_logical bits 32) in
  let h = murmur_mix (murmur_mix 0 lo) hi in
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land m32 in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land m32 in
  (h lxor (h lsr 16)) land 0x3FFF_FFFF

let hash = function
  | Null -> 17
  | Bool b -> if b then 31 else 37
  (* Int and Float hash through the same float representation so that the
     hash is compatible with [equal], which compares them numerically. *)
  | Int i -> int_hash i
  | Float f -> Hashtbl.hash f
  | Str s -> Hashtbl.hash s

let pp ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s

let to_string v = Format.asprintf "%a" pp v

let as_int = function Int i -> i | v -> invalid_arg ("Value.as_int: " ^ to_string v)

let as_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | v -> invalid_arg ("Value.as_float: " ^ to_string v)

let as_string = function Str s -> s | v -> invalid_arg ("Value.as_string: " ^ to_string v)
let as_bool = function Bool b -> b | v -> invalid_arg ("Value.as_bool: " ^ to_string v)
