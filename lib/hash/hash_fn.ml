type t = Murmur3 | Fibonacci | Multiply_shift | Identity

let all = [ Murmur3; Fibonacci; Multiply_shift; Identity ]

let name = function
  | Murmur3 -> "murmur3"
  | Fibonacci -> "fibonacci"
  | Multiply_shift -> "multiply-shift"
  | Identity -> "identity"

(* 64-bit Murmur3 finaliser with constants truncated to OCaml's 63-bit
   int; arithmetic is mod 2^63 which keeps the avalanche property on the
   low bits we index with. *)
let murmur3 key =
  let h = key land max_int in
  let h = (h lxor (h lsr 33)) * 0x7F51AFD7ED558CCD in
  let h = (h lxor (h lsr 33)) * 0x44602A76074A30C3 in
  (h lxor (h lsr 33)) land max_int

let fibonacci key = (key * 0x1E3779B97F4A7C15) land max_int

let multiply_shift key =
  (* Dietzfelbinger: multiply by a fixed odd constant, keep the high bits
     by shifting; we keep 62 bits so downstream modulo reductions see the
     mixed high bits. *)
  ((key * 0x2545F4914F6CDD1D) lsr 1) land max_int

let apply fn key =
  match fn with
  | Murmur3 -> murmur3 key
  | Fibonacci -> fibonacci key
  | Multiply_shift -> multiply_shift key
  | Identity -> key land max_int

let seed_mix seed = seed * 0x51502A8334304AAB
let with_seed fn ~seed key = apply fn (key lxor seed_mix seed)
