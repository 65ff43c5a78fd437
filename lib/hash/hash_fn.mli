(** Integer hash functions.

    The choice of hash function is a "molecule"-level decision in the
    paper's granularity hierarchy (Table 1): the same hash table performs
    very differently under different finalisers, cf. the seven-dimensional
    analysis of hashing the paper cites.  All functions map an [int] to a
    non-negative [int]. *)

type t =
  | Murmur3
      (** The 64-bit Murmur3 finaliser (the paper's choice for HG). *)
  | Fibonacci  (** Multiplication by the golden-ratio constant. *)
  | Multiply_shift  (** Dietzfelbinger multiply-shift. *)
  | Identity
      (** No mixing: pathological on structured keys; included as the
          degenerate point of the design space. *)

val all : t list
(** Every hash function, for enumerating molecule alternatives. *)

val name : t -> string

val apply : t -> int -> int
(** [apply fn key] hashes [key]; the result is non-negative. *)

val murmur3 : int -> int
(** The Murmur3 64-bit finaliser specialised for direct calls on hot
    paths. *)

val fibonacci : int -> int
val multiply_shift : int -> int

val seed_mix : int -> int
(** [seed_mix seed] is what {!with_seed} xors into the key before
    hashing; a caller that hashes under one seed many times can compute
    it once. *)

val with_seed : t -> seed:int -> int -> int
(** [with_seed fn ~seed key] perturbs [key] with [seed] before hashing,
    yielding an (approximate) universal family — used by the FKS perfect
    hashing construction which needs independent trials. *)
