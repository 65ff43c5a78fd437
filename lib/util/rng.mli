(** Deterministic pseudo-random number generation.

    A small, fast SplitMix64 generator.  All dataset generators in this
    repository draw from this module so that every experiment is exactly
    reproducible from a seed. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val next : t -> int
(** [next t] returns the next raw 62-bit non-negative integer. *)

val int : t -> int -> int
(** [int t bound] returns a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range t ~lo ~hi] returns a uniform integer in [\[lo, hi\]]
    (both inclusive), also when the range holds more values than
    [max_int] (e.g. [\[min_int, max_int\]]).
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] returns a uniform float in [\[0, bound)]. *)

val bool : t -> bool
(** [bool t] returns a fair coin flip. *)

val shuffle : t -> int array -> unit
(** [shuffle t a] permutes [a] uniformly in place (Fisher-Yates). *)

val sample_distinct : t -> k:int -> bound:int -> int array
(** [sample_distinct t ~k ~bound] returns [k] distinct integers drawn
    uniformly from [\[0, bound)], in no particular order.
    @raise Invalid_argument if [k > bound] or [k < 0]. *)

val split : t -> t
(** [split t] returns a new generator seeded from [t]'s stream, advancing
    [t].  Useful to hand independent streams to sub-generators. *)
