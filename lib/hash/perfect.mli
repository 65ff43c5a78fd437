(** Static perfect hashing.

    Two constructions:

    {ul
    {- {!Dense}: the paper's SPH — when the key domain is (near-)dense the
       key itself, offset by the domain minimum, is a perfect and minimal
       hash.  Dictionary-compressed columns provide such domains for
       free.}
    {- {!Fks}: the classic two-level Fredman–Komlós–Szemerédi scheme for
       an {e arbitrary} static key set, with expected linear space.  This
       generalises SPH to sparse domains at the price of extra
       indirection, and is exposed to the optimiser as a distinct
       molecule alternative.}} *)

module Dense : sig
  type t

  val create : lo:int -> hi:int -> t
  (** [create ~lo ~hi] covers the dense domain [\[lo, hi\]]; the slot of
      key [k] is [k - lo], so the hash is minimal iff every domain value
      occurs.
      @raise Invalid_argument if [hi < lo], or if the domain has more
      values than an [int] can count (e.g. [\[min_int, max_int\]]). *)

  val of_keys : int array -> t option
  (** [of_keys keys] builds a dense SPH if the distinct keys of [keys]
      occupy their [\[min, max\]] range densely enough (at least half the
      range populated); [None] otherwise. *)

  val slot : t -> int -> int
  (** [slot t key] is the perfect-hash slot; the caller must ensure
      [lo <= key <= hi] (checked with [assert]). *)

  val slot_opt : t -> int -> int option
  (** Total version of {!slot}. *)

  val domain_size : t -> int
  val lo : t -> int
  val hi : t -> int
end

module Fks : sig
  type t

  val build : ?seed:int -> int array -> t
  (** [build keys] constructs a perfect hash for the distinct values of
      [keys].  Expected O(n) construction, O(n) space. *)

  val find : t -> int -> int
  (** [find t key] is the slot of [key], in [\[0, length t)], iff [key]
      was in the build set, and [-1] otherwise; distinct keys receive
      distinct slots.  It allocates nothing. *)

  val slot : t -> int -> int option
  (** {!find} as an option. *)

  val length : t -> int
  (** Number of keys in the build set. *)

  val space : t -> int
  (** Total number of second-level buckets allocated (for the O(n) space
      property test). *)
end
