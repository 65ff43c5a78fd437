(** Common signature of the integer hash tables in this library.

    Every table maps an [int] key to a dense slot identifier assigned in
    insertion order ([0, 1, 2, ...]).  This is exactly the shape the
    grouping and join operators need: the slot indexes parallel aggregate
    arrays, so the table itself stores no payload.  The choice *which*
    table implementation to use is a molecule-level decision in DQO. *)

module type TABLE = sig
  type t

  val create : ?hash:Hash_fn.t -> expected:int -> unit -> t
  (** [create ?hash ~expected ()] prepares a table for about [expected]
      distinct keys.  The table grows as needed.
      @raise Invalid_argument if [expected < 0]. *)

  val find_or_add : t -> int -> int
  (** [find_or_add t key] returns the slot of [key], allocating the next
      free slot if the key is new. *)

  val find : t -> int -> int
  (** [find t key] is the slot of [key], or [-1] if it is absent.  It
      allocates nothing. *)

  val mem : t -> int -> bool
  val length : t -> int
  (** Number of distinct keys inserted. *)

  val iter : (int -> int -> unit) -> t -> unit
  (** [iter f t] applies [f key slot] to every binding, in unspecified
      order. *)

  val name : string
  (** Implementation name, e.g. ["linear-probing"]. *)
end
