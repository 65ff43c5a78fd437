(** Selection over integer columns.

    Predicates evaluate per row and produce a selection vector of row
    ids, the form every downstream operator consumes. *)

type predicate =
  | Eq of int
  | Ne of int
  | Lt of int
  | Le of int
  | Gt of int
  | Ge of int
  | Between of int * int  (** Inclusive on both ends. *)

val eval : predicate -> int -> bool

val select : Dqo_data.Int_col.t -> predicate -> int array
(** [select column p] returns the row ids satisfying [p], ascending. *)

val select_relation :
  Dqo_data.Relation.t -> column:string -> predicate -> Dqo_data.Relation.t
(** Materialising convenience wrapper.
    @raise Not_found / Invalid_argument as for
    {!Dqo_data.Relation.int_col}. *)

val selectivity : predicate -> lo:int -> hi:int -> float
(** Estimated fraction of a uniform [\[lo, hi\]] domain satisfying the
    predicate — used by the cardinality estimator.  A domain with more
    values than an [int] can count (e.g. [\[min_int + 1, max_int\]]) is
    measured in floats. *)

val pp : Format.formatter -> predicate -> unit
