(** DQO plan properties (paper §2.2).

    "Interesting orders" are one tiny special case: DQO also tracks any
    statistical or physical property of the data that a subcomponent may
    rely on — here sortedness, clustering, and key-domain density with
    bounds.  Properties propagate through operators and are pruned by
    dominance, exactly like interesting orders in classic dynamic
    programming, but over a richer vector. *)

type column = {
  dense : bool;  (** Key domain dense enough for SPH. *)
  lo : int;  (** Domain minimum (meaningful when [dense]). *)
  hi : int;  (** Domain maximum. *)
  distinct : int;  (** Known number of distinct values. *)
}

type t = {
  sorted_by : string option;
      (** Physical tuple order, by column name; [None] = unknown order. *)
  clustered_by : string option;
      (** Equal values contiguous; implied by [sorted_by] on the same
          column. *)
  columns : (string * column) list;
      (** Per-column domain knowledge, keyed by column name.  Names are
          unique within one [t]: {!of_stats} rejects duplicates, and
          {!union_columns}, {!restrict} and {!rename_columns} keep them
          unique.  {!dominates} relies on it. *)
  co_ordered : (string * string) list;
      (** [(c1, c2)] — ordering the data by [c1] also clusters it by
          [c2] ([c2] is a monotone function of [c1], as with a key and a
          bucketised attribute).  This is what lets a merge-join output,
          sorted on the join key, still feed order-based grouping on
          another column — the paper's §4.3 setting. *)
}

val none : t
(** No knowledge at all. *)

val of_stats :
  ?name:string ->
  ?co_ordered:(string * string) list ->
  (string * Dqo_data.Col_stats.t) list ->
  t
(** [of_stats cols] builds base-relation properties from measured column
    statistics; [name] selects which sorted column (if several) defines
    tuple order — default: the first sorted column.
    @raise Invalid_argument if a column name appears twice. *)

val column : t -> string -> column option
val sorted_on : t -> string -> bool
val clustered_on : t -> string -> bool
val dense_on : t -> string -> bool
val distinct_of : t -> string -> int option

val with_sort : t -> string -> t
(** Properties after sorting by the given column. *)

val without_order : t -> t
(** Properties after an order-destroying operator (e.g. hash join). *)

val rename_columns : t -> (string * string) list -> t
(** Apply output renaming [(old, new)] to column knowledge and order.
    A column renamed onto a name already present keeps only the first
    column of that name. *)

val restrict : t -> string list -> t
(** Keep knowledge only for the given output columns. *)

val union_columns : t -> t -> t
(** Merge the column knowledge of two inputs (for join outputs); order
    fields are reset to [None] — the join operator sets them. *)

val shallow : t -> t
(** The SQO projection: keep sortedness/clustering and distinct counts,
    forget density and domain bounds.  A shallow optimiser literally
    cannot see the property that makes perfect hashing applicable. *)

val dominates : t -> t -> bool
(** [dominates a b] — every guarantee [b] offers, [a] offers too.  Used
    by Pareto pruning: a plan with properties [a] and cost [<=] can
    replace one with [b].  Linear in the column lists when both list
    their shared columns in the same order (as vectors derived from the
    same inputs do); a name lookup per column otherwise. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
