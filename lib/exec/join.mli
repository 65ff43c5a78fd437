(** The five join implementations (algorithmic counterparts of the
    grouping variants, Table 2 of the paper).

    All joins are inner equi-joins on integer key columns
    ({!Dqo_data.Int_col.t} — any backend) and produce the matching
    row-id pairs; {!materialize} gathers them into an output
    relation.  Duplicate keys are supported on both sides (full
    many-to-many semantics). *)

type algorithm = HJ | SPHJ | OJ | SOJ | BSJ

type result = {
  left : int array;  (** Row ids into the build/left input. *)
  right : int array;  (** Row ids into the probe/right input, parallel. *)
}

val all : algorithm list
val name : algorithm -> string

val cardinality : result -> int

val hash_join :
  ?hash:Dqo_hash.Hash_fn.t ->
  ?table:Grouping.table_kind ->
  left:Dqo_data.Int_col.t ->
  right:Dqo_data.Int_col.t ->
  unit ->
  result
(** HJ: build a hash multimap on [left], probe with [right]. *)

val sph_join :
  lo:int -> hi:int -> left:Dqo_data.Int_col.t -> right:Dqo_data.Int_col.t -> result
(** SPHJ: the build side's key domain [\[lo, hi\]] is dense; the key is
    the offset into the bucket-head array.  Probe keys outside the domain
    simply do not match.
    @raise Invalid_argument if a {e left} key falls outside [\[lo, hi\]]. *)

val merge_join : left:Dqo_data.Int_col.t -> right:Dqo_data.Int_col.t -> result
(** OJ: both inputs must be sorted; emits pairs in key order.
    @raise Invalid_argument if either input is not sorted. *)

val sort_merge_join : left:Dqo_data.Int_col.t -> right:Dqo_data.Int_col.t -> result
(** SOJ: sorts row-id permutations of both sides, then merges.  Inputs
    are not modified; emitted row ids refer to the original positions. *)

val binary_search_join : left:Dqo_data.Int_col.t -> right:Dqo_data.Int_col.t -> result
(** BSJ: builds a sorted run-length index of the [left] keys, then binary
    searches it for every [right] tuple. *)

val run : algorithm -> left:Dqo_data.Int_col.t -> right:Dqo_data.Int_col.t -> result
(** Dispatch; SPHJ derives its domain from the left side's min/max.
    @raise Invalid_argument when the algorithm's precondition fails
    (OJ on unsorted inputs). *)

val run_observed :
  ?obs:Dqo_obs.Metrics.t ->
  algorithm ->
  left:Dqo_data.Int_col.t ->
  right:Dqo_data.Int_col.t ->
  result
(** {!run} with per-algorithm timing recorded into [obs] under the
    operator name ["join/<ALG>"] (input rows of both sides, output
    pairs, wall time).  Without [obs] it is exactly {!run}. *)

val materialize :
  ?only:string list ->
  Dqo_data.Relation.t -> Dqo_data.Relation.t -> result -> Dqo_data.Relation.t
(** [materialize l r pairs] gathers both sides; the output schema is the
    concatenation of the input schemas (right-side clashes renamed).
    With [~only], just the output columns named in it are gathered, in
    schema order — late materialisation for a parent that reads a few
    of them. *)

val nested_loop_reference : left:Dqo_data.Int_col.t -> right:Dqo_data.Int_col.t -> result
(** O(n·m) reference implementation for the property-based tests. *)
