(** Partitioning primitives.

    [partitionBy] is the first "line of code" of the paper's Figure 2:
    it splits an input into a bundle of independent outputs.  Two
    physical realisations are provided — hash partitioning (works
    always) and direct key partitioning (dense domains, where it is a
    static perfect partition). *)

type parts = {
  keys : int array array;  (** [keys.(p)] — key column of partition [p]. *)
  values : int array array;  (** Parallel payloads. *)
}

val by_hash :
  ?hash:Dqo_hash.Hash_fn.t ->
  partitions:int ->
  keys:Dqo_data.Int_col.t ->
  values:Dqo_data.Int_col.t ->
  unit ->
  parts
(** [by_hash ~partitions ~keys ~values ()] splits rows by hashed key.
    All rows of one key land in one partition.
    @raise Invalid_argument if [partitions < 1] or length mismatch. *)

val by_dense_key : lo:int -> hi:int -> keys:Dqo_data.Int_col.t -> values:Dqo_data.Int_col.t
  -> parts
(** [by_dense_key ~lo ~hi] gives every domain value its own partition —
    the "42 groups, 42 producers" of Figure 2.  Partition [p] holds the
    rows with key [lo + p]; empty domain values yield empty partitions.
    @raise Invalid_argument if a key is outside [\[lo, hi\]], or if the
    domain has more values than an [int] can count. *)

val partition_count : parts -> int
val total_rows : parts -> int
