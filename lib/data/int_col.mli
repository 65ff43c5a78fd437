(** Storage-agnostic integer columns.

    An [Int_col.t] is an immutable-length sequence of OCaml [int]s with a
    choice of physical representation:

    - {b Flat}: a plain [int array] — the historical backing store.  Zero
      indirection, but the whole column is one GC-managed allocation, which
      at paper scale (100M rows) makes major-heap work and copying costly.
    - {b Chunked}: morsel-sized [Bigarray] chunks ([c_layout], [int32] or
      [int64] elements) living outside the OCaml heap.  Chunks are
      allocated lazily page-by-page by the OS, so parallel first-touch
      filling places pages with the filling domain (the NUMA
      approximation used by [Par_group]).  Chunked columns can also be
      backed by a memory-mapped file ({!map_file}).
    - {b Const}: a length and a single repeated value — O(1) storage for
      e.g. the all-ones values column of a COUNT-only aggregation.

    Execution kernels consume columns through the segment iterators
    ({!iter_seg}, {!iter_seg2}, {!iter_seg_range}): the flat backend hands
    out its backing array zero-copy, while chunked backends materialise
    one cache-resident morsel at a time into a scratch buffer.  Because
    every backend presents elements in the same row order, operators
    produce byte-identical results whatever the storage. *)

type width = W32 | W64
(** Element width of a chunked column.  [W32] halves resident bytes but
    {!set}/{!fill_range} raise [Invalid_argument] on values outside
    int32 range. *)

type backend = Flat | Chunked of width

type t

val default_chunk_rows : int
(** Rows per chunk (a power of two; 65536 — 256 KiB at [W32]). *)

(** {1 Construction} *)

val of_array : int array -> t
(** Flat column sharing (not copying) [a]; the caller must not mutate
    [a] afterwards. *)

val const : int -> int -> t
(** [const n v] is a length-[n] column whose every element reads [v]. *)

val create_chunked : ?chunk_rows:int -> width -> int -> t
(** Uninitialised chunked column of the given length; contents are
    unspecified until written ({!set}, {!fill_range},
    {!blit_from_array}).  [chunk_rows] must be a power of two. *)

val init : ?backend:backend -> ?chunk_rows:int -> int -> (int -> int) -> t
(** [init n f] builds a length-[n] column with element [i] = [f i],
    evaluated in index order.  Default backend is [Flat]. *)

val map_file : ?chunk_rows:int -> string -> width -> int -> t
(** [map_file path w n] memory-maps [path] (created/grown as needed) as
    a shared read-write chunked column of [n] elements: the chunks are
    disjoint views of one [Unix.map_file] mapping, so writes persist to
    the file.  @raise Unix.Unix_error on I/O failure. *)

(** {1 Shape} *)

val length : t -> int
val backend : t -> backend

(** {1 Element access} *)

val get : t -> int -> int
val set : t -> int -> int -> unit
(** @raise Invalid_argument on a [Const] column, or on a [W32] chunked
    column when the value does not fit in 32 bits. *)

val fill_range : t -> pos:int -> len:int -> f:(int -> int) -> unit
(** [fill_range t ~pos ~len ~f] sets element [i] to [f i] for
    [pos <= i < pos+len], in index order, chunk by chunk.  This is the
    bulk fill path used by [Datagen]; disjoint ranges may be filled from
    different domains in parallel (first-touch page placement). *)

val blit_from_array : int array -> src_pos:int -> t -> dst_pos:int -> len:int -> unit

val blit : t -> pos:int -> int array -> dst_pos:int -> len:int -> unit
(** [blit t ~pos dst ~dst_pos ~len] copies rows [pos..pos+len-1] into
    [dst] — the decompression step of the chunked fast paths. *)

(** {1 Whole-column access} *)

val to_array : t -> int array
(** Always a fresh copy — the explicit materialisation for cold paths. *)

val unsafe_array : t -> int array
(** The backing array itself when flat ({b shared} — callers must not
    mutate it), otherwise a fresh copy.  For whole-column algorithms
    (sort permutations, random-access merge backtracking); streaming
    operators should use {!iter_seg} instead. *)

val as_flat_array : t -> int array option
(** [Some backing] iff the column is flat — a zero-copy fast-path probe.
    The array must be treated as read-only. *)

(** {1 Segment iteration}

    [f pos buf off len] receives rows [pos..pos+len-1] as
    [buf.(off..off+len-1)].  [buf] is borrowed: it is only valid during
    the call and must not be mutated or retained (for flat columns it is
    the backing array itself; for chunked columns it is a scratch buffer
    reused between segments). *)

val iter_seg : t -> f:(int -> int array -> int -> int -> unit) -> unit

val iter_seg_range :
  t -> pos:int -> len:int -> f:(int -> int array -> int -> int -> unit) -> unit

val iter_seg2 :
  t ->
  t ->
  f:(int -> int array -> int -> int array -> int -> int -> unit) ->
  unit
(** Lock-step iteration over two equal-length columns:
    [f pos abuf aoff bbuf boff len].
    @raise Invalid_argument on a length mismatch. *)

val iter_seg2_range :
  t ->
  t ->
  pos:int ->
  len:int ->
  f:(int -> int array -> int -> int array -> int -> int -> unit) ->
  unit
(** {!iter_seg2} restricted to rows [pos..pos+len-1] — the morsel-range
    form consumed by parallel operators. *)

val iteri : t -> f:(int -> int -> unit) -> unit
(** [iteri t ~f] calls [f i (get t i)] for every row, in order. *)

(** {1 Column-wide helpers} *)

val is_sorted : t -> bool
val min_max : t -> int * int
(** @raise Invalid_argument on an empty column. *)

val range : int -> int -> int option
(** [range lo hi] is the number of integers in [\[lo, hi\]] ([Some 0]
    when [hi < lo]), or [None] when that count does not fit in an
    [int] — e.g. [range (min_int + 1) max_int].  Every domain-size
    check goes through it, so a full-range domain never wraps into a
    small positive size. *)

val equal : t -> t -> bool
(** Content equality, independent of backend. *)
