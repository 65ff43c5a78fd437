(** Plan explanation: render optimiser decisions for humans. *)

val entry : Format.formatter -> Pareto.entry -> unit
(** Plan tree with total cost, output cardinality, and properties. *)

val comparison :
  ?model:Dqo_cost.Model.t ->
  ?pool:Dqo_par.Pool.t ->
  Catalog.t ->
  Dqo_plan.Logical.t ->
  string
(** Side-by-side SQO vs DQO report for a query: both chosen plans, both
    costs, and the improvement factor.  With [?pool], both searches fan
    their DP levels over the pool; the report is byte-identical either
    way. *)

(** {2 EXPLAIN ANALYZE}

    Per-node cardinality estimation for a fixed physical plan — using
    the same formulas the search used to choose it — plus rendering of
    the executed, annotated tree.  Execution itself lives in the engine
    layer; this module only estimates and renders. *)

val estimate_props : ?feedback:Dqo_cost.Feedback.t -> Catalog.t
  -> Dqo_plan.Physical.t -> Dqo_plan.Props.t * int
(** Derived properties and estimated output rows of a plan node,
    computed bottom-up.  With [?feedback], the same learned correction
    factors the search applied are folded into each node's estimate, so
    EXPLAIN ANALYZE reports exactly the arithmetic that ranked the plan.
    @raise Not_found if the plan scans a relation absent from the
    catalog. *)

val estimated_rows : ?feedback:Dqo_cost.Feedback.t -> Catalog.t
  -> Dqo_plan.Physical.t -> int
(** [snd (estimate_props catalog p)]. *)

type analyzed = {
  op : string;  (** One-line node label ({!Dqo_plan.Physical.op_label}). *)
  est_rows : int;  (** The optimiser's cardinality estimate. *)
  actual_rows : int;  (** Rows the node actually produced. *)
  wall_ns : int;
      (** Cumulative wall time: includes the node's inputs, like the
          actual-time column of a conventional EXPLAIN ANALYZE. *)
  children : analyzed list;
}
(** An executed plan node annotated with observed behaviour. *)

val q_error : est:int -> actual:int -> float
(** [max (est / actual) (actual / est)] — the standard estimation-
    quality metric, {!Dqo_cost.Feedback.q_error}.  Zero counts score as
    half a row, so an estimate of 0 against an actual of [n] reports
    [2n] instead of a clamped (and misleading) 1.0. *)

val max_q_error : analyzed -> float
(** Worst per-node q-error anywhere in an executed tree. *)

val observations :
  Catalog.t -> Dqo_plan.Physical.t -> analyzed ->
  (Dqo_cost.Feedback.key * int * int) list
(** Pair an executed plan with its annotated tree and emit one
    [(key, est_rows, actual_rows)] triple per filter, join, and grouping
    node — the raw material of the cardinality-feedback loop, in
    pre-order.  Filter and join estimates (linear in their inputs) are
    normalised by the children's actual/estimated ratio first, so a key
    learns only its node's {e residual} error, not the error inherited
    from a misestimated input (which that input's own key already
    accounts for).  A grouping estimate is distinct-capped rather than
    linear: a row-limited one (est = input est) carries no group-specific
    signal and is skipped; a distinct-limited one is scored against
    [min est actual_input]. *)

val render_analysis : ?cost:float -> ?stats:Search.stats
  -> ?hier:Hier.report -> analyzed -> string
(** Human-readable EXPLAIN ANALYZE report: one row per node with
    estimated vs. actual rows, q-error, and cumulative time, plus the
    plan's estimated cost and the optimiser statistics when given —
    including, for the join DP, per-level pruning counts.  With
    [?hier], the hierarchical partition tree ({!Hier.render_report}) is
    appended. *)

val analyzed_to_json : analyzed -> Dqo_obs.Json.t
