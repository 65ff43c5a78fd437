(** Deep Query Optimisation — the paper's contribution.

    The same dynamic programming as the shallow baseline
    ({!Search.Shallow}), but over the full DQO property vector
    (density, clustering, co-ordering, domain bounds in addition to
    sortedness) and, with a molecule-aware cost model, over
    sub-operator alternatives (hash-table layout, hash function).  The
    SPH-based operators become reachable exactly when the tracked
    properties prove them applicable. *)

val optimize :
  ?model:Dqo_cost.Model.t ->
  ?pool:Dqo_par.Pool.t ->
  Catalog.t ->
  Dqo_plan.Logical.t ->
  Pareto.entry
(** Cheapest deep plan; with [?pool], DP levels fan out over the pool
    (byte-identical result — see {!Search}). *)

val pareto :
  ?model:Dqo_cost.Model.t ->
  ?pool:Dqo_par.Pool.t ->
  Catalog.t ->
  Dqo_plan.Logical.t ->
  Pareto.entry list * Search.stats

val improvement_factor :
  ?model:Dqo_cost.Model.t ->
  ?pool:Dqo_par.Pool.t ->
  Catalog.t ->
  Dqo_plan.Logical.t ->
  float
(** SQO-best-cost / DQO-best-cost — the quantity reported in the
    paper's Figure 5. *)
