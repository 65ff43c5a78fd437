(** The query engine facade: catalog, optimisation, execution, and
    algorithmic-view management in one handle.

    {[
      let db = Engine.create () in
      Engine.register db ~name:"R" r;
      Engine.register db ~name:"S" s;
      let result =
        Engine.run_sql db ~mode:Engine.DQO
          "SELECT a, COUNT(STAR) FROM R JOIN S ON id = r_id GROUP BY a"
      in
      ...
    ]}

    (write [*] for [STAR]; the bracket syntax above avoids a nested
    OCaml comment). *)

type t

type mode = SQO | DQO
(** Which optimiser plans the query — the paper's shallow baseline or
    deep query optimisation. *)

type opts = {
  mode : mode;  (** Default optimiser for [run]/[run_sql]/[prepare]. *)
  threads : int;
      (** Default execution parallelism: the hot operators run on a
          [threads]-domain pool when [> 1].  Results are identical to
          [threads = 1] — the parallel operators are deterministic by
          construction. *)
  feedback : bool;
      (** Close the cardinality-feedback loop: planning reads the
          handle's correction store ({!corrections}), and every
          [run] / prepared / analysed execution runs annotated, diffing
          per-node estimates against actuals and folding the result
          back into the store. *)
  qerror_threshold : float;
      (** With [feedback], a prepared statement whose worst observed
          per-node q-error reaches this value is considered {e drifted}
          and auto-replans on the next opt-in execution (serving does
          this transparently).  Must be at least 1.0. *)
  hier : bool;
      (** Force hierarchical join planning ({!Dqo_opt.Hier}): partition
          the join graph, solve each partition with the exact DP, and
          stitch the partitions over the quotient graph.  Off by
          default — but see [hier_threshold], which routes big queries
          hierarchically regardless. *)
  hier_threshold : int;
      (** Queries joining more than this many relations plan
          hierarchically even with [hier = false] (default 16, at least
          1) — the escape hatch that keeps the Θ(3{^n}) exhaustive DP
          off 20-plus-relation (and beyond-64-relation) queries. *)
  partition_max : int;
      (** Largest partition the hierarchical planner's greedy
          partitioner may grow (default 12, at least 1); each partition
          is solved exactly, so this bounds per-partition DP cost. *)
}
(** Execution options carried by the engine handle.  Entry points read
    these options instead of taking scattered [?mode] / [?threads] /
    [?pool] optionals: set options once via {!create} or {!set_opts}.
    Two deliberate exceptions remain.  {!run} / {!run_sql} keep
    per-call [?mode] / [?threads] as the one thin compatibility
    override, and {!prepare} keeps [?mode] (the optimiser choice is
    part of the statement).  A caller-owned pool — a {e resource}, not
    an option — is passed to the [_on] variants ({!plan_on},
    {!prepare_on}, {!reprepare_on}, {!execute_on},
    {!execute_analyzed_on}, {!execute_prepared_on}). *)

val default_opts : opts
(** [{ mode = DQO; threads = 1; feedback = false;
      qerror_threshold = 2.0; hier = false; hier_threshold = 16;
      partition_max = 12 }]. *)

val create : ?model:Dqo_cost.Model.t -> ?opts:opts -> unit -> t
(** Fresh engine; the cost model defaults to the paper's Table 2 and
    the execution options to {!default_opts}.
    @raise Invalid_argument if [opts.threads < 1],
    [opts.qerror_threshold < 1.0], [opts.hier_threshold < 1], or
    [opts.partition_max < 1]. *)

val opts : t -> opts

val set_opts : t -> opts -> unit
(** Replace the handle's execution options.
    @raise Invalid_argument if [opts.threads < 1],
    [opts.qerror_threshold < 1.0], [opts.hier_threshold < 1], or
    [opts.partition_max < 1]. *)

val corrections : t -> Dqo_cost.Feedback.t
(** The handle's cardinality-correction store.  Always present;
    [opts.feedback] gates whether planning consults it and execution
    feeds it, so toggling the option preserves what was learned. *)

val register : t -> name:string -> Dqo_data.Relation.t -> unit
(** Add a base relation; its statistics (sortedness, density, distinct
    counts, co-ordering) are measured immediately.
    @raise Invalid_argument if the name is taken. *)

val relation : t -> string -> Dqo_data.Relation.t
(** @raise Not_found for unknown names. *)

val catalog : t -> Dqo_opt.Catalog.t

val plan : t -> mode -> Dqo_plan.Logical.t -> Dqo_opt.Pareto.entry
(** Optimise a logical plan without executing it.  With
    [opts.threads > 1] the DP search fans its per-cardinality levels
    over a per-call domain pool; the chosen plan is byte-identical for
    any pool size.  Queries routed hierarchically — [opts.hier], or
    more relations than [opts.hier_threshold] — plan through
    {!Dqo_opt.Hier} with [opts.partition_max]. *)

val plan_on :
  t -> pool:Dqo_par.Pool.t -> mode -> Dqo_plan.Logical.t -> Dqo_opt.Pareto.entry
(** {!plan} on a caller-owned pool (e.g. a server's long-lived one). *)

val plan_sql : t -> mode -> string -> Dqo_opt.Pareto.entry

val plan_sql_on :
  t -> pool:Dqo_par.Pool.t -> mode -> string -> Dqo_opt.Pareto.entry

val execute : t -> Dqo_plan.Physical.t -> Dqo_data.Relation.t
(** Run a physical plan against the stored relations.  With
    [opts.threads = n > 1] the hot operators — hash joins, hash
    grouping, dense SPH grouping, the partition scatter — run on an
    [n]-domain {!Dqo_par.Pool}; results are identical to the
    sequential path (the parallel operators are deterministic by
    construction).  [opts.threads = 1] takes the pure sequential code
    path.  The pool is created and torn down per call; a serving front
    end should hold one long-lived pool and use {!execute_on} instead.
    @raise Not_found / Invalid_argument on plans referencing unknown
    relations or columns. *)

val execute_on :
  t -> pool:Dqo_par.Pool.t -> Dqo_plan.Physical.t -> Dqo_data.Relation.t
(** Like {!execute}, but on a caller-owned pool — the building block of
    the serving front end ([Dqo_serve]), which multiplexes many
    requests onto one long-lived pool.  A pool of size 1 takes the
    sequential path; results are byte-identical either way. *)

val run : t -> ?mode:mode -> ?threads:int -> Dqo_plan.Logical.t -> Dqo_data.Relation.t
(** Optimise and execute; [mode]/[threads] default to the handle's
    {!opts}.  With [threads > 1] one pool serves both phases: the DP
    search fans its levels over it, then the chosen plan executes on
    the same domains. *)

val run_sql : t -> ?mode:mode -> ?threads:int -> string -> Dqo_data.Relation.t

val explain_sql : t -> string -> string
(** SQO-vs-DQO comparison report for the query; both searches run over
    a pool when the handle's {!opts} ask for more than one thread. *)

val execute_analyzed :
  t ->
  ?metrics:Dqo_obs.Metrics.t ->
  Dqo_plan.Physical.t ->
  Dqo_data.Relation.t * Dqo_opt.Explain.analyzed
(** Like {!execute}, but annotates every plan node with its actual row
    count and cumulative wall time, and records per-operator metrics
    into [metrics] (a private registry when omitted).  With
    [opts.threads = n > 1] the plan is stamped with
    [Physical.with_dop n] (so node labels carry [[dop=n]]) and executed
    over an [n]-domain pool; each domain records into a private
    registry merged into [metrics] after the barrier, keeping the
    numbers correct under parallelism.

    With [opts.feedback] enabled, per-node estimates fold in the learned
    corrections, and after the run the tree is diffed against the
    estimates: corrections land in {!corrections} and the q-error
    distribution in [metrics] ([feedback.qerror], per-observation;
    [feedback.observations]). *)

val execute_analyzed_on :
  t ->
  pool:Dqo_par.Pool.t ->
  ?metrics:Dqo_obs.Metrics.t ->
  Dqo_plan.Physical.t ->
  Dqo_data.Relation.t * Dqo_opt.Explain.analyzed
(** {!execute_analyzed} on a caller-owned pool (its size supplies the
    [dop] stamp). *)

type analysis = {
  entry : Dqo_opt.Pareto.entry;  (** The chosen plan with its cost. *)
  root : Dqo_opt.Explain.analyzed;  (** The executed, annotated tree. *)
  result : Dqo_data.Relation.t;
  search_stats : Dqo_opt.Search.stats;
  metrics : Dqo_obs.Metrics.t;
  hier : Dqo_opt.Hier.report option;
      (** The partition report when the query planned hierarchically
          ([opts.hier] or past [opts.hier_threshold]); [None] for
          exhaustive searches. *)
}
(** Everything EXPLAIN ANALYZE observed about one query. *)

val explain_analyze : t -> Dqo_plan.Logical.t -> analysis
(** Optimise with [opts.mode], execute with {!execute_analyzed}, and
    return the full analysis.  With [opts.threads > 1] one pool serves
    both phases; the optimiser's [opt.dp.*] counters and per-level wall
    times land in [metrics] alongside the executor's. *)

val explain_analyze_sql : t -> string -> string
(** {!explain_analyze} on parsed SQL, rendered with
    {!Dqo_opt.Explain.render_analysis}: per-node estimated vs. actual
    rows, q-error, time, and the optimiser statistics. *)

val analysis_to_json : analysis -> Dqo_obs.Json.t
(** The analysis as a JSON document: estimated cost, annotated plan,
    optimiser trace, and the executor's metrics registry. *)

type adaptive_report = {
  static_grouping : string;
      (** Grouping implementation the static deep optimiser chose. *)
  adaptive_grouping : string;
      (** Implementation chosen after measuring the real intermediate. *)
  replanned : bool;  (** The two differ. *)
}

val run_adaptive : t -> Dqo_plan.Logical.t -> Dqo_data.Relation.t * adaptive_report
(** Mid-query re-optimisation (paper §6, "Runtime-Adaptivity and
    Reoptimisation of AVs"): for a [Group_by] query, execute the input
    subplan first, {e measure} the intermediate's actual properties
    (sortedness, clustering, density — including those the static
    optimiser had to discard under the black-box assumption, cf. §2.1),
    and re-optimise the grouping against the measured reality.  For
    other query shapes this degrades to {!run} with
    [replanned = false]. *)

type prepared
(** A pre-optimised query, the "prepared statement" of the paper's §3
    analogy: optimisation happened once at prepare time; execution
    reuses the stored physical plan.  The handle records the engine's
    {!av_generation} at prepare time, so executing against a changed
    physical design is detected instead of silently served. *)

exception
  Stale_plan of {
    sql : string;
    prepared_generation : int;
    engine_generation : int;
  }
(** The prepared plan predates a physical-design change
    ([install_av] / [register]); re-prepare or pass [~reprepare:true]. *)

val av_generation : t -> int
(** Physical-design generation: starts at 0, bumped by every
    {!register}, {!install_av}, and {!uninstall_av}. *)

val prepare : t -> ?mode:mode -> string -> prepared
(** Parse, bind and optimise once ([mode] defaults to the handle's
    {!opts} — the optimiser choice is part of the statement, so the
    per-call override stays).  Optimisation runs through {!plan},
    parallelising over the handle's [opts.threads].
    @raise Dqo_sql.Parser.Error / Dqo_sql.Binder.Error on bad SQL. *)

val prepare_on : t -> pool:Dqo_par.Pool.t -> ?mode:mode -> string -> prepared
(** {!prepare} optimising on a caller-owned pool. *)

val prepared_entry : prepared -> Dqo_opt.Pareto.entry
(** The stored plan with its estimated cost and properties. *)

val prepared_sql : prepared -> string
val prepared_mode : prepared -> mode

val prepared_generation : prepared -> int
(** The engine generation the stored plan was optimised against. *)

val prepared_stale : t -> prepared -> bool
(** The physical design changed since this plan was (re-)prepared. *)

val prepared_worst_q : prepared -> float
(** Worst per-node q-error observed while executing this plan since it
    was last (re-)prepared; [1.0] before any feedback execution. *)

val prepared_drifted : t -> prepared -> bool
(** {!prepared_worst_q} has reached [opts.qerror_threshold] with
    [opts.feedback] on: the plan was chosen from estimates now known to
    be off by at least that factor, and replanning against the
    corrected store is warranted. *)

val reprepare : t -> prepared -> unit
(** Re-optimise the stored plan against the current catalog (and, with
    feedback on, the current correction store), stamp the handle with
    the current generation, and reset the statement's worst observed
    q-error. *)

val reprepare_on : t -> pool:Dqo_par.Pool.t -> prepared -> unit
(** {!reprepare} optimising on a caller-owned pool. *)

val execute_prepared :
  t ->
  ?metrics:Dqo_obs.Metrics.t ->
  ?reprepare:bool ->
  prepared ->
  Dqo_data.Relation.t
(** Run the stored plan; no optimiser work happens on the fresh path.
    If the physical design changed since prepare time, raises
    {!Stale_plan} — or transparently re-optimises first when
    [~reprepare:true].  With [~reprepare:true] a {!prepared_drifted}
    plan also re-optimises (drift never raises: the plan is still
    correct, just suboptimal).  With [opts.feedback] the execution runs
    analysed — corrections land in {!corrections}, q-errors in
    [?metrics], and the statement's {!prepared_worst_q} updates.
    Parallelism comes from the handle's [opts.threads]. *)

val execute_prepared_on :
  t ->
  pool:Dqo_par.Pool.t ->
  ?metrics:Dqo_obs.Metrics.t ->
  ?reprepare:bool ->
  prepared ->
  Dqo_data.Relation.t
(** {!execute_prepared} on a caller-owned pool (see {!execute_on});
    with [~reprepare:true], a stale- or drifted-plan re-optimisation
    also runs on that pool. *)

val run_with_views : t -> Dqo_plan.Logical.t -> Dqo_data.Relation.t * bool
(** Like {!run}, but first tries to answer the query from an installed
    materialised-grouping AV: [GROUP BY key] over a base relation whose
    [Grouping_result] view exists, with aggregates limited to [COUNT]
    and [SUM(key)], is rewritten to a scan of the materialised result.
    Returns the result and whether a view was used. *)

val install_av : t -> Dqo_av.View.t -> unit
(** Materialise an algorithmic view and update the catalog: a sorted
    projection physically reorders the stored relation; a perfect-hash
    AV builds (and stores) a dense-domain or FKS structure that the
    executor uses whenever a plan calls for SPH on that column; a
    grouping result stores the per-group COUNT/SUM relation.  The
    structure's resident bytes are measured and recorded (see
    {!av_bytes}).  Bumps {!av_generation}, invalidating outstanding
    {!prepared} plans.  Once a [Grouping_result] view is installed,
    {!plan} (and everything funnelling through it) rewrites servable
    [GROUP BY] queries onto the view relation — see
    {!Dqo_av.View.rewrite_through}.
    @raise Invalid_argument if a view with the same id is installed. *)

val uninstall_av : t -> string -> unit
(** Evict the installed view with this id ({!Dqo_av.View.t}[.id]): a
    perfect-hash AV drops its FKS structure, a grouping result drops
    the materialised relation, and a sorted projection drops only its
    accounting entry (the stored rows stay physically sorted — the
    rebuilt catalog re-measures them, so the optimiser keeps seeing
    the still-true order).  Bumps {!av_generation}, so outstanding
    {!prepared} plans revalidate and replan away from the view.
    @raise Invalid_argument for an id that is not installed. *)

val installed_avs : t -> Dqo_av.View.t list

val installed_av_sizes : t -> (Dqo_av.View.t * int) list
(** Installed views with the resident bytes measured at install time. *)

val av_bytes : t -> int
(** Total resident bytes of every installed view — what an advisor's
    memory budget is enforced against. *)
