module Relation = Dqo_data.Relation
module Schema = Dqo_data.Schema
module Column = Dqo_data.Column
module Int_col = Dqo_data.Int_col
module Physical = Dqo_plan.Physical
module Logical = Dqo_plan.Logical
module Catalog = Dqo_opt.Catalog
module Grouping = Dqo_exec.Grouping
module Join = Dqo_exec.Join
module Aggregate = Dqo_exec.Aggregate
module Fks = Dqo_hash.Perfect.Fks

type mode = SQO | DQO

type opts = {
  mode : mode;
  threads : int;
  feedback : bool;
  qerror_threshold : float;
  hier : bool;
  hier_threshold : int;
  partition_max : int;
}

let default_opts =
  {
    mode = DQO;
    threads = 1;
    feedback = false;
    qerror_threshold = 2.0;
    hier = false;
    hier_threshold = 16;
    partition_max = 12;
  }

let check_opts o =
  if o.threads < 1 then invalid_arg "Engine.opts: threads < 1";
  if o.qerror_threshold < 1.0 then
    invalid_arg "Engine.opts: qerror_threshold < 1.0";
  if o.hier_threshold < 1 then invalid_arg "Engine.opts: hier_threshold < 1";
  if o.partition_max < 1 then invalid_arg "Engine.opts: partition_max < 1";
  o

type t = {
  model : Dqo_cost.Model.t;
  mutable opts : opts;
  mutable relations : (string * Relation.t) list;
  mutable catalog : Catalog.t;
  (* Installed views with the resident bytes measured at install time,
     so an advisor can enforce a memory budget against reality. *)
  mutable avs : (Dqo_av.View.t * int) list;
  (* Bumped whenever the physical design changes
     (register / install_av / uninstall_av); prepared statements
     snapshot it so stale plans are detectable. *)
  mutable generation : int;
  (* Perfect-hash structures built by AVs, keyed by (relation, column);
     the executor consults these when a plan prescribes SPH on a column
     whose physical domain is not dense. *)
  fks_index : (string * string, Fks.t) Hashtbl.t;
  (* Cardinality corrections learned from analysed executions.  Always
     allocated; [opts.feedback] gates whether planning reads it and
     execution writes it, so toggling the option never loses what was
     already learned. *)
  corrections : Dqo_cost.Feedback.t;
}

let create ?(model = Dqo_cost.Model.table2) ?(opts = default_opts) () =
  {
    model;
    opts = check_opts opts;
    relations = [];
    catalog = Catalog.create [];
    avs = [];
    generation = 0;
    fks_index = Hashtbl.create 8;
    corrections = Dqo_cost.Feedback.create ();
  }

let opts t = t.opts
let set_opts t o = t.opts <- check_opts o
let av_generation t = t.generation
let corrections t = t.corrections

(* The store the planner / analyser should consult right now. *)
let active_feedback t = if t.opts.feedback then Some t.corrections else None

(* Per-call [?mode] / [?threads] overrides fall back to the handle's
   execution options. *)
let resolve_mode t mode = Option.value ~default:t.opts.mode mode
let resolve_threads t threads = Option.value ~default:t.opts.threads threads

let installed_avs t = List.map fst t.avs
let installed_av_sizes t = t.avs
let av_bytes t = List.fold_left (fun acc (_, b) -> acc + b) 0 t.avs

let rebuild_catalog t =
  (* Grouping-result AVs already exist as stored relations and are
     measured directly; re-applying them would duplicate the catalog
     entry. *)
  let catalog_level_avs =
    List.filter
      (fun (v : Dqo_av.View.t) ->
        match v.Dqo_av.View.kind with
        | Dqo_av.View.Grouping_result _ -> false
        | Dqo_av.View.Sorted_projection _ | Dqo_av.View.Perfect_hash _ -> true)
      (installed_avs t)
  in
  t.catalog <-
    Dqo_av.View.apply_all
      (Catalog.create
         (List.map (fun (n, r) -> Catalog.of_relation n r) t.relations))
      catalog_level_avs

let register t ~name rel =
  if List.mem_assoc name t.relations then
    invalid_arg ("Engine.register: relation already registered: " ^ name);
  t.relations <- t.relations @ [ (name, rel) ];
  t.generation <- t.generation + 1;
  rebuild_catalog t

let relation t name =
  match List.assoc_opt name t.relations with
  | Some r -> r
  | None -> raise Not_found

let catalog t = t.catalog

(* Whether [l] should be planned hierarchically: opted in explicitly,
   or past the relation-count threshold beyond which the exhaustive
   DP's cost blows up. *)
let hier_route t l =
  t.opts.hier || List.length (Logical.relations l) > t.opts.hier_threshold

(* Planning honours the same parallel-runtime conventions as execution:
   an explicit pool (the [_on] variants, e.g. the server's long-lived
   pool) wins, otherwise [opts.threads]; the DP search fans its levels
   over the pool and returns byte-identical plans either way. *)
let plan_in t ?pool ?threads mode l =
  let search_mode =
    match mode with SQO -> Dqo_opt.Search.Shallow | DQO -> Dqo_opt.Search.Deep
  in
  (* A GROUP BY answerable from an installed materialised-grouping AV is
     rewritten onto the view relation before the search, so every entry
     point funnelling through [plan] (run, prepare, reprepare, serving)
     realises the view's benefit. *)
  let l = Dqo_av.View.rewrite_through (installed_avs t) l in
  let feedback = active_feedback t in
  let search ?pool () =
    if hier_route t l then
      fst
        (Dqo_opt.Hier.optimize ~model:t.model ?pool ?feedback
           ~partition_max:t.opts.partition_max search_mode t.catalog l)
    else
      Dqo_opt.Search.optimize ~model:t.model ?pool ?feedback search_mode
        t.catalog l
  in
  match pool with
  | Some _ -> search ?pool ()
  | None ->
    let threads = resolve_threads t threads in
    if threads = 1 then search ()
    else Dqo_par.Pool.with_pool ~domains:threads (fun pool -> search ~pool ())

let plan t mode l = plan_in t mode l
let plan_on t ~pool mode l = plan_in t ~pool mode l
let plan_sql t mode sql = plan_in t mode (Dqo_sql.Binder.plan_of_sql t.catalog sql)

let plan_sql_on t ~pool mode sql =
  plan_in t ~pool mode (Dqo_sql.Binder.plan_of_sql t.catalog sql)

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)

(* The base relation column [col] of [p]'s output comes from.  A join
   keeps its left input's column on a name clash (the right one is
   primed), so the left input answers first. *)
let rec source_relation t (p : Physical.t) col =
  match p with
  | Physical.Table_scan name ->
    if Schema.mem (Relation.schema (relation t name)) col then Some name
    else None
  | Physical.Filter_op (sub, _, _)
  | Physical.Project_op (sub, _)
  | Physical.Sort_enforcer (sub, _) ->
    source_relation t sub col
  | Physical.Join_op (l, r, _, _, _) -> (
    match source_relation t l col with
    | Some _ as found -> found
    | None -> source_relation t r col)
  | Physical.Group_op (sub, key, _, _) ->
    if String.equal key col then source_relation t sub col else None

(* The perfect hash a perfect-hash AV built over [col]'s source
   relation, for SPH on [col] of [p]'s output when its domain is
   sparse; raises like the planner's precondition failed otherwise. *)
let fks_for t ~op (p : Physical.t) col =
  match
    Option.bind (source_relation t p col) (fun rel ->
        Hashtbl.find_opt t.fks_index (rel, col))
  with
  | Some fks -> fks
  | None ->
    invalid_arg
      ("Engine: " ^ op ^ " chosen for sparse column " ^ col
     ^ " without a perfect-hash AV")

(* The slot array of an SPH kernel covers the whole [lo, hi] domain of
   its key column; that is affordable whenever the domain is within a
   small factor of the input (a dense base column stays eligible even
   when a join or filter thinned it out).  [None] means a truly sparse
   domain, which needs the FKS perfect hash built offline by an AV.  The
   bounds come from one min/max scan: the planner already chose SPH
   from the catalog's statistics, so nothing else is measured here. *)
let sph_bounds col =
  let lo, hi = Int_col.min_max col in
  match Int_col.range lo hi with
  | Some range when range <= 4 * (Int_col.length col + 1024) -> Some (lo, hi)
  | Some _ | None -> None

(* [pool]/[metrics] thread the parallel runtime through the executor:
   when a pool with more than one domain is present, the hot operators
   run their [Dqo_par] counterparts (per-domain metrics registries merge
   into [metrics] after each barrier).  [need] lists the output columns
   the parent reads ([None]: all of them). *)
let exec_join t ?pool ?metrics ?need ~lplan left_rel right_rel lc rc
    (impl : Physical.join_impl) =
  let lk = Relation.int_col left_rel lc in
  let rk = Relation.int_col right_rel rc in
  let pairs =
    match impl.Physical.j_alg with
    | Join.HJ -> (
      match pool with
      | Some pool when Dqo_par.Pool.size pool > 1 ->
        Dqo_par.Par_join.partitioned_hash_join pool ?metrics
          ~hash:impl.Physical.j_hash ~table:impl.Physical.j_table ~left:lk
          ~right:rk ()
      | Some _ | None ->
        Join.hash_join ~hash:impl.Physical.j_hash
          ~table:impl.Physical.j_table ~left:lk ~right:rk ())
    | Join.OJ -> Join.merge_join ~left:lk ~right:rk
    | Join.SOJ -> Join.sort_merge_join ~left:lk ~right:rk
    | Join.BSJ -> Join.binary_search_join ~left:lk ~right:rk
    | Join.SPHJ when Int_col.length lk = 0 ->
      (* An empty build side has no domain ([lo > hi]) and no matches. *)
      { Join.left = [||]; right = [||] }
    | Join.SPHJ -> (
      match sph_bounds lk with
      | Some (lo, hi) -> Join.sph_join ~lo ~hi ~left:lk ~right:rk
      | None -> Join.fks_join (fks_for t ~op:"SPHJ" lplan lc) ~left:lk ~right:rk)
  in
  Join.materialize ?only:need left_rel right_rel pairs

(* The five-algorithm fast path computes COUNT and SUM over one payload
   column; it applies when every aggregate is COUNT or SUM over a single
   shared column. *)
let fast_path_payload aggs =
  let only_count_sum =
    List.for_all
      (fun (a : Logical.aggregate) ->
        match a.Logical.spec with
        | Aggregate.Count | Aggregate.Sum -> true
        | Aggregate.Min | Aggregate.Max | Aggregate.Avg -> false)
      aggs
  in
  if not only_count_sum then None
  else begin
    let sum_cols =
      List.sort_uniq String.compare
        (List.filter_map
           (fun (a : Logical.aggregate) ->
             match a.Logical.spec with
             | Aggregate.Sum -> a.Logical.column
             | Aggregate.Count | Aggregate.Min | Aggregate.Max
             | Aggregate.Avg ->
               None)
           aggs)
    in
    match sum_cols with
    | [] -> Some None
    | [ c ] -> Some (Some c)
    | _ :: _ :: _ -> None
  end

let group_fast t ?pool ?metrics ~sub rel key aggs payload_col
    (impl : Physical.grouping_impl) =
  let keys = Relation.int_col rel key in
  let values =
    match payload_col with
    | Some c -> Relation.int_col rel c
    (* COUNT-only grouping: an O(1) constant column instead of an
       n-element zero array — at paper scale that is the difference
       between nothing and 800 MB. *)
    | None -> Int_col.const (Int_col.length keys) 0
  in
  let parallel =
    match pool with
    | Some pool when Dqo_par.Pool.size pool > 1 -> Some pool
    | Some _ | None -> None
  in
  let result =
    match impl.Physical.g_alg with
    | Grouping.HG -> (
      match parallel with
      | Some pool ->
        (* Figure 2's partitionBy rewrite, run for real: key-disjoint
           partitions aggregated by private per-domain hash tables. *)
        Dqo_par.Par_group.partition_based pool ?metrics
          ~hash:impl.Physical.g_hash ~table:impl.Physical.g_table ~keys
          ~values ()
      | None ->
        Grouping.hash_based ~hash:impl.Physical.g_hash
          ~table:impl.Physical.g_table ~keys ~values ())
    | Grouping.OG -> Grouping.order_based ~keys ~values ()
    | Grouping.SOG -> Grouping.sort_order_based ~keys ~values
    | Grouping.BSG ->
      Grouping.binary_search_based
        ~universe:(Dqo_util.Int_array.distinct_sorted (Int_col.to_array keys))
        ~keys ~values
    | Grouping.SPHG when Int_col.length keys = 0 ->
      (* An empty input has no domain ([lo > hi]) and no groups. *)
      { Dqo_exec.Group_result.keys = [||]; counts = [||]; sums = [||] }
    | Grouping.SPHG -> (
      (* Same affordability rule as the SPH join. *)
      match sph_bounds keys with
      | Some (lo, hi) -> (
        match parallel with
        | Some pool -> Dqo_par.Par_group.sph pool ?metrics ~lo ~hi ~keys ~values ()
        | None -> Grouping.sph_based ~lo ~hi ~keys ~values)
      | None -> Grouping.fks_based (fks_for t ~op:"SPHG" sub key) ~keys ~values)
  in
  let agg_column (a : Logical.aggregate) =
    match a.Logical.spec with
    | Aggregate.Count ->
      Column.of_ints (Array.copy result.Dqo_exec.Group_result.counts)
    | Aggregate.Sum ->
      Column.of_ints (Array.copy result.Dqo_exec.Group_result.sums)
    | Aggregate.Min | Aggregate.Max | Aggregate.Avg -> assert false
  in
  let schema =
    Schema.of_names
      ((key, Schema.T_int)
      :: List.map (fun (a : Logical.aggregate) -> (a.Logical.alias, Schema.T_int)) aggs)
  in
  Relation.create schema
    (Column.of_ints result.Dqo_exec.Group_result.keys
    :: List.map agg_column aggs)

(* Generic grouped aggregation: insertion-ordered slots from a linear-
   probing table, one Aggregate.state per (group, aggregate). *)
let group_generic rel key aggs =
  let keys = Relation.int_col rel key in
  let n = Int_col.length keys in
  let tbl = Dqo_hash.Linear_probe.create ~expected:1024 () in
  let group_keys = ref [] in
  let n_aggs = List.length aggs in
  let states = ref (Array.make (16 * n_aggs) (Aggregate.init Aggregate.Count)) in
  let agg_arr = Array.of_list aggs in
  let columns =
    Array.map
      (fun (a : Logical.aggregate) ->
        match a.Logical.column with
        | Some c -> Some (Relation.int_col rel c)
        | None -> None)
      agg_arr
  in
  let groups = ref 0 in
  for i = 0 to n - 1 do
    let ki = Int_col.get keys i in
    let slot = Dqo_hash.Linear_probe.find_or_add tbl ki in
    if slot = !groups then begin
      (* New group: remember its key and initialise its states. *)
      group_keys := ki :: !group_keys;
      incr groups;
      if !groups * n_aggs > Array.length !states then begin
        let bigger =
          Array.make (2 * Array.length !states) (Aggregate.init Aggregate.Count)
        in
        Array.blit !states 0 bigger 0 Array.(length !states);
        states := bigger
      end;
      Array.iteri
        (fun j (a : Logical.aggregate) ->
          !states.((slot * n_aggs) + j) <- Aggregate.init a.Logical.spec)
        agg_arr
    end;
    Array.iteri
      (fun j (a : Logical.aggregate) ->
        let v =
          match columns.(j) with Some c -> Int_col.get c i | None -> 0
        in
        let idx = (slot * n_aggs) + j in
        !states.(idx) <- Aggregate.step a.Logical.spec !states.(idx) v)
      agg_arr
  done;
  let g = !groups in
  let key_arr = Array.make (max 1 g) 0 in
  List.iteri (fun i k -> key_arr.(g - 1 - i) <- k) !group_keys;
  let key_arr = Array.sub key_arr 0 g in
  let agg_col j (a : Logical.aggregate) =
    let values =
      Array.init g (fun slot ->
          Aggregate.finalize a.Logical.spec !states.((slot * n_aggs) + j))
    in
    match a.Logical.spec with
    | Aggregate.Avg ->
      ( Schema.T_float,
        Column.Floats
          (Array.map
             (function
               | Dqo_data.Value.Float f -> f
               | Dqo_data.Value.Int i -> Float.of_int i
               | Dqo_data.Value.Null | Dqo_data.Value.String _ -> nan)
             values) )
    | Aggregate.Count | Aggregate.Sum | Aggregate.Min | Aggregate.Max ->
      ( Schema.T_int,
        Column.of_ints
          (Array.map
             (function
               | Dqo_data.Value.Int i -> i
               | Dqo_data.Value.Null | Dqo_data.Value.Float _
               | Dqo_data.Value.String _ ->
                 0)
             values) )
  in
  let typed = List.mapi agg_col aggs in
  let schema =
    Schema.of_names
      ((key, Schema.T_int)
      :: List.map2
           (fun (a : Logical.aggregate) (ty, _) -> (a.Logical.alias, ty))
           aggs typed)
  in
  Relation.create schema (Column.of_ints key_arr :: List.map snd typed)

(* Late materialisation.  Every node is evaluated knowing [need], the
   columns its parent reads ([None] at the root, which keeps its full
   schema); a join gathers only those.  Nodes below it may return more
   columns than needed — parents address columns by name.  A primed name
   is a right-side clash renamed by [Schema.concat]; which names clash
   depends on what the inputs keep, so a join whose parent reads one
   gathers everything. *)
let with_col need col = Option.map (fun names -> col :: names) need

let join_need need =
  match need with
  | Some names when List.exists (fun n -> String.contains n '\'') names -> None
  | need -> need

let group_reads key aggs =
  key :: List.filter_map (fun (a : Logical.aggregate) -> a.Logical.column) aggs

(* One plan node; [child need sub] evaluates an input.  Inputs are
   evaluated left to right. *)
let exec_node t ?pool ?metrics ~need ~child (p : Physical.t) =
  match p with
  | Physical.Table_scan name -> relation t name
  | Physical.Filter_op (sub, col, pred) ->
    Dqo_exec.Filter.select_relation (child (with_col need col) sub) ~column:col
      pred
  | Physical.Project_op (sub, cols) ->
    Relation.project (child (Some cols) sub) cols
  | Physical.Sort_enforcer (sub, col) ->
    Dqo_exec.Sort_op.by_column (child (with_col need col) sub) col
  | Physical.Join_op (l, r, lc, rc, impl) ->
    let need = join_need need in
    let lr = child (with_col need lc) l in
    let rr = child (with_col need rc) r in
    exec_join t ?pool ?metrics ?need ~lplan:l lr rr lc rc impl
  | Physical.Group_op (sub, key, aggs, impl) -> (
    let rel = child (Some (group_reads key aggs)) sub in
    match fast_path_payload aggs with
    | Some payload -> group_fast t ?pool ?metrics ~sub rel key aggs payload impl
    | None -> group_generic rel key aggs)

let execute_in t ?pool p =
  let rec go need p = exec_node t ?pool ~need ~child:go p in
  go None p

(* [run]/[run_sql] surface thread validation under the execute
   contract, and callers pin that message. *)
let check_threads threads =
  if threads < 1 then invalid_arg "Engine.execute: threads < 1"

let execute_threads t threads p =
  check_threads threads;
  if threads = 1 then execute_in t p
  else
    Dqo_par.Pool.with_pool ~domains:threads (fun pool ->
        execute_in t ~pool p)

let execute t p = execute_threads t t.opts.threads p
let execute_on t ~pool p = execute_in t ~pool p

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE: execute a plan node by node, annotating each with
   actual rows and cumulative wall time, and recording per-operator
   metrics into an observability registry.                             *)

(* Close the feedback loop over one analysed execution: diff every
   filter/join/grouping node's estimate against its actual row count,
   fold the corrections into the engine's store, and record the q-error
   distribution.  Returns the execution's worst per-node q-error. *)
let learn_from_analysis t ?metrics plan root =
  let obs = Dqo_opt.Explain.observations t.catalog plan root in
  List.iter
    (fun (key, est, actual) ->
      Dqo_cost.Feedback.observe t.corrections key ~est ~actual)
    obs;
  let max_q = Dqo_opt.Explain.max_q_error root in
  Dqo_cost.Feedback.note_run t.corrections ~max_q;
  (match metrics with
  | Some m ->
    List.iter
      (fun (_, est, actual) ->
        Dqo_obs.Metrics.observe
          (Dqo_obs.Metrics.hist m "feedback.qerror")
          (Dqo_opt.Explain.q_error ~est ~actual))
      obs;
    Dqo_obs.Metrics.incr ~by:(List.length obs) m "feedback.observations"
  | None -> ());
  max_q

let execute_analyzed_in t ?metrics ?pool:shared_pool ?threads
    (p : Physical.t) =
  let threads =
    match shared_pool with
    | Some pool -> Dqo_par.Pool.size pool
    | None -> resolve_threads t threads
  in
  if threads < 1 then invalid_arg "Engine.execute_analyzed: threads < 1";
  let m =
    match metrics with Some m -> m | None -> Dqo_obs.Metrics.create ()
  in
  (* Stamp the degree of parallelism into the tree so every rendered
     node label carries its [dop] annotation. *)
  let p = if threads > 1 then Physical.with_dop threads p else p in
  let analyze ?pool () =
  let rec go need p =
    let t0 = Dqo_obs.Metrics.now_ns () in
    let kids = ref [] in
    let child need sub =
      let r, c = go need sub in
      kids := c :: !kids;
      r
    in
    let rel = exec_node t ?pool ~metrics:m ~need ~child p in
    let children = List.rev !kids in
    let wall_ns = Dqo_obs.Metrics.now_ns () - t0 in
    let actual_rows = Relation.cardinality rel in
    let rows_in =
      List.fold_left
        (fun acc (c : Dqo_opt.Explain.analyzed) ->
          acc + c.Dqo_opt.Explain.actual_rows)
        0 children
    in
    Dqo_obs.Metrics.record m ~op:(Physical.op_label p) ~rows_in
      ~rows_out:actual_rows ~wall_ns;
    ( rel,
      {
        Dqo_opt.Explain.op = Physical.op_label p;
        est_rows =
          Dqo_opt.Explain.estimated_rows ?feedback:(active_feedback t)
            t.catalog p;
        actual_rows;
        wall_ns;
        children;
      } )
  in
  go None p
  in
  let rel, root =
    match shared_pool with
    | Some pool -> analyze ~pool ()
    | None ->
      if threads = 1 then analyze ()
      else
        Dqo_par.Pool.with_pool ~domains:threads (fun pool -> analyze ~pool ())
  in
  (* Learning happens after the whole tree is built: per-node estimation
     above must read a store that does not change mid-analysis. *)
  if t.opts.feedback then ignore (learn_from_analysis t ~metrics:m p root);
  (rel, root)

let execute_analyzed t ?metrics p = execute_analyzed_in t ?metrics p

let execute_analyzed_on t ~pool ?metrics p =
  execute_analyzed_in t ?metrics ~pool p

(* [run] is the one entry point keeping per-call [?mode]/[?threads]
   compatibility overrides; everything else reads the handle's opts. *)
let run t ?mode ?threads l =
  let mode = resolve_mode t mode in
  let threads = resolve_threads t threads in
  check_threads threads;
  (* With feedback enabled, even plain [run]s execute analysed so the
     corrections store keeps learning from live traffic. *)
  if threads = 1 then
    let p = (plan_in t ~threads:1 mode l).Dqo_opt.Pareto.plan in
    if t.opts.feedback then fst (execute_analyzed_in t ~threads:1 p)
    else execute_in t p
  else
    (* One pool serves both phases: the search fans DP levels over it,
       then the chosen plan executes on the same domains. *)
    Dqo_par.Pool.with_pool ~domains:threads (fun pool ->
        let p = (plan_in t ~pool mode l).Dqo_opt.Pareto.plan in
        if t.opts.feedback then fst (execute_analyzed_in t ~pool p)
        else execute_in t ~pool p)

type analysis = {
  entry : Dqo_opt.Pareto.entry;
  root : Dqo_opt.Explain.analyzed;
  result : Relation.t;
  search_stats : Dqo_opt.Search.stats;
  metrics : Dqo_obs.Metrics.t;
  hier : Dqo_opt.Hier.report option;
}

let explain_analyze t l =
  let search_mode =
    match t.opts.mode with
    | SQO -> Dqo_opt.Search.Shallow
    | DQO -> Dqo_opt.Search.Deep
  in
  let threads = t.opts.threads in
  (* Same materialised-grouping rewrite as [plan] — this path talks to
     the search directly to collect its stats. *)
  let l = Dqo_av.View.rewrite_through (installed_avs t) l in
  let metrics = Dqo_obs.Metrics.create () in
  (* One pool for both phases: the DP search records its [opt.dp.*]
     counters and per-level timings, then the plan executes on the same
     domains. *)
  let go ?pool () =
    let entries, search_stats, hier =
      Dqo_obs.Metrics.span metrics "optimize" (fun () ->
          if hier_route t l then
            let entries, stats, report =
              Dqo_opt.Hier.optimize_entries ~model:t.model ?pool ~metrics
                ?feedback:(active_feedback t)
                ~partition_max:t.opts.partition_max search_mode t.catalog l
            in
            (entries, stats, Some report)
          else
            let entries, stats =
              Dqo_opt.Search.optimize_entries ~model:t.model ?pool ~metrics
                ?feedback:(active_feedback t) search_mode t.catalog l
            in
            (entries, stats, None))
    in
    let entry = Dqo_opt.Pareto.cheapest entries in
    let result, root =
      Dqo_obs.Metrics.span metrics "execute" (fun () ->
          execute_analyzed_in t ~metrics ?pool ~threads
            entry.Dqo_opt.Pareto.plan)
    in
    { entry; root; result; search_stats; metrics; hier }
  in
  if threads = 1 then go ()
  else Dqo_par.Pool.with_pool ~domains:threads (fun pool -> go ~pool ())

let explain_analyze_sql t sql =
  let a = explain_analyze t (Dqo_sql.Binder.plan_of_sql t.catalog sql) in
  Dqo_opt.Explain.render_analysis ~cost:a.entry.Dqo_opt.Pareto.cost
    ~stats:a.search_stats ?hier:a.hier a.root

let analysis_to_json (a : analysis) =
  Dqo_obs.Json.Obj
    [
      ("estimated_cost", Dqo_obs.Json.Float a.entry.Dqo_opt.Pareto.cost);
      ("plan", Dqo_opt.Explain.analyzed_to_json a.root);
      ("optimizer", Dqo_opt.Search.stats_to_json a.search_stats);
      ( "hier",
        match a.hier with
        | Some r -> Dqo_opt.Hier.report_to_json r
        | None -> Dqo_obs.Json.Null );
      ("metrics", Dqo_obs.Metrics.to_json a.metrics);
    ]

(* ------------------------------------------------------------------ *)
(* Runtime re-optimisation.                                            *)

type adaptive_report = {
  static_grouping : string;
  adaptive_grouping : string;
  replanned : bool;
}

let top_grouping_name plan =
  match plan with
  | Physical.Group_op (_, _, _, impl) -> Grouping.name impl.Physical.g_alg
  | Physical.Table_scan _ | Physical.Filter_op _ | Physical.Project_op _
  | Physical.Sort_enforcer _ | Physical.Join_op _ ->
    "-"

let run_adaptive t l =
  match l with
  | Logical.Group_by (input, key, aggs) ->
    let static = plan t DQO l in
    let static_grouping = top_grouping_name static.Dqo_opt.Pareto.plan in
    (* Execute the input subplan, then measure what actually came out —
       including properties the static optimiser had to discard (e.g.
       the probe-order sortedness of a hash-join output, which the paper
       treats as unknown "to be on the safe side"). *)
    let input_best = plan t DQO input in
    let intermediate = execute t input_best.Dqo_opt.Pareto.plan in
    let sub = create ~model:t.model () in
    register sub ~name:"__adaptive" intermediate;
    let regrouped =
      Logical.group_by (Logical.scan "__adaptive") ~key aggs
    in
    let adaptive_plan = plan sub DQO regrouped in
    let adaptive_grouping =
      top_grouping_name adaptive_plan.Dqo_opt.Pareto.plan
    in
    let result = execute sub adaptive_plan.Dqo_opt.Pareto.plan in
    ( result,
      {
        static_grouping;
        adaptive_grouping;
        replanned = not (String.equal static_grouping adaptive_grouping);
      } )
  | Logical.Scan _ | Logical.Select _ | Logical.Project _ | Logical.Join _ ->
    let result = run t l in
    (result, { static_grouping = "-"; adaptive_grouping = "-"; replanned = false })

let run_sql t ?mode ?threads sql =
  run t ?mode ?threads (Dqo_sql.Binder.plan_of_sql t.catalog sql)

(* ------------------------------------------------------------------ *)
(* Prepared statements.                                                *)

type prepared = {
  p_sql : string;
  p_mode : mode;
  mutable entry : Dqo_opt.Pareto.entry;
  mutable p_generation : int;
  (* Worst per-node q-error observed while executing this plan since it
     was last (re-)prepared; 1.0 = every estimate was perfect. *)
  mutable p_worst_q : float;
}

exception
  Stale_plan of {
    sql : string;
    prepared_generation : int;
    engine_generation : int;
  }

let prepare_in t ?pool ?mode sql =
  let mode = resolve_mode t mode in
  {
    p_sql = sql;
    p_mode = mode;
    entry = plan_in t ?pool mode (Dqo_sql.Binder.plan_of_sql t.catalog sql);
    p_generation = t.generation;
    p_worst_q = 1.0;
  }

let prepare t ?mode sql = prepare_in t ?mode sql
let prepare_on t ~pool ?mode sql = prepare_in t ~pool ?mode sql

let prepared_entry p = p.entry
let prepared_sql p = p.p_sql
let prepared_mode p = p.p_mode
let prepared_generation p = p.p_generation
let prepared_stale t p = p.p_generation <> t.generation
let prepared_worst_q p = p.p_worst_q

(* The plan has drifted: its observed misestimation crossed the
   threshold, so replanning against the corrected feedback store is
   warranted even though the physical design is unchanged. *)
let prepared_drifted t p =
  t.opts.feedback && p.p_worst_q >= t.opts.qerror_threshold

let reprepare_in t ?pool p =
  p.entry <-
    plan_in t ?pool p.p_mode (Dqo_sql.Binder.plan_of_sql t.catalog p.p_sql);
  p.p_generation <- t.generation;
  p.p_worst_q <- 1.0

let reprepare t p = reprepare_in t p
let reprepare_on t ~pool p = reprepare_in t ~pool p

(* Shared lifecycle gate: a prepared plan from an older catalog
   generation either re-optimises in place (opt-in) or raises; a plan
   past the q-error drift threshold re-optimises on the opt-in path
   (never raises — a drifted plan is still correct, just suboptimal).
   A replan triggered while serving runs on the caller's pool. *)
let check_prepared t ?pool ~reprepare:re p =
  if prepared_stale t p then begin
    if re then reprepare_in t ?pool p
    else
      raise
        (Stale_plan
           {
             sql = p.p_sql;
             prepared_generation = p.p_generation;
             engine_generation = t.generation;
           })
  end
  else if re && prepared_drifted t p then reprepare_in t ?pool p

(* With feedback on, prepared executions run analysed so the store
   keeps learning and the statement tracks its own worst q-error. *)
let run_prepared_feedback t ?metrics ?pool p =
  let rel, root =
    execute_analyzed_in t ?metrics ?pool p.entry.Dqo_opt.Pareto.plan
  in
  p.p_worst_q <-
    Float.max p.p_worst_q (Dqo_opt.Explain.max_q_error root);
  rel

let execute_prepared t ?metrics ?(reprepare = false) p =
  check_prepared t ~reprepare p;
  if t.opts.feedback then run_prepared_feedback t ?metrics p
  else execute t p.entry.Dqo_opt.Pareto.plan

let execute_prepared_on t ~pool ?metrics ?(reprepare = false) p =
  check_prepared t ~pool ~reprepare p;
  if t.opts.feedback then run_prepared_feedback t ?metrics ~pool p
  else execute_on t ~pool p.entry.Dqo_opt.Pareto.plan

(* ------------------------------------------------------------------ *)
(* Answering grouping queries from materialised-grouping AVs.          *)

(* [GROUP BY key] over a bare base-relation scan, with aggregates the
   materialised view can serve (COUNT, SUM(key)), is answered by reading
   the view.  Output columns are renamed to the query's aliases. *)
let try_view_answer t l =
  match l with
  | Logical.Group_by (Logical.Scan rel_name, key, aggs) ->
    let has_view =
      List.exists
        (fun (v : Dqo_av.View.t) ->
          match v.Dqo_av.View.kind with
          | Dqo_av.View.Grouping_result { relation; key = k } ->
            String.equal relation rel_name && String.equal k key
          | Dqo_av.View.Sorted_projection _ | Dqo_av.View.Perfect_hash _ ->
            false)
        (installed_avs t)
    in
    let servable (a : Logical.aggregate) =
      match (a.Logical.spec, a.Logical.column) with
      | Aggregate.Count, _ -> true
      | Aggregate.Sum, Some c -> String.equal c key
      | (Aggregate.Sum | Aggregate.Min | Aggregate.Max | Aggregate.Avg), _ ->
        false
    in
    if has_view && List.for_all servable aggs then begin
      let mv = relation t (rel_name ^ "__by_" ^ key) in
      let key_col = Column.of_int_col (Relation.int_col mv key) in
      let pick (a : Logical.aggregate) =
        match a.Logical.spec with
        | Aggregate.Count -> Column.of_int_col (Relation.int_col mv "cnt")
        | Aggregate.Sum -> Column.of_int_col (Relation.int_col mv "total")
        | Aggregate.Min | Aggregate.Max | Aggregate.Avg -> assert false
      in
      let schema =
        Schema.of_names
          ((key, Schema.T_int)
          :: List.map
               (fun (a : Logical.aggregate) -> (a.Logical.alias, Schema.T_int))
               aggs)
      in
      Some (Relation.create schema (key_col :: List.map pick aggs))
    end
    else None
  | Logical.Scan _ | Logical.Select _ | Logical.Project _ | Logical.Join _
  | Logical.Group_by _ ->
    None

let run_with_views t l =
  match try_view_answer t l with
  | Some result -> (result, true)
  | None -> (run t l, false)

let explain_sql t sql =
  let l = Dqo_sql.Binder.plan_of_sql t.catalog sql in
  if t.opts.threads > 1 then
    Dqo_par.Pool.with_pool ~domains:t.opts.threads (fun pool ->
        Dqo_opt.Explain.comparison ~model:t.model ~pool t.catalog l)
  else Dqo_opt.Explain.comparison ~model:t.model t.catalog l

(* Resident bytes of one materialised structure, measured at install
   time (8-byte words; the FKS size is per-slot bookkeeping over the
   expected-linear two-level tables). *)
let measure_bytes rel (m : Dqo_av.View.materialized) =
  let word = 8 in
  match m with
  | Dqo_av.View.M_sorted sorted ->
    Relation.cardinality sorted
    * List.length (Schema.fields (Relation.schema rel))
    * word
  | Dqo_av.View.M_fks fks -> Fks.length fks * 6 * word
  | Dqo_av.View.M_dense_bounds _ -> 2 * word
  | Dqo_av.View.M_grouping g ->
    Array.length g.Dqo_exec.Group_result.keys * 3 * word

let install_av t (v : Dqo_av.View.t) =
  if
    List.exists
      (fun ((v0 : Dqo_av.View.t), _) ->
        String.equal v0.Dqo_av.View.id v.Dqo_av.View.id)
      t.avs
  then invalid_arg ("Engine.install_av: already installed: " ^ v.Dqo_av.View.id);
  let bytes =
    match v.Dqo_av.View.kind with
    | Dqo_av.View.Sorted_projection { relation = rel_name; _ } -> (
      let rel = relation t rel_name in
      let m = Dqo_av.View.materialize rel v in
      match m with
      | Dqo_av.View.M_sorted sorted ->
        t.relations <-
          List.map
            (fun (n, r) ->
              if String.equal n rel_name then (n, sorted) else (n, r))
            t.relations;
        measure_bytes rel m
      | Dqo_av.View.M_fks _ | Dqo_av.View.M_dense_bounds _
      | Dqo_av.View.M_grouping _ ->
        assert false)
    | Dqo_av.View.Perfect_hash { relation = rel_name; column } -> (
      let rel = relation t rel_name in
      let m = Dqo_av.View.materialize rel v in
      match m with
      | Dqo_av.View.M_fks fks ->
        Hashtbl.replace t.fks_index (rel_name, column) fks;
        measure_bytes rel m
      | Dqo_av.View.M_dense_bounds _ -> measure_bytes rel m
      | Dqo_av.View.M_sorted _ | Dqo_av.View.M_grouping _ -> assert false)
    | Dqo_av.View.Grouping_result { relation = rel_name; key } -> (
      let rel = relation t rel_name in
      let m = Dqo_av.View.materialize rel v in
      match m with
      | Dqo_av.View.M_grouping g ->
        let name = rel_name ^ "__by_" ^ key in
        let schema =
          Schema.of_names
            [
              (key, Schema.T_int); ("cnt", Schema.T_int); ("total", Schema.T_int);
            ]
        in
        let mat =
          Relation.create schema
            [
              Column.of_ints g.Dqo_exec.Group_result.keys;
              Column.of_ints g.Dqo_exec.Group_result.counts;
              Column.of_ints g.Dqo_exec.Group_result.sums;
            ]
        in
        t.relations <- t.relations @ [ (name, mat) ];
        measure_bytes rel m
      | Dqo_av.View.M_sorted _ | Dqo_av.View.M_fks _
      | Dqo_av.View.M_dense_bounds _ ->
        assert false)
  in
  t.avs <- t.avs @ [ (v, bytes) ];
  t.generation <- t.generation + 1;
  rebuild_catalog t

let uninstall_av t id =
  match
    List.find_opt
      (fun ((v : Dqo_av.View.t), _) -> String.equal v.Dqo_av.View.id id)
      t.avs
  with
  | None -> invalid_arg ("Engine.uninstall_av: not installed: " ^ id)
  | Some (v, _) ->
    (match v.Dqo_av.View.kind with
    | Dqo_av.View.Sorted_projection _ ->
      (* The stored rows stay physically sorted — there is no "unsort";
         only the accounting entry goes away.  The rebuilt catalog
         re-measures the relation, so the (still true) sortedness keeps
         being visible to the optimiser. *)
      ()
    | Dqo_av.View.Perfect_hash { relation = rel_name; column } ->
      Hashtbl.remove t.fks_index (rel_name, column)
    | Dqo_av.View.Grouping_result { relation = rel_name; key } ->
      let name = rel_name ^ "__by_" ^ key in
      t.relations <-
        List.filter (fun (n, _) -> not (String.equal n name)) t.relations);
    t.avs <-
      List.filter
        (fun ((v0 : Dqo_av.View.t), _) ->
          not (String.equal v0.Dqo_av.View.id id))
        t.avs;
    t.generation <- t.generation + 1;
    rebuild_catalog t
