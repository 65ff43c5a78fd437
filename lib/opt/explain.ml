module Props = Dqo_plan.Props
module Physical = Dqo_plan.Physical
module Cardinality = Dqo_cost.Cardinality
module Feedback = Dqo_cost.Feedback
module Json = Dqo_obs.Json

let entry ppf (e : Pareto.entry) =
  Format.fprintf ppf
    "@[<v>cost      %.0f@,rows      %d@,props     %a@,plan:@,%a@]"
    e.Pareto.cost e.Pareto.rows Dqo_plan.Props.pp e.Pareto.props
    Dqo_plan.Physical.pp e.Pareto.plan

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE: per-node cardinality estimates for a fixed physical
   plan, using the same formulas the search used to choose it, so the
   executor can annotate each node with estimated vs. actual rows.     *)

(* Derived properties and estimated output rows of every operator,
   bottom-up.  The correction arithmetic mirrors [Search]'s estimators
   exactly, so with the same [?feedback] store the per-node estimates
   below are the numbers that ranked the plan. *)
let rec estimate_props ?feedback catalog (p : Physical.t) : Props.t * int =
  let correct key est =
    match feedback with
    | None -> est
    | Some fb -> Feedback.corrected fb key est
  in
  let correct_by_relation mk col est =
    match Catalog.relation_of_column catalog col with
    | Some relation -> correct (mk ~relation ~column:col) est
    | None -> est
  in
  match p with
  | Physical.Table_scan name ->
    let ti = Catalog.find catalog name in
    (ti.Catalog.props, ti.Catalog.rows)
  | Physical.Filter_op (sub, col, pred) ->
    let props, rows = estimate_props ?feedback catalog sub in
    let sel = Search.default_selectivity props col pred rows in
    let est = Cardinality.filter ~rows ~selectivity:sel in
    let out =
      min rows
        (correct_by_relation
           (fun ~relation ~column -> Feedback.filter_key ~relation ~column pred)
           col est)
    in
    (Search.scale_columns (Search.narrow_column props col pred) out, out)
  | Physical.Project_op (sub, cols) ->
    let props, rows = estimate_props ?feedback catalog sub in
    (Props.restrict props cols, rows)
  | Physical.Sort_enforcer (sub, col) ->
    let props, rows = estimate_props ?feedback catalog sub in
    (Props.with_sort props col, rows)
  | Physical.Join_op (l, r, lc, rc, _) ->
    let lp, lrows = estimate_props ?feedback catalog l in
    let rp, rrows = estimate_props ?feedback catalog r in
    let d1 = Search.distinct_or lp lc lrows in
    let d2 = Search.distinct_or rp rc rrows in
    let out =
      correct (Feedback.join_key lc rc)
        (Cardinality.equi_join ~left_rows:lrows ~right_rows:rrows
           ~left_distinct:d1 ~right_distinct:d2)
    in
    (Search.scale_columns (Props.union_columns lp rp) out, out)
  | Physical.Group_op (sub, key, _, _) ->
    let props, rows = estimate_props ?feedback catalog sub in
    let groups =
      min (max 1 (Search.distinct_or props key rows)) (max 1 rows)
    in
    let groups =
      min (max 1 rows) (correct_by_relation Feedback.group_key key groups)
    in
    let out = Cardinality.group_by ~key_distinct:groups in
    let columns =
      match Props.column props key with
      | Some c -> [ (key, { c with Props.distinct = groups }) ]
      | None -> []
    in
    ( { Props.sorted_by = None; clustered_by = Some key; columns;
        co_ordered = [] },
      out )

let estimated_rows ?feedback catalog p =
  snd (estimate_props ?feedback catalog p)

(* An executed plan node annotated with observed behaviour.  [wall_ns]
   is cumulative: it includes the node's inputs, like the actual-time
   column of a conventional EXPLAIN ANALYZE. *)
type analyzed = {
  op : string;
  est_rows : int;
  actual_rows : int;
  wall_ns : int;
  children : analyzed list;
}

(* Q-error: the standard estimation-quality metric — the factor by which
   the estimate is off, in whichever direction.  Delegates to the
   feedback store's definition (zero counts score as half a row) so the
   loop that consumes these numbers reports the true factor instead of
   clamping est=0 vs actual=1 to a perfect 1.0. *)
let q_error = Feedback.q_error

(* Worst per-node q-error of an executed tree — what a prepared
   statement records to decide whether its plan has drifted. *)
let rec max_q_error node =
  List.fold_left
    (fun acc c -> Float.max acc (max_q_error c))
    (q_error ~est:node.est_rows ~actual:node.actual_rows)
    node.children

(* Pair an executed plan with its annotated tree (they share one shape
   by construction) and emit the feedback observations: one
   (key, est, actual) triple per filter, join, and grouping node.

   A node's raw q-error mixes its own estimation error with whatever its
   inputs were already off by; learning the raw ratio would double-count
   — the filter below a join gets a correction AND the join inherits the
   same factor, overcorrecting once the filter converges.  So each
   emitted estimate is first scaled by the children's actual/estimated
   ratio (what the node would have estimated from exact inputs), and the
   store learns only the node's residual error.

   This applies to filters and joins, whose output estimates are linear
   in their input cardinalities.  Grouping output is capped by the key's
   distinct count — not linear in input size — so a group node is
   handled by cases instead: an estimate equal to its input's estimate
   was row-limited and carried no group-specific information (the error
   is fully inherited — skip it), while a distinct-limited estimate is
   scored against what it would have claimed on exact inputs,
   [min est actual_input]. *)
let residual_est (a : analyzed) =
  let input_ratio =
    List.fold_left
      (fun acc c ->
        acc
        *. (Float.of_int (max 1 c.actual_rows)
           /. Float.of_int (max 1 c.est_rows)))
      1.0 a.children
  in
  if input_ratio = 1.0 then a.est_rows
  else max 1 (int_of_float (Float.round (Float.of_int a.est_rows *. input_ratio)))

let observations catalog (p : Physical.t) root =
  let rec go (p : Physical.t) (a : analyzed) acc =
    let acc =
      match p with
      | Physical.Filter_op (_, col, pred) -> (
        match Catalog.relation_of_column catalog col with
        | Some relation ->
          (Feedback.filter_key ~relation ~column:col pred, residual_est a,
           a.actual_rows)
          :: acc
        | None -> acc)
      | Physical.Join_op (_, _, lc, rc, _) ->
        (Feedback.join_key lc rc, residual_est a, a.actual_rows) :: acc
      | Physical.Group_op (_, key, _, _) -> (
        match (Catalog.relation_of_column catalog key, a.children) with
        | Some relation, [ c ] when a.est_rows < c.est_rows ->
          ( Feedback.group_key ~relation ~column:key,
            min a.est_rows (max 1 c.actual_rows),
            a.actual_rows )
          :: acc
        | _, _ -> acc)
      | Physical.Table_scan _ | Physical.Project_op _
      | Physical.Sort_enforcer _ ->
        acc
    in
    match (p, a.children) with
    | ( ( Physical.Filter_op (sub, _, _)
        | Physical.Project_op (sub, _)
        | Physical.Sort_enforcer (sub, _)
        | Physical.Group_op (sub, _, _, _) ),
        [ c ] ) ->
      go sub c acc
    | Physical.Join_op (l, r, _, _, _), [ cl; cr ] -> go l cl (go r cr acc)
    | _, _ -> acc (* leaf, or a shape mismatch we refuse to learn from *)
  in
  List.rev (go p root [])

let rec render_analyzed buf depth node =
  let label = String.make (2 * depth) ' ' ^ node.op in
  Buffer.add_string buf
    (Printf.sprintf "%-36s est=%-9d actual=%-9d q=%-7.2f time=%.3fms\n"
       label node.est_rows node.actual_rows
       (q_error ~est:node.est_rows ~actual:node.actual_rows)
       (Float.of_int node.wall_ns /. 1e6));
  List.iter (render_analyzed buf (depth + 1)) node.children

let render_analysis ?cost ?stats ?hier root =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "=== EXPLAIN ANALYZE ===\n";
  render_analyzed buf 0 root;
  (match cost with
  | Some c -> Buffer.add_string buf (Printf.sprintf "estimated cost: %.0f\n" c)
  | None -> ());
  (match stats with
  | Some (s : Search.stats) ->
    Buffer.add_string buf
      (Printf.sprintf
         "optimiser: %d plans considered, %d kept on the Pareto frontier, \
          %d enforcers added, %d pruned\n"
         s.Search.plans_considered s.Search.pareto_kept
         s.Search.enforcers_added s.Search.candidates_pruned);
    if s.Search.levels <> [] then begin
      Buffer.add_string buf
        (Printf.sprintf "join DP (%d domain%s):\n" s.Search.dp_domains
           (if s.Search.dp_domains = 1 then "" else "s"));
      List.iter
        (fun (lv : Search.level_stat) ->
          Buffer.add_string buf
            (Printf.sprintf
               "  level %d: %d subproblems, %d candidates, %d kept, \
                %d pruned, %.3fms\n"
               lv.Search.level lv.Search.subproblems
               lv.Search.level_generated lv.Search.level_kept
               lv.Search.level_pruned lv.Search.level_wall_ms))
        s.Search.levels
    end
  | None -> ());
  (match hier with
  | Some (r : Hier.report) -> Buffer.add_string buf (Hier.render_report r)
  | None -> ());
  Buffer.contents buf

let rec analyzed_to_json node =
  Json.Obj
    [
      ("op", Json.String node.op);
      ("est_rows", Json.Int node.est_rows);
      ("actual_rows", Json.Int node.actual_rows);
      ( "q_error",
        Json.Float (q_error ~est:node.est_rows ~actual:node.actual_rows) );
      ("wall_ns", Json.Int node.wall_ns);
      ("children", Json.List (List.map analyzed_to_json node.children));
    ]

let comparison ?model ?pool catalog l =
  let shallow = Search.optimize ?model ?pool Search.Shallow catalog l in
  let deep = Search.optimize ?model ?pool Search.Deep catalog l in
  let factor =
    if deep.Pareto.cost <= 0.0 then 1.0
    else shallow.Pareto.cost /. deep.Pareto.cost
  in
  Format.asprintf
    "@[<v>=== SQO (shallow) ===@,%a@,@,=== DQO (deep) ===@,%a@,@,\
     improvement factor (estimated cost): %.2fx@]"
    entry shallow entry deep factor
