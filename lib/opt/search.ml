module Props = Dqo_plan.Props
module Physical = Dqo_plan.Physical
module Logical = Dqo_plan.Logical
module Model = Dqo_cost.Model
module Cardinality = Dqo_cost.Cardinality
module Grouping = Dqo_exec.Grouping
module Join = Dqo_exec.Join
module Filter = Dqo_exec.Filter
module Bitset = Dqo_util.Bitset
module Pool = Dqo_par.Pool
module Metrics = Dqo_obs.Metrics
module Feedback = Dqo_cost.Feedback

type mode = Shallow | Deep

(* One entry per DP step (base scan, select, project, group-by, or join
   subset): how many candidate plans the step generated, how many sort
   enforcers it added, and what survived Pareto pruning. *)
type trace_step = {
  step : string;
  generated : int;
  enforcers : int;
  kept : int;
  pruned : int;
}

(* One DP level: all join subsets of the same cardinality, solved as
   independent subproblems (possibly fanned out over a domain pool)
   between two memo barriers. *)
type level_stat = {
  level : int;
  subproblems : int;
  level_generated : int;
  level_kept : int;
  level_pruned : int;
  level_wall_ms : float;
}

type stats = {
  plans_considered : int;
  pareto_kept : int;
  enforcers_added : int;
  candidates_pruned : int;
  dp_domains : int;
  trace : trace_step list; (* in evaluation order *)
  levels : level_stat list; (* join-DP levels, ascending cardinality *)
}

type ctx = {
  mode : mode;
  model : Model.t;
  catalog : Catalog.t;
  interesting : string list;
  pool : Pool.t option;
  metrics : Metrics.t option;
  (* Correction factors learned from earlier executions; read-only
     during a search, so sharing it across DP workers is safe. *)
  feedback : Feedback.t option;
  (* Pre-planned frontiers spliced in under a pseudo relation name —
     the hierarchical optimiser's stitched join plans.  A [Scan] of a
     listed name returns its frontier verbatim. *)
  virtuals : (string * Pareto.entry list) list;
  mutable considered : int;
  mutable enforced : int;
  mutable pruned : int;
  mutable steps : trace_step list; (* reverse evaluation order *)
  mutable levels : level_stat list; (* reverse level order *)
}

(* A private sub-context for one DP subproblem: counters start at zero
   and are folded back into the parent at the level barrier, in subset
   order, so totals and traces never depend on worker scheduling. *)
let sub_ctx ctx =
  {
    ctx with
    pool = None;
    metrics = None;
    considered = 0;
    enforced = 0;
    pruned = 0;
    steps = [];
    levels = [];
  }

(* ------------------------------------------------------------------ *)
(* Interesting columns: any column a sort could later pay off on.      *)

let interesting_columns l =
  let rec go acc = function
    | Logical.Scan _ -> acc
    | Logical.Select (t, _, _) | Logical.Project (t, _) -> go acc t
    | Logical.Join (a, b, lc, rc) -> go (go (lc :: rc :: acc) a) b
    | Logical.Group_by (t, key, _) -> go (key :: acc) t
  in
  List.sort_uniq String.compare (go [] l)

(* ------------------------------------------------------------------ *)
(* Entry helpers.                                                      *)

let count ctx n = ctx.considered <- ctx.considered + n

let record_step ctx step ~generated ~enforcers kept_entries =
  let kept = List.length kept_entries in
  let pruned = max 0 (generated + enforcers - kept) in
  ctx.enforced <- ctx.enforced + enforcers;
  ctx.pruned <- ctx.pruned + pruned;
  ctx.steps <- { step; generated; enforcers; kept; pruned } :: ctx.steps;
  kept_entries

let distinct_or props col default =
  match Props.distinct_of props col with Some d -> d | None -> default

(* After an operator produced [rows] tuples, no column can have more
   distinct values than that. *)
let scale_columns (props : Props.t) rows =
  {
    props with
    Props.columns =
      List.map
        (fun (n, (c : Props.column)) ->
          (n, { c with Props.distinct = min c.Props.distinct (max rows 0) }))
        props.Props.columns;
  }

let base_entry ctx name =
  let ti = Catalog.find ctx.catalog name in
  let props =
    match ctx.mode with
    | Shallow -> Props.shallow ti.Catalog.props
    | Deep -> ti.Catalog.props
  in
  {
    Pareto.plan = Physical.Table_scan name;
    cost = 0.0;
    props;
    rows = ti.Catalog.rows;
  }

(* Sort enforcers: for every interesting column the entry knows about
   and is not already sorted on, offer a sorted variant. *)
let enforcer_variants ctx entries =
  List.concat_map
    (fun (e : Pareto.entry) ->
      List.filter_map
        (fun col ->
          match Props.column e.Pareto.props col with
          | None -> None
          | Some _ ->
            if Props.sorted_on e.Pareto.props col then None
            else
              Some
                {
                  Pareto.plan = Physical.Sort_enforcer (e.Pareto.plan, col);
                  cost =
                    e.Pareto.cost
                    +. Model.sort_cost ctx.model ~rows:e.Pareto.rows;
                  props = Props.with_sort e.Pareto.props col;
                  rows = e.Pareto.rows;
                })
        ctx.interesting)
    entries

(* Prune [entries], add sort enforcers on the survivors, prune again,
   and record the whole step in the DP trace. *)
let with_enforcers ctx step ~generated entries =
  let survivors = Pareto.add_all [] entries in
  let enforced = enforcer_variants ctx survivors in
  count ctx (List.length enforced);
  let merged = Pareto.add_all survivors enforced in
  record_step ctx step ~generated ~enforcers:(List.length enforced) merged

(* ------------------------------------------------------------------ *)
(* Molecule enumeration: which (table, hash) pairs to consider for the
   hash-based operators.                                               *)

let hash_molecules ctx =
  match ctx.mode with
  | Deep when ctx.model.Model.deep_molecules ->
    List.concat_map
      (fun table ->
        List.map
          (fun hash -> (table, hash))
          [
            Dqo_hash.Hash_fn.Murmur3;
            Dqo_hash.Hash_fn.Fibonacci;
            Dqo_hash.Hash_fn.Multiply_shift;
          ])
      [ Grouping.Chaining; Grouping.Linear_probing; Grouping.Robin_hood ]
  | Deep | Shallow -> [ (Grouping.Chaining, Dqo_hash.Hash_fn.Murmur3) ]

(* ------------------------------------------------------------------ *)
(* Select / project.                                                   *)

let default_selectivity props col p rows =
  match Props.column props col with
  | Some c when c.Props.hi >= c.Props.lo ->
    Filter.selectivity p ~lo:c.Props.lo ~hi:c.Props.hi
  | Some _ | None -> (
    match p with
    | Filter.Eq _ -> 1.0 /. Float.of_int (max 1 rows)
    | Filter.Ne _ ->
      (* <> excludes one of the [distinct] values, not nothing: a
         selectivity of 1.0 would leave inequality filters free and
         mis-rank plans built on top of them. *)
      let d =
        match Props.distinct_of props col with
        | Some d -> max 1 d
        | None -> max 1 rows
      in
      1.0 -. (1.0 /. Float.of_int d)
    | Filter.Lt _ | Filter.Le _ | Filter.Gt _ | Filter.Ge _ -> 0.33
    | Filter.Between _ -> 0.25)

(* Value bounds surviving a predicate on a column currently spanning
   [lo, hi].  Shared by [narrow_column] (which rewrites the property
   vector) and the selectivity arithmetic above (via
   [Filter.selectivity], which integrates the same bounds). *)
let narrowed_bounds ~lo ~hi (p : Filter.predicate) =
  match p with
  | Filter.Eq x -> (max lo x, min hi x)
  | Filter.Between (a, b) -> (max lo a, min hi b)
  | Filter.Lt x -> (lo, min hi (x - 1))
  | Filter.Le x -> (lo, min hi x)
  | Filter.Gt x -> (max lo (x + 1), hi)
  | Filter.Ge x -> (max lo x, hi)
  | Filter.Ne _ -> (lo, hi)

let narrow_column props col p =
  let update (c : Props.column) =
    match p with
    | Filter.Eq x -> { c with Props.lo = x; hi = x; distinct = 1 }
    | Filter.Ne _ ->
      (* Exactly one distinct value is filtered out. *)
      { c with Props.distinct = max 1 (c.Props.distinct - 1) }
    | Filter.Between _ | Filter.Lt _ | Filter.Le _ | Filter.Gt _
    | Filter.Ge _ ->
      (* One- and two-sided ranges narrow the bounds alike; leaving
         [Lt]/[Le]/[Gt]/[Ge] untouched made a range filter followed by a
         [Between] or a join over-count its distinct values. *)
      if c.Props.hi < c.Props.lo then c (* bounds unknown (shallow) *)
      else
        let lo, hi = narrowed_bounds ~lo:c.Props.lo ~hi:c.Props.hi p in
        let span =
          Option.value ~default:max_int (Dqo_data.Int_col.range lo hi)
        in
        { c with Props.lo; hi; distinct = min c.Props.distinct span }
  in
  {
    props with
    Props.columns =
      List.map
        (fun (n, c) -> if String.equal n col then (n, update c) else (n, c))
        props.Props.columns;
  }

(* Apply a learned correction factor to an operator's estimate; a miss
   (no feedback, unresolvable column) leaves the estimate untouched. *)
let correct_filter ctx col p est =
  match ctx.feedback with
  | None -> est
  | Some fb -> (
    match Catalog.relation_of_column ctx.catalog col with
    | Some relation ->
      Feedback.corrected fb (Feedback.filter_key ~relation ~column:col p) est
    | None -> est)

let correct_join ctx c1 c2 est =
  match ctx.feedback with
  | None -> est
  | Some fb -> Feedback.corrected fb (Feedback.join_key c1 c2) est

let correct_group ctx key est =
  match ctx.feedback with
  | None -> est
  | Some fb -> (
    match Catalog.relation_of_column ctx.catalog key with
    | Some relation ->
      Feedback.corrected fb (Feedback.group_key ~relation ~column:key) est
    | None -> est)

let select_entry ctx col p (e : Pareto.entry) =
  let sel = default_selectivity e.Pareto.props col p e.Pareto.rows in
  let est = Cardinality.filter ~rows:e.Pareto.rows ~selectivity:sel in
  (* A corrected filter estimate still cannot exceed its input. *)
  let rows = min e.Pareto.rows (correct_filter ctx col p est) in
  let props = scale_columns (narrow_column e.Pareto.props col p) rows in
  {
    Pareto.plan = Physical.Filter_op (e.Pareto.plan, col, p);
    cost = e.Pareto.cost +. Model.filter_cost ctx.model ~rows:e.Pareto.rows;
    props;
    rows;
  }

let project_entry cols (e : Pareto.entry) =
  {
    e with
    Pareto.plan = Physical.Project_op (e.Pareto.plan, cols);
    props = Props.restrict e.Pareto.props cols;
  }

(* ------------------------------------------------------------------ *)
(* Join candidates for one pair of Pareto entries and one predicate.   *)

let join_candidates ctx (e1 : Pareto.entry) (e2 : Pareto.entry) c1 c2 =
  let d1 = distinct_or e1.Pareto.props c1 e1.Pareto.rows in
  let d2 = distinct_or e2.Pareto.props c2 e2.Pareto.rows in
  let out_rows =
    correct_join ctx c1 c2
      (Cardinality.equi_join ~left_rows:e1.Pareto.rows
         ~right_rows:e2.Pareto.rows ~left_distinct:d1 ~right_distinct:d2)
  in
  let union = Props.union_columns e1.Pareto.props e2.Pareto.props in
  let unordered = scale_columns union out_rows in
  let ordered = scale_columns (Props.with_sort union c1) out_rows in
  let mk impl cost props =
    {
      Pareto.plan =
        Physical.Join_op (e1.Pareto.plan, e2.Pareto.plan, c1, c2, impl);
      cost = e1.Pareto.cost +. e2.Pareto.cost +. cost;
      props;
      rows = out_rows;
    }
  in
  let jcost impl =
    Model.join_cost ctx.model ~impl ~left_rows:e1.Pareto.rows
      ~right_rows:e2.Pareto.rows ~left_distinct:d1
  in
  let hash_joins =
    List.map
      (fun (table, hash) ->
        let impl =
          { (Physical.default_join Join.HJ) with
            Physical.j_table = table; j_hash = hash }
        in
        (* A black-box hash table's output order is unknown — the paper's
           "assume unordered to be on the safe side". *)
        mk impl (jcost impl) unordered)
      (hash_molecules ctx)
  in
  let simple alg props =
    let impl = Physical.default_join alg in
    mk impl (jcost impl) props
  in
  let candidates =
    hash_joins
    @ (if
         Props.sorted_on e1.Pareto.props c1
         && Props.sorted_on e2.Pareto.props c2
       then [ simple Join.OJ ordered ]
       else [])
    @ [ simple Join.SOJ ordered ]
    @ (if Props.dense_on e1.Pareto.props c1 then
         [ simple Join.SPHJ unordered ]
       else [])
    @
    match Props.column e1.Pareto.props c1 with
    | Some _ -> [ simple Join.BSJ unordered ]
    | None -> []
  in
  count ctx (List.length candidates);
  candidates

(* ------------------------------------------------------------------ *)
(* Join-subtree DP over relation subsets (System-R style, no cross
   products).                                                          *)

let rec flatten_joins l =
  match l with
  | Logical.Join (a, b, lc, rc) ->
    let la, pa = flatten_joins a in
    let lb, pb = flatten_joins b in
    (la @ lb, (lc, rc) :: (pa @ pb))
  | Logical.Scan _ | Logical.Select _ | Logical.Project _
  | Logical.Group_by _ ->
    ([ l ], [])

(* A printable name for a join leaf: the base table it scans. *)
let rec leaf_label (l : Logical.t) =
  match l with
  | Logical.Scan name -> name
  | Logical.Select (t, _, _) | Logical.Project (t, _)
  | Logical.Group_by (t, _, _) ->
    leaf_label t
  | Logical.Join _ -> "join"

(* ------------------------------------------------------------------ *)
(* The DP core, over pre-planned leaf frontiers.  [join_dp] feeds it
   the per-leaf plans of one query; the hierarchical optimiser feeds it
   partition frontiers as compound leaves.                              *)

let dp_frontiers ctx ~leaf_names ~(leaf_sets : Pareto.entry list array)
    ~predicates =
  let k = Array.length leaf_sets in
  if k = 0 then invalid_arg "Search: join DP needs at least one leaf";
  (* Column -> leaf index, from each leaf's property column lists. *)
  let col_leaf = Hashtbl.create 16 in
  Array.iteri
    (fun i entries ->
      match entries with
      | [] -> ()
      | (e : Pareto.entry) :: _ ->
        List.iter
          (fun (n, _) ->
            if not (Hashtbl.mem col_leaf n) then Hashtbl.add col_leaf n i)
          e.Pareto.props.Props.columns)
    leaf_sets;
  (* Resolve every predicate's leaf endpoints once per query; the
     per-split scan below is then pure bit tests.  Predicates naming a
     column no leaf provides can never connect a split and are dropped
     here, as the old per-split [Not_found] handling did implicitly. *)
  let pred_endpoints =
    Array.of_list
      (List.filter_map
         (fun (lc, rc) ->
           match
             (Hashtbl.find_opt col_leaf lc, Hashtbl.find_opt col_leaf rc)
           with
           | Some ll, Some rl -> Some (ll, rl, lc, rc)
           | None, _ | _, None -> None)
         predicates)
  in
  (* The first predicate (in query order) with one side in each half,
     oriented so that its first column lives in [s1]. *)
  let connecting s1 s2 =
    let n = Array.length pred_endpoints in
    let rec go i =
      if i >= n then None
      else
        let ll, rl, lc, rc = pred_endpoints.(i) in
        if Bitset.mem ll s1 && Bitset.mem rl s2 then Some (lc, rc)
        else if Bitset.mem rl s1 && Bitset.mem ll s2 then Some (rc, lc)
        else go (i + 1)
    in
    go 0
  in
  (* Leaf adjacency from the resolved predicates, for the connected-
     subset enumeration below. *)
  let adj = Array.make k Bitset.empty in
  Array.iter
    (fun (ll, rl, _, _) ->
      if ll <> rl then begin
        adj.(ll) <- Bitset.add rl adj.(ll);
        adj.(rl) <- Bitset.add ll adj.(rl)
      end)
    pred_endpoints;
  let memo = Hashtbl.create 64 in
  for i = 0 to k - 1 do
    Hashtbl.replace memo (Bitset.singleton i) leaf_sets.(i)
  done;
  let full = Bitset.full k in
  let subset_label s =
    "subset{"
    ^ String.concat ","
        (List.map (fun i -> leaf_names.(i)) (Bitset.to_list s))
    ^ "}"
  in
  (* Solve one subset against the (read-only) memo of smaller subsets,
     recording counters into [local] only.  Candidate chunks are consed
     and concatenated at the end: same order as the old
     [new @ !candidates] accumulation, without re-copying the new chunk
     each time.  Splits whose halves are disconnected (not in the memo
     — only connected subsets are enumerated) or unconnectable
     contribute no candidates, exactly as they always did; the memo
     lookup is cheaper than the predicate scan, so it goes first. *)
  let solve local s =
    let chunks = ref [] in
    Bitset.iter_subsets
      (fun s1 ->
        match Hashtbl.find_opt memo s1 with
        | None | Some [] -> ()
        | Some p1 -> (
          let s2 = Bitset.diff s s1 in
          match Hashtbl.find_opt memo s2 with
          | None | Some [] -> ()
          | Some p2 -> (
            match connecting s1 s2 with
            | None -> ()
            | Some (c1, c2) ->
              List.iter
                (fun e1 ->
                  List.iter
                    (fun e2 ->
                      chunks := join_candidates local e1 e2 c1 c2 :: !chunks)
                    p2)
                p1)))
      s;
    let candidates = List.concat !chunks in
    with_enforcers local (subset_label s)
      ~generated:(List.length candidates)
      candidates
  in
  (* One DP subproblem as a task: a private sub-context, timed, with
     its single trace step read back for the per-task metrics. *)
  let run_task reg s =
    let local = sub_ctx ctx in
    let t0 = Metrics.now_ns () in
    let entries = solve local s in
    let wall_ns = Metrics.now_ns () - t0 in
    (match reg with
    | None -> ()
    | Some m ->
      let generated, kept =
        match local.steps with
        | [ st ] -> (st.generated, st.kept)
        | [] | _ :: _ :: _ -> (0, List.length entries)
      in
      Metrics.incr m "opt.dp.subproblems";
      Metrics.incr ~by:generated m "opt.dp.candidates_generated";
      Metrics.incr ~by:kept m "opt.dp.pareto_kept";
      Metrics.add_span_ns m "opt.dp.wall_ns" wall_ns);
    (entries, local)
  in
  (* All subsets of one cardinality, each claimed by exactly one worker
     (chunk 1, like [Pool.map_tasks]); results land in per-index slots
     and per-worker metrics registries, so nothing below depends on
     which worker ran what. *)
  let run_level subs =
    let n = Array.length subs in
    match ctx.pool with
    | Some pool when Pool.size pool > 1 && n > 1 ->
      let out = Array.make n None in
      let regs = Array.init (Pool.size pool) (fun _ -> Metrics.create ()) in
      Pool.parallel_for pool ~chunk:1 ~n (fun ~w ~lo ~hi ->
          for i = lo to hi do
            out.(i) <- Some (run_task (Some regs.(w)) subs.(i))
          done);
      (match ctx.metrics with
      | Some m -> Array.iter (fun r -> Metrics.merge ~into:m r) regs
      | None -> ());
      Array.map (function Some v -> v | None -> assert false) out
    | Some _ | None -> Array.map (fun s -> run_task ctx.metrics s) subs
  in
  (* Connected subsets only.  A disconnected subset always has an empty
     frontier — no split of it passes [connecting] — so enumerating it
     is pure Θ(3^n) waste, the reason a 20-relation snowflake used to
     be unplannable.  Level [c] is grown from level [c-1] by single-
     neighbour extension (every connected set has a removable vertex,
     so every connected c-set is reached), deduplicated, and sorted
     into ascending {!Bitset.compare} — colex — order: exactly the
     relative order [sized_subsets] enumerated them in, so the barrier
     merge is byte-for-byte the old one minus the no-op subsets. *)
  let neighbours s =
    Bitset.fold (fun i acc -> Bitset.union acc adj.(i)) s Bitset.empty
  in
  let next_level prev =
    let seen = Hashtbl.create (max 16 (Array.length prev * 2)) in
    Array.iter
      (fun s ->
        Bitset.iter
          (fun v ->
            let s' = Bitset.add v s in
            if not (Hashtbl.mem seen s') then Hashtbl.replace seen s' ())
          (Bitset.diff (neighbours s) s))
      prev;
    let arr = Array.make (Hashtbl.length seen) Bitset.empty in
    let i = ref 0 in
    Hashtbl.iter
      (fun s () ->
        arr.(!i) <- s;
        incr i)
      seen;
    Array.sort Bitset.compare arr;
    arr
  in
  (* Level-synchronous DP: all subsets of cardinality [card] depend only
     on the memo of smaller subsets, so each level fans out between two
     barriers.  The barrier merge walks results in subset order —
     frontiers, counters, and trace are byte-identical for any pool
     size. *)
  let level = ref (Array.init k Bitset.singleton) in
  for card = 2 to k do
    let subs = next_level !level in
    level := subs;
    let t0 = Metrics.now_ns () in
    let results = run_level subs in
    let wall_ms = Float.of_int (Metrics.now_ns () - t0) /. 1e6 in
    let generated = ref 0 and kept = ref 0 in
    let pruned = ref 0 in
    Array.iteri
      (fun i (entries, (local : ctx)) ->
        Hashtbl.replace memo subs.(i) entries;
        kept := !kept + List.length entries;
        (match local.steps with
        | [ st ] ->
          generated := !generated + st.generated;
          pruned := !pruned + st.pruned
        | [] | _ :: _ :: _ -> ());
        ctx.considered <- ctx.considered + local.considered;
        ctx.enforced <- ctx.enforced + local.enforced;
        ctx.pruned <- ctx.pruned + local.pruned;
        ctx.steps <- local.steps @ ctx.steps)
      results;
    ctx.levels <-
      {
        level = card;
        subproblems = Array.length subs;
        level_generated = !generated;
        level_kept = !kept;
        level_pruned = !pruned;
        level_wall_ms = wall_ms;
      }
      :: ctx.levels
  done;
  match Hashtbl.find_opt memo full with
  | Some [] | None ->
    invalid_arg "Search: join graph is disconnected (cross product needed)"
  | Some entries -> entries

let rec plan_node ctx (l : Logical.t) : Pareto.entry list =
  match l with
  | Logical.Scan name -> (
    match List.assoc_opt name ctx.virtuals with
    | Some entries ->
      (* A pre-planned frontier spliced in verbatim (the hierarchical
         optimiser's stitched join); pruning or enforcing here again
         would break the byte-identity of one-partition hierarchical
         plans with the exhaustive DP. *)
      count ctx (List.length entries);
      record_step ctx
        ("stitched(" ^ name ^ ")")
        ~generated:(List.length entries) ~enforcers:0 entries
    | None ->
      count ctx 1;
      with_enforcers ctx ("scan(" ^ name ^ ")") ~generated:1
        [ base_entry ctx name ])
  | Logical.Select (t, col, p) ->
    let inputs = plan_node ctx t in
    let candidates = List.map (select_entry ctx col p) inputs in
    count ctx (List.length candidates);
    with_enforcers ctx
      (Format.asprintf "select(%s %a)" col Filter.pp p)
      ~generated:(List.length candidates) candidates
  | Logical.Project (t, cols) ->
    let inputs = plan_node ctx t in
    let candidates = List.map (project_entry cols) inputs in
    count ctx (List.length candidates);
    record_step ctx
      ("project(" ^ String.concat ", " cols ^ ")")
      ~generated:(List.length candidates) ~enforcers:0
      (Pareto.add_all [] candidates)
  | Logical.Join _ -> join_dp ctx l
  | Logical.Group_by (t, key, aggs) ->
    let inputs = plan_node ctx t in
    let candidates =
      List.concat_map (fun e -> group_candidates ctx e key aggs) inputs
    in
    record_step ctx
      ("group_by(" ^ key ^ ")")
      ~generated:(List.length candidates) ~enforcers:0
      (Pareto.add_all [] candidates)

and join_dp ctx l =
  let leaves, predicates = flatten_joins l in
  let leaf_sets = Array.of_list (List.map (plan_node ctx) leaves) in
  let leaf_names = Array.of_list (List.map leaf_label leaves) in
  dp_frontiers ctx ~leaf_names ~leaf_sets ~predicates

and group_candidates ctx (e : Pareto.entry) key aggs =
  let groups =
    min (max 1 (distinct_or e.Pareto.props key e.Pareto.rows)) (max 1 e.Pareto.rows)
  in
  (* The group count stays within [1, input rows] even when corrected. *)
  let groups = min (max 1 e.Pareto.rows) (correct_group ctx key groups) in
  let out_rows = Cardinality.group_by ~key_distinct:groups in
  let key_props sorted =
    let columns =
      match Props.column e.Pareto.props key with
      | Some c -> [ (key, { c with Props.distinct = groups }) ]
      | None -> []
    in
    {
      Props.sorted_by = (if sorted then Some key else None);
      (* Every key appears exactly once in a grouping output, so the
         result is trivially clustered by key. *)
      clustered_by = Some key;
      columns;
      co_ordered = [];
    }
  in
  let mk impl props =
    let cost =
      Model.grouping_cost ctx.model ~impl ~rows:e.Pareto.rows ~groups
    in
    {
      Pareto.plan = Physical.Group_op (e.Pareto.plan, key, aggs, impl);
      cost = e.Pareto.cost +. cost;
      props;
      rows = out_rows;
    }
  in
  let hash_groupings =
    List.map
      (fun (table, hash) ->
        mk
          { (Physical.default_grouping Grouping.HG) with
            Physical.g_table = table; g_hash = hash }
          (key_props false))
      (hash_molecules ctx)
  in
  let simple alg sorted = mk (Physical.default_grouping alg) (key_props sorted) in
  let candidates =
    hash_groupings
    @ (if Props.clustered_on e.Pareto.props key then
         [ simple Grouping.OG (Props.sorted_on e.Pareto.props key) ]
       else [])
    @ [ simple Grouping.SOG true ]
    @ (if Props.dense_on e.Pareto.props key then
         [ simple Grouping.SPHG true ]
       else [])
    @
    match Props.column e.Pareto.props key with
    | Some _ -> [ simple Grouping.BSG true ]
    | None -> []
  in
  count ctx (List.length candidates);
  candidates

(* ------------------------------------------------------------------ *)

let make_ctx ~model ~pool ~metrics ~feedback ~interesting ~virtuals mode
    catalog =
  {
    mode;
    model;
    catalog;
    interesting;
    pool;
    metrics;
    feedback;
    virtuals;
    considered = 0;
    enforced = 0;
    pruned = 0;
    steps = [];
    levels = [];
  }

let finish_stats ctx ~pool entries =
  {
    plans_considered = ctx.considered;
    pareto_kept = List.length entries;
    enforcers_added = ctx.enforced;
    candidates_pruned = ctx.pruned;
    dp_domains = (match pool with Some p -> Pool.size p | None -> 1);
    trace = List.rev ctx.steps;
    levels = List.rev ctx.levels;
  }

let optimize_entries ?(model = Model.table2) ?pool ?metrics ?feedback
    ?interesting ?(virtuals = []) mode catalog l =
  let interesting =
    match interesting with
    | Some cols -> cols
    | None -> interesting_columns l
  in
  let ctx =
    make_ctx ~model ~pool ~metrics ~feedback ~interesting ~virtuals mode
      catalog
  in
  let entries = plan_node ctx l in
  (entries, finish_stats ctx ~pool entries)

let optimize_frontiers ?(model = Model.table2) ?pool ?metrics ?feedback
    ?(interesting = []) ~names ~leaves ~predicates mode catalog =
  let ctx =
    make_ctx ~model ~pool ~metrics ~feedback ~interesting ~virtuals:[] mode
      catalog
  in
  let entries =
    dp_frontiers ctx ~leaf_names:names ~leaf_sets:leaves ~predicates
  in
  (entries, finish_stats ctx ~pool entries)

let step_to_json (s : trace_step) =
  Dqo_obs.Json.Obj
    [
      ("step", Dqo_obs.Json.String s.step);
      ("candidates_generated", Dqo_obs.Json.Int s.generated);
      ("enforcers_added", Dqo_obs.Json.Int s.enforcers);
      ("pareto_kept", Dqo_obs.Json.Int s.kept);
      ("pruned", Dqo_obs.Json.Int s.pruned);
    ]

let level_to_json (lv : level_stat) =
  Dqo_obs.Json.Obj
    [
      ("level", Dqo_obs.Json.Int lv.level);
      ("subproblems", Dqo_obs.Json.Int lv.subproblems);
      ("candidates_generated", Dqo_obs.Json.Int lv.level_generated);
      ("pareto_kept", Dqo_obs.Json.Int lv.level_kept);
      ("pruned", Dqo_obs.Json.Int lv.level_pruned);
      ("wall_ms", Dqo_obs.Json.Float lv.level_wall_ms);
    ]

let stats_to_json (s : stats) =
  Dqo_obs.Json.Obj
    [
      ("plans_considered", Dqo_obs.Json.Int s.plans_considered);
      ("pareto_kept", Dqo_obs.Json.Int s.pareto_kept);
      ("enforcers_added", Dqo_obs.Json.Int s.enforcers_added);
      ("candidates_pruned", Dqo_obs.Json.Int s.candidates_pruned);
      ("dp_domains", Dqo_obs.Json.Int s.dp_domains);
      ("trace", Dqo_obs.Json.List (List.map step_to_json s.trace));
      ("levels", Dqo_obs.Json.List (List.map level_to_json s.levels));
    ]

let optimize ?model ?pool ?feedback mode catalog l =
  let entries, _ = optimize_entries ?model ?pool ?feedback mode catalog l in
  Pareto.cheapest entries

let improvement_factor ?model ?pool ?feedback catalog l =
  let shallow = optimize ?model ?pool ?feedback Shallow catalog l in
  let deep = optimize ?model ?pool ?feedback Deep catalog l in
  if deep.Pareto.cost <= 0.0 then 1.0
  else shallow.Pareto.cost /. deep.Pareto.cost
