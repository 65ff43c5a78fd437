module Logical = Dqo_plan.Logical
module Json = Dqo_obs.Json

(* Hierarchical join optimisation: partition the join graph, run the
   exact deep DP per partition, stitch partition plans with a top-level
   DP over the quotient graph (Kossmann & Stocker's iterative DP /
   Neumann's query simplification, specialised to our Pareto-frontier
   search).  Planning cost drops from Θ(3^n) to
   Θ(P · 3^partition_max + 3^P) while each partition keeps the full
   deep-optimisation treatment — pooled levels, feedback corrections,
   sort enforcers, molecule enumeration. *)

(* The pseudo relation name the outer skeleton scans; resolved through
   [Search.optimize_entries ~virtuals], never through the catalog. *)
let hole = "__dqo_hier__"

type partition_info = {
  members : string list;  (** Leaf labels, in DP leaf order. *)
  leaf_count : int;
  internal_predicates : int;
  frontier : int;  (** Pareto entries the partition exports. *)
  best_cost : float;
  best_rows : int;
  considered : int;  (** Candidate plans inside the partition's DP. *)
}

type report = {
  leaves : int;
  partition_max : int;
  partitions : partition_info list;
  cut_predicates : int;
      (** Join predicates crossing partitions — the quotient edges. *)
  stitch_considered : int;
  stitch_levels : Search.level_stat list;
}

(* ------------------------------------------------------------------ *)
(* Join-graph partitioning.                                            *)

(* Greedy min-cut-flavoured growth: seed a partition at the smallest
   unassigned leaf, repeatedly absorb the unassigned neighbour with the
   most edges into the partition (ties to the smallest index — a total
   order, so the partitioning is deterministic), stop at [max_size].
   Grown strictly along edges, every partition is connected — which the
   per-partition DP requires — and every quotient edge was a real join
   predicate.  Multiplicity counts: a neighbour tied to the partition
   by two predicates beats one tied by a single predicate, keeping the
   cut small. *)
let partition_graph ~n ~edges ~max_size =
  if max_size < 1 then invalid_arg "Hier.partition_graph: max_size < 1";
  let adj = Array.make n [] in
  List.iter
    (fun (a, b) ->
      if a <> b && a >= 0 && a < n && b >= 0 && b < n then begin
        adj.(a) <- b :: adj.(a);
        adj.(b) <- a :: adj.(b)
      end)
    edges;
  let assigned = Array.make n false in
  let parts = ref [] in
  for seed = 0 to n - 1 do
    if not assigned.(seed) then begin
      assigned.(seed) <- true;
      let members = ref [ seed ] in
      let size = ref 1 in
      let growing = ref (max_size > 1) in
      while !growing do
        let score = Hashtbl.create 8 in
        List.iter
          (fun m ->
            List.iter
              (fun v ->
                if not assigned.(v) then
                  Hashtbl.replace score v
                    (1 + Option.value ~default:0 (Hashtbl.find_opt score v)))
              adj.(m))
          !members;
        let best =
          Hashtbl.fold
            (fun v c acc ->
              match acc with
              | None -> Some (v, c)
              | Some (bv, bc) ->
                if c > bc || (c = bc && v < bv) then Some (v, c) else acc)
            score None
        in
        match best with
        | None -> growing := false
        | Some (v, _) ->
          assigned.(v) <- true;
          members := v :: !members;
          incr size;
          if !size >= max_size then growing := false
      done;
      parts := List.sort Int.compare !members :: !parts
    end
  done;
  List.rev !parts

(* ------------------------------------------------------------------ *)
(* Skeleton extraction: the unary operators above the topmost join.    *)

(* Peel selects/projects/group-bys off the top of the query until the
   first [Join]; the join subtree is optimised hierarchically and
   spliced back under the skeleton as the virtual relation [hole]. *)
let rec split_outer (l : Logical.t) =
  match l with
  | Logical.Join _ -> (Logical.Scan hole, Some l)
  | Logical.Select (t, c, p) ->
    let sk, j = split_outer t in
    (Logical.Select (sk, c, p), j)
  | Logical.Project (t, cols) ->
    let sk, j = split_outer t in
    (Logical.Project (sk, cols), j)
  | Logical.Group_by (t, key, aggs) ->
    let sk, j = split_outer t in
    (Logical.Group_by (sk, key, aggs), j)
  | Logical.Scan _ -> (l, None)

(* ------------------------------------------------------------------ *)
(* The hierarchical optimiser.                                         *)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let merge_stats ~outer ~pieces entries : Search.stats =
  let all = pieces @ [ outer ] in
  {
    Search.plans_considered = sum (fun (s : Search.stats) -> s.Search.plans_considered) all;
    pareto_kept = List.length entries;
    enforcers_added = sum (fun (s : Search.stats) -> s.Search.enforcers_added) all;
    candidates_pruned = sum (fun (s : Search.stats) -> s.Search.candidates_pruned) all;
    dp_domains = (outer : Search.stats).Search.dp_domains;
    trace = List.concat_map (fun (s : Search.stats) -> s.Search.trace) all;
    (* Partition levels first (for one partition this is exactly the
       exhaustive DP's level list), then the stitch DP's levels. *)
    levels = List.concat_map (fun (s : Search.stats) -> s.Search.levels) all;
  }

let optimize_entries ?model ?pool ?metrics ?feedback ?(partition_max = 12) mode
    catalog l =
  if partition_max < 1 then
    invalid_arg "Hier.optimize_entries: partition_max < 1";
  let interesting = Search.interesting_columns l in
  let skeleton, join_tree = split_outer l in
  match join_tree with
  | None ->
    (* No join to partition: the plain search is already exact. *)
    let entries, stats =
      Search.optimize_entries ?model ?pool ?metrics ?feedback mode catalog l
    in
    ( entries,
      stats,
      {
        leaves = List.length (Logical.relations l);
        partition_max;
        partitions = [];
        cut_predicates = 0;
        stitch_considered = 0;
        stitch_levels = [];
      } )
  | Some jt ->
    let leaves, predicates = Search.flatten_joins jt in
    let k = List.length leaves in
    let leaf_names = Array.of_list (List.map Search.leaf_label leaves) in
    (* Plan every leaf exactly as the exhaustive DP would — same mode,
       model, feedback, and (whole-query) interesting columns — so a
       single partition reproduces its plans byte for byte.  Leaf
       planning never used the pool in the exhaustive DP either. *)
    let leaf_results =
      Array.of_list
        (List.map
           (fun leaf ->
             Search.optimize_entries ?model ?metrics ?feedback ~interesting
               mode catalog leaf)
           leaves)
    in
    let leaf_frontiers = Array.map fst leaf_results in
    (* Column -> providing leaf, first in leaf order — the same rule
       [Search.dp_frontiers] applies internally. *)
    let col_leaf = Hashtbl.create 16 in
    Array.iteri
      (fun i entries ->
        match entries with
        | [] -> ()
        | (e : Pareto.entry) :: _ ->
          List.iter
            (fun (n, _) ->
              if not (Hashtbl.mem col_leaf n) then Hashtbl.add col_leaf n i)
            e.Pareto.props.Dqo_plan.Props.columns)
      leaf_frontiers;
    let resolved =
      List.filter_map
        (fun (lc, rc) ->
          match (Hashtbl.find_opt col_leaf lc, Hashtbl.find_opt col_leaf rc) with
          | Some a, Some b -> Some (a, b, lc, rc)
          | None, _ | _, None -> None)
        predicates
    in
    let parts =
      partition_graph ~n:k
        ~edges:(List.map (fun (a, b, _, _) -> (a, b)) resolved)
        ~max_size:partition_max
    in
    let part_of = Array.make k (-1) in
    List.iteri
      (fun pi members -> List.iter (fun m -> part_of.(m) <- pi) members)
      parts;
    (* Exact deep DP inside each partition, over its member leaves'
       frontiers and internal predicates (kept in query order). *)
    let partition_results =
      List.mapi
        (fun pi members ->
          let member_arr = Array.of_list members in
          let local_preds =
            List.filter_map
              (fun (a, b, lc, rc) ->
                if part_of.(a) = pi && part_of.(b) = pi then Some (lc, rc)
                else None)
              resolved
          in
          let entries, stats =
            Search.optimize_frontiers ?model ?pool ?metrics ?feedback
              ~interesting
              ~names:(Array.map (fun m -> leaf_names.(m)) member_arr)
              ~leaves:(Array.map (fun m -> leaf_frontiers.(m)) member_arr)
              ~predicates:local_preds mode catalog
          in
          (members, local_preds, entries, stats))
        parts
    in
    (* Stitch: a top-level DP over the quotient graph, each partition's
       Pareto frontier a compound leaf.  Cross-partition predicates
       resolve against the frontiers' (union) property columns. *)
    let cross =
      List.filter_map
        (fun (a, b, lc, rc) ->
          if part_of.(a) <> part_of.(b) then Some (lc, rc) else None)
        resolved
    in
    (* Above the partitions only properties that can still pay off
       matter: cross-partition join columns and the outer skeleton's
       keys.  The whole-query interesting set would re-enforce every
       partition-internal order at every stitch level, inflating
       quotient frontiers with entries nothing upstream can use (at 80
       relations that is the difference between a seconds-long and a
       runaway stitch). *)
    let stitch_interesting =
      List.sort_uniq String.compare
        (List.concat_map (fun (lc, rc) -> [ lc; rc ]) cross
        @ Search.interesting_columns skeleton)
    in
    (* Interface pruning (Neumann-style): a partition exports only
       entries distinguishable above the cut — dominance re-checked on
       properties restricted to the stitch-relevant columns, survivors
       keeping their full property vectors.  Skipped for a single
       partition, where the stitch is a verbatim passthrough and the
       export must stay byte-identical to the exhaustive frontier. *)
    let prune_for_stitch entries =
      if List.length parts = 1 then entries
      else
        let kept =
          List.fold_left
            (fun kept (e : Pareto.entry) ->
              let rp =
                Dqo_plan.Props.restrict e.Pareto.props stitch_interesting
              in
              if
                List.exists
                  (fun ((k : Pareto.entry), krp) ->
                    k.Pareto.cost <= e.Pareto.cost
                    && Dqo_plan.Props.dominates krp rp)
                  kept
              then kept
              else
                (e, rp)
                :: List.filter
                     (fun ((k : Pareto.entry), krp) ->
                       not
                         (e.Pareto.cost <= k.Pareto.cost
                         && Dqo_plan.Props.dominates rp krp))
                     kept)
            [] entries
        in
        List.rev_map fst kept
    in
    let stitched, stitch_stats =
      Search.optimize_frontiers ?model ?pool ?metrics ?feedback
        ~interesting:stitch_interesting
        ~names:
          (Array.of_list
             (List.mapi (fun pi _ -> "P" ^ string_of_int pi) parts))
        ~leaves:
          (Array.of_list
             (List.map
                (fun (_, _, entries, _) -> prune_for_stitch entries)
                partition_results))
        ~predicates:cross mode catalog
    in
    (* Splice the stitched frontier back under the outer skeleton. *)
    let entries, outer_stats =
      Search.optimize_entries ?model ?metrics ?feedback ~interesting
        ~virtuals:[ (hole, stitched) ]
        mode catalog skeleton
    in
    let report =
      {
        leaves = k;
        partition_max;
        partitions =
          List.map
            (fun (members, local_preds, p_entries, (p_stats : Search.stats)) ->
              let best = Pareto.cheapest p_entries in
              {
                members = List.map (fun m -> leaf_names.(m)) members;
                leaf_count = List.length members;
                internal_predicates = List.length local_preds;
                frontier = List.length p_entries;
                best_cost = best.Pareto.cost;
                best_rows = best.Pareto.rows;
                considered = p_stats.Search.plans_considered;
              })
            partition_results;
        cut_predicates = List.length cross;
        stitch_considered = stitch_stats.Search.plans_considered;
        stitch_levels = stitch_stats.Search.levels;
      }
    in
    let pieces =
      Array.to_list (Array.map snd leaf_results)
      @ List.map (fun (_, _, _, s) -> s) partition_results
      @ [ stitch_stats ]
    in
    (entries, merge_stats ~outer:outer_stats ~pieces entries, report)

let optimize ?model ?pool ?feedback ?partition_max mode catalog l =
  let entries, _, report =
    optimize_entries ?model ?pool ?feedback ?partition_max mode catalog l
  in
  (Pareto.cheapest entries, report)

(* ------------------------------------------------------------------ *)
(* Rendering / JSON.                                                   *)

let partition_to_json (p : partition_info) =
  Json.Obj
    [
      ("members", Json.List (List.map (fun m -> Json.String m) p.members));
      ("leaf_count", Json.Int p.leaf_count);
      ("internal_predicates", Json.Int p.internal_predicates);
      ("frontier", Json.Int p.frontier);
      ("best_cost", Json.Float p.best_cost);
      ("best_rows", Json.Int p.best_rows);
      ("candidates_considered", Json.Int p.considered);
    ]

let report_to_json (r : report) =
  Json.Obj
    [
      ("leaves", Json.Int r.leaves);
      ("partition_max", Json.Int r.partition_max);
      ("partitions", Json.List (List.map partition_to_json r.partitions));
      ("cut_predicates", Json.Int r.cut_predicates);
      ("stitch_considered", Json.Int r.stitch_considered);
      ( "stitch_levels",
        Json.List (List.map Search.level_to_json r.stitch_levels) );
    ]

(* The partition tree for EXPLAIN ANALYZE: one line per partition, then
   the stitch summary. *)
let render_report (r : report) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "hierarchical planning: %d leaves -> %d partition%s (max %d), %d cut \
        predicate%s\n"
       r.leaves
       (List.length r.partitions)
       (if List.length r.partitions = 1 then "" else "s")
       r.partition_max r.cut_predicates
       (if r.cut_predicates = 1 then "" else "s"));
  List.iteri
    (fun i (p : partition_info) ->
      Buffer.add_string b
        (Printf.sprintf
           "  P%d: %d %s {%s}, %d internal pred%s, frontier %d, %d \
            candidates, best cost %.0f\n"
           i p.leaf_count
           (if p.leaf_count = 1 then "leaf" else "leaves")
           (String.concat "," p.members)
           p.internal_predicates
           (if p.internal_predicates = 1 then "" else "s")
           p.frontier p.considered p.best_cost))
    r.partitions;
  Buffer.add_string b
    (Printf.sprintf "  stitch: %d candidates over %d DP level%s\n"
       r.stitch_considered
       (List.length r.stitch_levels)
       (if List.length r.stitch_levels = 1 then "" else "s"));
  Buffer.contents b
