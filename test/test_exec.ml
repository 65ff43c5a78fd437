(* Tests for the execution engine: the five grouping implementations, the
   five joins, sort/filter/partition operators, and the Figure 2
   producer/consumer pipeline algebra. *)

module Grouping = Dqo_exec.Grouping
module Group_result = Dqo_exec.Group_result
module Join = Dqo_exec.Join
module Sort_op = Dqo_exec.Sort_op
module Filter = Dqo_exec.Filter
module Partition = Dqo_exec.Partition
module Pipeline = Dqo_exec.Pipeline
module Aggregate = Dqo_exec.Aggregate
module Datagen = Dqo_data.Datagen
module Int_col = Dqo_data.Int_col
module Int_array = Dqo_util.Int_array

(* Shorthand: most tests are written against literal arrays; the
   operators are storage-agnostic, so wrap in the flat backend. *)
let ic = Int_col.of_array

let qtest = QCheck_alcotest.to_alcotest

(* --- grouping: reference model ------------------------------------------ *)

let reference_grouping keys values =
  let h = Hashtbl.create 64 in
  Array.iteri
    (fun i k ->
      let c, s = Option.value ~default:(0, 0) (Hashtbl.find_opt h k) in
      Hashtbl.replace h k (c + 1, s + values.(i)))
    keys;
  List.sort compare (Hashtbl.fold (fun k cs acc -> (k, cs) :: acc) h [])

let check_against_reference name result keys values =
  Alcotest.(check bool)
    (name ^ " matches reference model")
    true
    (Group_result.to_sorted_alist result = reference_grouping keys values)

(* Generated dataset exercising every algorithm through [Grouping.run]. *)
let dataset_gen =
  QCheck.Gen.(
    let* groups = int_range 1 40 in
    let* extra = int_bound 400 in
    let* sorted = bool in
    let* dense = bool in
    let* seed = int_bound 10_000 in
    return (groups, groups + extra, sorted, dense, seed))

let make_dataset (groups, n, sorted, dense, seed) =
  let rng = Dqo_util.Rng.create ~seed in
  let d = Datagen.grouping ~rng ~n ~groups ~sorted ~dense () in
  let values = Array.init n (fun i -> (i * 37) mod 101) in
  (d, values)

let prop_all_groupings_agree =
  QCheck.Test.make ~name:"all applicable groupings = reference" ~count:120
    (QCheck.make dataset_gen) (fun params ->
      let d, values = make_dataset params in
      let reference =
        reference_grouping (Int_col.to_array d.Datagen.keys) values
      in
      List.for_all
        (fun alg ->
          let applicable =
            match alg with
            | Grouping.SPHG -> d.Datagen.dense
            | Grouping.OG -> d.Datagen.sorted
            | Grouping.HG | Grouping.SOG | Grouping.BSG -> true
          in
          (not applicable)
          || Group_result.to_sorted_alist
               (Grouping.run alg ~dataset:d ~values:(ic values))
             = reference)
        Grouping.all)

let prop_hash_molecules_agree =
  (* All table layouts and hash functions compute the same grouping. *)
  QCheck.Test.make ~name:"HG molecule choices are semantics-preserving"
    ~count:60 (QCheck.make dataset_gen) (fun params ->
      let d, values = make_dataset params in
      let reference =
        reference_grouping (Int_col.to_array d.Datagen.keys) values
      in
      List.for_all
        (fun table ->
          List.for_all
            (fun hash ->
              Group_result.to_sorted_alist
                (Grouping.hash_based ~hash ~table ~keys:d.Datagen.keys
                   ~values:(ic values) ())
              = reference)
            Dqo_hash.Hash_fn.all)
        [ Grouping.Chaining; Grouping.Linear_probing; Grouping.Robin_hood ])

let prop_boxed_hg_agrees =
  QCheck.Test.make ~name:"boxed HG = flat HG" ~count:80
    (QCheck.make dataset_gen) (fun params ->
      let d, values = make_dataset params in
      Group_result.to_sorted_alist
        (Grouping.hash_based_boxed ~keys:d.Datagen.keys ~values:(ic values))
      = reference_grouping (Int_col.to_array d.Datagen.keys) values)

let test_grouping_edge_cases () =
  (* Empty input. *)
  let empty = Grouping.hash_based ~keys:(ic [||]) ~values:(ic [||]) () in
  Alcotest.(check int) "empty groups" 0 (Group_result.groups empty);
  (* Single key repeated. *)
  let r =
    Grouping.sort_order_based ~keys:(ic [| 7; 7; 7 |])
      ~values:(ic [| 1; 2; 3 |])
  in
  Alcotest.(check bool) "one group" true
    (Group_result.to_sorted_alist r = [ (7, (3, 6)) ]);
  (* Negative keys work in the general algorithms. *)
  let keys = [| -5; 3; -5 |] and values = [| 1; 1; 1 |] in
  check_against_reference "HG negatives"
    (Grouping.hash_based ~keys:(ic keys) ~values:(ic values) ())
    keys values;
  check_against_reference "SOG negatives"
    (Grouping.sort_order_based ~keys:(ic keys) ~values:(ic values))
    keys values

let test_grouping_preconditions () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Grouping: keys/values length mismatch") (fun () ->
      ignore (Grouping.hash_based ~keys:(ic [| 1 |]) ~values:(ic [||]) ()));
  Alcotest.check_raises "sph key out of domain"
    (Invalid_argument "Grouping.sph_based: key outside dense domain")
    (fun () ->
      ignore
        (Grouping.sph_based ~lo:0 ~hi:3 ~keys:(ic [| 5 |])
           ~values:(ic [| 1 |])));
  Alcotest.check_raises "bsg key missing"
    (Invalid_argument "Grouping.binary_search_based: key not in universe")
    (fun () ->
      ignore
        (Grouping.binary_search_based ~universe:[| 1; 2 |] ~keys:(ic [| 3 |])
           ~values:(ic [| 1 |])))

let test_sph_output_sorted_by_key () =
  let keys = [| 3; 1; 2; 1 |] and values = [| 1; 1; 1; 1 |] in
  let r = Grouping.sph_based ~lo:1 ~hi:3 ~keys:(ic keys) ~values:(ic values) in
  Alcotest.(check bool) "slot order = key order" true
    (r.Group_result.keys = [| 1; 2; 3 |])

let test_og_on_clustered_unsorted_input () =
  (* OG needs clustering, not full sortedness. *)
  let keys = [| 9; 9; 2; 2; 2; 5 |] and values = [| 1; 1; 1; 1; 1; 1 |] in
  let r = Grouping.order_based ~keys:(ic keys) ~values:(ic values) () in
  check_against_reference "OG clustered" r keys values

let test_applicability_matrix () =
  let dense_sorted = Dqo_data.Col_stats.analyze (ic [| 0; 0; 1; 2 |]) in
  (* Note the repeated non-adjacent 9_999: all-distinct data would be
     trivially clustered and OG-compatible. *)
  let sparse_unsorted =
    Dqo_data.Col_stats.analyze (ic [| 9_999; 0; 123_456; 9_999 |])
  in
  Alcotest.(check bool) "SPHG on dense" true
    (Grouping.applicable Grouping.SPHG dense_sorted);
  Alcotest.(check bool) "SPHG on sparse" false
    (Grouping.applicable Grouping.SPHG sparse_unsorted);
  Alcotest.(check bool) "OG on sorted" true
    (Grouping.applicable Grouping.OG dense_sorted);
  Alcotest.(check bool) "OG on unsorted" false
    (Grouping.applicable Grouping.OG sparse_unsorted);
  List.iter
    (fun alg ->
      Alcotest.(check bool) "always applicable" true
        (Grouping.applicable alg sparse_unsorted))
    [ Grouping.HG; Grouping.SOG; Grouping.BSG ]

(* --- joins ----------------------------------------------------------------- *)

let normalize (r : Join.result) =
  List.sort compare
    (Array.to_list (Array.map2 (fun l rr -> (l, rr)) r.Join.left r.Join.right))

let join_input_gen =
  QCheck.Gen.(
    pair
      (array_size (int_bound 120) (int_bound 40))
      (array_size (int_bound 120) (int_bound 40)))

let prop_joins_match_nested_loop =
  QCheck.Test.make ~name:"HJ/SPHJ/SOJ/BSJ = nested loop" ~count:150
    (QCheck.make join_input_gen) (fun (left, right) ->
      let left = ic left and right = ic right in
      let expected = normalize (Join.nested_loop_reference ~left ~right) in
      List.for_all
        (fun alg ->
          match alg with
          | Join.OJ -> true (* needs sorted inputs; tested separately *)
          | Join.HJ | Join.SPHJ | Join.SOJ | Join.BSJ ->
            normalize (Join.run alg ~left ~right) = expected)
        Join.all)

let prop_merge_join_on_sorted =
  QCheck.Test.make ~name:"OJ = nested loop on sorted inputs" ~count:150
    (QCheck.make join_input_gen) (fun (left, right) ->
      let left = ic (Int_array.sorted_copy left) in
      let right = ic (Int_array.sorted_copy right) in
      normalize (Join.merge_join ~left ~right)
      = normalize (Join.nested_loop_reference ~left ~right))

let test_merge_join_requires_sorted () =
  Alcotest.check_raises "left unsorted"
    (Invalid_argument "Join.merge_join: left input not sorted") (fun () ->
      ignore (Join.merge_join ~left:(ic [| 2; 1 |]) ~right:(ic [| 1 |])))

let test_join_duplicates_cross_product () =
  let r = Join.hash_join ~left:(ic [| 7; 7 |]) ~right:(ic [| 7; 7; 7 |]) () in
  Alcotest.(check int) "2x3 pairs" 6 (Join.cardinality r)

let test_sph_join_domain () =
  Alcotest.check_raises "build key outside domain"
    (Invalid_argument "Join.sph_join: build key outside dense domain")
    (fun () ->
      ignore (Join.sph_join ~lo:0 ~hi:3 ~left:(ic [| 9 |]) ~right:(ic [||])));
  (* Probe keys outside the domain simply do not match. *)
  let r =
    Join.sph_join ~lo:0 ~hi:3 ~left:(ic [| 1; 2 |]) ~right:(ic [| 2; 99 |])
  in
  Alcotest.(check bool) "one match" true (normalize r = [ (1, 0) ])

let test_join_materialize () =
  let schema_l =
    Dqo_data.Schema.of_names [ ("id", Dqo_data.Schema.T_int); ("a", Dqo_data.Schema.T_int) ]
  in
  let schema_r =
    Dqo_data.Schema.of_names [ ("r_id", Dqo_data.Schema.T_int); ("b", Dqo_data.Schema.T_int) ]
  in
  let l = Dqo_data.Relation.of_int_rows schema_l [ [ 1; 10 ]; [ 2; 20 ] ] in
  let r = Dqo_data.Relation.of_int_rows schema_r [ [ 2; 7 ]; [ 1; 8 ]; [ 2; 9 ] ] in
  let pairs =
    Join.hash_join
      ~left:(Dqo_data.Relation.int_col l "id")
      ~right:(Dqo_data.Relation.int_col r "r_id")
      ()
  in
  let out = Join.materialize l r pairs in
  Alcotest.(check int) "3 rows" 3 (Dqo_data.Relation.cardinality out);
  (* Every output row satisfies the join predicate. *)
  let ids = Int_col.to_array (Dqo_data.Relation.int_col out "id") in
  let r_ids = Int_col.to_array (Dqo_data.Relation.int_col out "r_id") in
  Array.iteri
    (fun i id -> Alcotest.(check int) "join predicate" id r_ids.(i))
    ids;
  (* [~only] gathers just the named columns, in schema order, with the
     same rows as the full output. *)
  let only = Join.materialize ~only:[ "b"; "a" ] l r pairs in
  Alcotest.(check bool) "only = projection of the full output" true
    (Dqo_data.Relation.rows only
    = Dqo_data.Relation.rows (Dqo_data.Relation.project out [ "a"; "b" ]))

(* --- sort / filter ----------------------------------------------------------- *)

let test_sort_op_stable () =
  let keys = [| 2; 1; 2; 1 |] in
  let perm = Sort_op.permutation (ic keys) in
  Alcotest.(check bool) "stable" true (perm = [| 1; 3; 0; 2 |])

let prop_filter_matches_spec =
  QCheck.Test.make ~name:"Filter.select = predicate scan" ~count:200
    QCheck.(
      pair
        (array_of_size (QCheck.Gen.int_bound 100) (int_bound 50))
        (int_bound 50))
    (fun (column, x) ->
      List.for_all
        (fun p ->
          let ids = Filter.select (ic column) p in
          let expected = ref [] in
          Array.iteri
            (fun i v -> if Filter.eval p v then expected := i :: !expected)
            column;
          Array.to_list ids = List.rev !expected)
        [
          Filter.Eq x; Filter.Ne x; Filter.Lt x; Filter.Le x; Filter.Gt x;
          Filter.Ge x; Filter.Between (x / 2, x);
        ])

let test_selectivity_bounds () =
  List.iter
    (fun p ->
      let s = Filter.selectivity p ~lo:0 ~hi:99 in
      Alcotest.(check bool) "in [0,1]" true (s >= 0.0 && s <= 1.0))
    [
      Filter.Eq 5; Filter.Ne 5; Filter.Lt 0; Filter.Le 99; Filter.Gt 99;
      Filter.Ge 0; Filter.Between (10, 20); Filter.Between (30, 10);
    ];
  Alcotest.(check (float 1e-9)) "eq uniform" 0.01
    (Filter.selectivity (Filter.Eq 5) ~lo:0 ~hi:99);
  Alcotest.(check (float 1e-9)) "between" 0.11
    (Filter.selectivity (Filter.Between (10, 20)) ~lo:0 ~hi:99)

(* --- partition / pipeline ------------------------------------------------------ *)

let prop_hash_partition_covers =
  QCheck.Test.make ~name:"hash partitioning is a disjoint cover" ~count:100
    QCheck.(
      pair
        (array_of_size (QCheck.Gen.int_bound 200) (int_bound 1_000))
        (QCheck.int_range 1 16))
    (fun (keys, partitions) ->
      let values = Array.map (fun k -> k * 2) keys in
      let parts =
        Partition.by_hash ~partitions ~keys:(ic keys) ~values:(ic values) ()
      in
      Partition.partition_count parts = partitions
      && Partition.total_rows parts = Array.length keys
      &&
      (* Every key's rows land in exactly one partition. *)
      let owner = Hashtbl.create 64 in
      Array.for_all
        (fun p ->
          Array.for_all
            (fun k ->
              match Hashtbl.find_opt owner k with
              | Some o -> o = p
              | None ->
                Hashtbl.add owner k p;
                true)
            parts.Partition.keys.(p))
        (Array.init partitions (fun p -> p)))

let test_dense_key_partition_is_figure2 () =
  (* "If the input produces 42 different groups, partitionBy creates 42
     different producers." *)
  let keys = [| 2; 0; 2; 1; 0; 2 |] in
  let values = [| 1; 1; 1; 1; 1; 1 |] in
  let parts =
    Partition.by_dense_key ~lo:0 ~hi:2 ~keys:(ic keys) ~values:(ic values)
  in
  Alcotest.(check int) "one producer per domain value" 3
    (Partition.partition_count parts);
  Alcotest.(check bool) "partition 2 holds the three 2s" true
    (parts.Partition.keys.(2) = [| 2; 2; 2 |]);
  Alcotest.(check bool) "partition 1 holds the single 1" true
    (parts.Partition.keys.(1) = [| 1 |])

let test_pipeline_collect_roundtrip () =
  let keys = Array.init 10_000 (fun i -> i mod 97) in
  let values = Array.init 10_000 (fun i -> i) in
  let p = Pipeline.of_arrays ~chunk_size:333 ~keys ~values () in
  let k2, v2 = Pipeline.collect p in
  Alcotest.(check bool) "keys roundtrip" true (k2 = keys);
  Alcotest.(check bool) "values roundtrip" true (v2 = values);
  Alcotest.(check int) "row_count" 10_000 (Pipeline.row_count p)

let test_pipeline_filter_map () =
  let keys = [| 1; 2; 3; 4 |] and values = [| 10; 20; 30; 40 |] in
  let p = Pipeline.of_arrays ~chunk_size:2 ~keys ~values () in
  let filtered = Pipeline.filter (fun k _ -> k mod 2 = 0) p in
  let doubled = Pipeline.map_values (fun v -> v * 2) filtered in
  let k2, v2 = Pipeline.collect doubled in
  Alcotest.(check bool) "filtered keys" true (k2 = [| 2; 4 |]);
  Alcotest.(check bool) "mapped values" true (v2 = [| 40; 80 |])

let prop_partition_based_grouping_equals_hg =
  (* The paper's claim made executable: hash grouping is one instantiation
     of partition-based grouping. *)
  QCheck.Test.make ~name:"partitionBy + aggregate = HG" ~count:80
    QCheck.(
      pair
        (array_of_size (QCheck.Gen.int_bound 300) (int_bound 60))
        (QCheck.int_range 1 8))
    (fun (keys, partitions) ->
      let values = Array.map (fun k -> k + 1) keys in
      let via_bundle =
        Pipeline.partition_based_grouping ~partitions
          (Pipeline.of_arrays ~keys ~values ())
      in
      let direct = Grouping.hash_based ~keys:(ic keys) ~values:(ic values) () in
      Group_result.equal via_bundle direct)

let test_bundle_aggregation_per_producer () =
  let keys = [| 0; 1; 0; 2 |] and values = [| 5; 6; 7; 8 |] in
  let bundle =
    Pipeline.partition_by_dense_key ~lo:0 ~hi:2
      (Pipeline.of_arrays ~keys ~values ())
  in
  Alcotest.(check int) "three producers" 3 (Array.length bundle);
  let results = Pipeline.aggregate_bundle bundle in
  (* Each member aggregates independently: member 0 sees only key 0. *)
  Alcotest.(check bool) "member 0" true
    (Group_result.to_sorted_alist results.(0) = [ (0, (2, 12)) ]);
  Alcotest.(check bool) "member 2" true
    (Group_result.to_sorted_alist results.(2) = [ (2, (1, 8)) ])

(* --- online aggregation ------------------------------------------------------------ *)

module Online_agg = Dqo_exec.Online_agg

let prop_online_finalize_is_exact =
  QCheck.Test.make ~name:"online aggregation finalises to the exact result"
    ~count:100
    QCheck.(
      pair
        (array_of_size (QCheck.Gen.int_range 1 300) (int_bound 40))
        (QCheck.int_range 1 64))
    (fun (keys, chunk) ->
      let values = Array.map (fun k -> k + 1) keys in
      let result =
        Online_agg.run_progressive ~keys:(ic keys) ~values:(ic values)
          ~report_every:chunk
          (fun _ -> ())
      in
      Group_result.to_sorted_alist result = reference_grouping keys values)

let test_online_snapshots_converge () =
  let rng = Dqo_util.Rng.create ~seed:12 in
  let n = 50_000 in
  let keys = Array.init n (fun _ -> Dqo_util.Rng.int rng 10) in
  let values = Array.make n 1 in
  let snapshots = ref [] in
  let result =
    Online_agg.run_progressive ~keys:(ic keys) ~values:(ic values)
      ~report_every:5_000 (fun s -> snapshots := s :: !snapshots)
  in
  Alcotest.(check int) "10 snapshots" 10 (List.length !snapshots);
  (* Early estimate: on a shuffled uniform stream, after 10% the scaled
     count estimate of each group is within 25% of its final value. *)
  let final = Group_result.to_sorted_alist result in
  let early = List.nth (List.rev !snapshots) 0 in
  List.iter
    (fun (e : Online_agg.estimate) ->
      let _, (exact, _) = List.find (fun (k, _) -> k = e.Online_agg.key) final in
      let err =
        Float.abs (e.Online_agg.est_count -. Float.of_int exact)
        /. Float.of_int exact
      in
      Alcotest.(check bool) "early estimate within 25%" true (err < 0.25))
    early;
  (* Last snapshot's estimates are exact (progress = 1). *)
  let last = List.hd !snapshots in
  List.iter
    (fun (e : Online_agg.estimate) ->
      Alcotest.(check (float 1e-6))
        "final estimate exact"
        (Float.of_int e.Online_agg.seen_count)
        e.Online_agg.est_count)
    last

let test_online_preconditions () =
  let t = Online_agg.create ~total_rows:2 in
  Alcotest.(check int) "rows_seen" 0 (Online_agg.rows_seen t);
  Alcotest.(check bool) "empty snapshot" true (Online_agg.snapshot t = []);
  Alcotest.check_raises "finalize too early"
    (Invalid_argument "Online_agg.finalize: input not fully consumed")
    (fun () -> ignore (Online_agg.finalize t));
  Online_agg.feed t { Pipeline.keys = [| 1; 1 |]; values = [| 2; 3 |] };
  Alcotest.check_raises "overfeed"
    (Invalid_argument "Online_agg.feed: more tuples than total_rows")
    (fun () -> Online_agg.feed t { Pipeline.keys = [| 9 |]; values = [| 9 |] });
  let r = Online_agg.finalize t in
  Alcotest.(check bool) "result" true
    (Group_result.to_sorted_alist r = [ (1, (2, 5)) ])

(* --- aggregates ------------------------------------------------------------------ *)

let test_aggregate_classification () =
  Alcotest.(check bool) "count distributive" true
    (Aggregate.classify Aggregate.Count = Aggregate.Distributive);
  Alcotest.(check bool) "avg algebraic" true
    (Aggregate.classify Aggregate.Avg = Aggregate.Algebraic)

let prop_aggregate_merge_is_sound =
  (* Splitting a stream anywhere and merging partial states must equal
     aggregating the whole stream. *)
  QCheck.Test.make ~name:"merge(fold xs, fold ys) = fold (xs @ ys)" ~count:200
    QCheck.(
      pair (list_of_size (QCheck.Gen.int_bound 30) (int_bound 100))
        (list_of_size (QCheck.Gen.int_bound 30) (int_bound 100)))
    (fun (xs, ys) ->
      List.for_all
        (fun spec ->
          let fold l =
            List.fold_left (Aggregate.step spec) (Aggregate.init spec) l
          in
          Aggregate.finalize spec
            (Aggregate.merge spec (fold xs) (fold ys))
          = Aggregate.finalize spec (fold (xs @ ys)))
        [ Aggregate.Count; Aggregate.Sum; Aggregate.Min; Aggregate.Max;
          Aggregate.Avg ])

let test_aggregate_empty_groups () =
  Alcotest.(check bool) "min of empty is null" true
    (Aggregate.finalize Aggregate.Min (Aggregate.init Aggregate.Min)
    = Dqo_data.Value.Null);
  Alcotest.(check bool) "count of empty is 0" true
    (Aggregate.finalize Aggregate.Count (Aggregate.init Aggregate.Count)
    = Dqo_data.Value.Int 0)

let () =
  Alcotest.run "dqo_exec"
    [
      ( "grouping",
        [
          qtest prop_all_groupings_agree;
          qtest prop_hash_molecules_agree;
          qtest prop_boxed_hg_agrees;
          Alcotest.test_case "edge cases" `Quick test_grouping_edge_cases;
          Alcotest.test_case "preconditions" `Quick
            test_grouping_preconditions;
          Alcotest.test_case "sph output sorted" `Quick
            test_sph_output_sorted_by_key;
          Alcotest.test_case "og on clustered" `Quick
            test_og_on_clustered_unsorted_input;
          Alcotest.test_case "applicability" `Quick test_applicability_matrix;
        ] );
      ( "join",
        [
          qtest prop_joins_match_nested_loop;
          qtest prop_merge_join_on_sorted;
          Alcotest.test_case "merge requires sorted" `Quick
            test_merge_join_requires_sorted;
          Alcotest.test_case "duplicate cross product" `Quick
            test_join_duplicates_cross_product;
          Alcotest.test_case "sph domain" `Quick test_sph_join_domain;
          Alcotest.test_case "materialize" `Quick test_join_materialize;
        ] );
      ( "sort-filter",
        [
          Alcotest.test_case "stable sort" `Quick test_sort_op_stable;
          qtest prop_filter_matches_spec;
          Alcotest.test_case "selectivity" `Quick test_selectivity_bounds;
        ] );
      ( "pipeline",
        [
          qtest prop_hash_partition_covers;
          Alcotest.test_case "figure 2 semantics" `Quick
            test_dense_key_partition_is_figure2;
          Alcotest.test_case "collect roundtrip" `Quick
            test_pipeline_collect_roundtrip;
          Alcotest.test_case "filter & map" `Quick test_pipeline_filter_map;
          qtest prop_partition_based_grouping_equals_hg;
          Alcotest.test_case "bundle aggregation" `Quick
            test_bundle_aggregation_per_producer;
        ] );
      ( "online-aggregation",
        [
          qtest prop_online_finalize_is_exact;
          Alcotest.test_case "snapshots converge" `Quick
            test_online_snapshots_converge;
          Alcotest.test_case "preconditions" `Quick test_online_preconditions;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "classification" `Quick
            test_aggregate_classification;
          qtest prop_aggregate_merge_is_sound;
          Alcotest.test_case "empty groups" `Quick test_aggregate_empty_groups;
        ] );
    ]
