(* End-to-end engine tests: SQL -> parse -> bind -> optimise (both modes)
   -> execute, checked against naive reference computations, plus
   algorithmic-view installation. *)

module Engine = Dqo_engine.Engine
module Relation = Dqo_data.Relation
module Schema = Dqo_data.Schema
module Value = Dqo_data.Value
module Datagen = Dqo_data.Datagen
module Physical = Dqo_plan.Physical
module Pareto = Dqo_opt.Pareto

(* Materialised copy of an integer column (tests index it randomly). *)
let int_column rel name = Dqo_data.Int_col.to_array (Relation.int_col rel name)

let fk_db ~r_sorted ~s_sorted ~dense ~seed =
  let rng = Dqo_util.Rng.create ~seed in
  let pair =
    Datagen.fk_pair ~rng ~r_rows:2_000 ~s_rows:7_000 ~r_groups:400 ~r_sorted
      ~s_sorted ~dense
  in
  let db = Engine.create () in
  Engine.register db ~name:"R" pair.Datagen.r;
  Engine.register db ~name:"S" pair.Datagen.s;
  (db, pair)

(* Reference: group count of the FK join, computed naively. *)
let reference_group_counts (pair : Datagen.fk_pair) =
  let ids = int_column pair.Datagen.r "id" in
  let a = int_column pair.Datagen.r "a" in
  let a_of_id = Hashtbl.create 1024 in
  Array.iteri (fun i id -> Hashtbl.replace a_of_id id a.(i)) ids;
  let counts = Hashtbl.create 1024 in
  Array.iter
    (fun r_id ->
      let g = Hashtbl.find a_of_id r_id in
      Hashtbl.replace counts g (1 + Option.value ~default:0 (Hashtbl.find_opt counts g)))
    (int_column pair.Datagen.s "r_id");
  counts

let result_to_alist rel =
  let keys = int_column rel (List.hd (List.map (fun (f : Schema.field) -> f.Schema.name) (Schema.fields (Relation.schema rel)))) in
  let counts = int_column rel "cnt" in
  List.sort compare
    (Array.to_list (Array.mapi (fun i k -> (k, counts.(i))) keys))

let check_group_query ~r_sorted ~s_sorted ~dense ~seed =
  let db, pair = fk_db ~r_sorted ~s_sorted ~dense ~seed in
  let sql = "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a" in
  let expected =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) (reference_group_counts pair) [])
  in
  let check mode label =
    let rel = Engine.run_sql db ~mode sql in
    Alcotest.(check (list (pair int int))) label expected (result_to_alist rel)
  in
  check Engine.SQO "sqo result";
  check Engine.DQO "dqo result"

let test_group_query_all_combinations () =
  List.iteri
    (fun i (r_sorted, s_sorted, dense) ->
      check_group_query ~r_sorted ~s_sorted ~dense ~seed:(100 + i))
    [
      (true, true, true);
      (true, false, true);
      (false, true, true);
      (false, false, true);
      (true, true, false);
      (false, false, false);
    ]

let test_dqo_plan_uses_sph_and_matches () =
  let db, _ = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:5 in
  let sql = "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a" in
  let e = Engine.plan_sql db Engine.DQO sql in
  Alcotest.(check bool) "deep plan is SPH-based" true
    (Physical.uses_sph e.Pareto.plan)

let test_where_pushdown () =
  let db, pair = fk_db ~r_sorted:true ~s_sorted:true ~dense:true ~seed:9 in
  let rel =
    Engine.run_sql db
      "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id WHERE a < 100 GROUP BY a"
  in
  let expected =
    List.sort compare
      (Hashtbl.fold
         (fun k v acc -> if k < 100 then (k, v) :: acc else acc)
         (reference_group_counts pair) [])
  in
  Alcotest.(check (list (pair int int))) "filtered" expected (result_to_alist rel)

let test_plain_projection () =
  let db, pair = fk_db ~r_sorted:true ~s_sorted:false ~dense:true ~seed:3 in
  let rel = Engine.run_sql db "SELECT a FROM R WHERE id BETWEEN 10 AND 19" in
  Alcotest.(check int) "ten rows" 10 (Relation.cardinality rel);
  let ids = int_column pair.Datagen.r "id" in
  let a = int_column pair.Datagen.r "a" in
  let expected = ref [] in
  Array.iteri
    (fun i id -> if id >= 10 && id <= 19 then expected := a.(i) :: !expected)
    ids;
  let got = Array.to_list (int_column rel "a") in
  Alcotest.(check (list int))
    "values" (List.sort compare !expected) (List.sort compare got)

let test_generic_aggregates () =
  let db = Engine.create () in
  let schema = Schema.of_names [ ("g", Schema.T_int); ("v", Schema.T_int) ] in
  let rel =
    Relation.of_int_rows schema
      [ [ 1; 10 ]; [ 2; 5 ]; [ 1; 30 ]; [ 2; 15 ]; [ 1; 20 ] ]
  in
  Engine.register db ~name:"T" rel;
  let out =
    Engine.run_sql db
      "SELECT g, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS mean, COUNT(*) AS cnt \
       FROM T GROUP BY g"
  in
  let rows = List.sort compare (Relation.rows out) in
  Alcotest.(check int) "two groups" 2 (List.length rows);
  (match rows with
  | [ [ Value.Int 1; Value.Int 10; Value.Int 30; Value.Float m1; Value.Int 3 ];
      [ Value.Int 2; Value.Int 5; Value.Int 15; Value.Float m2; Value.Int 2 ] ] ->
    Alcotest.(check (float 0.001)) "avg g1" 20.0 m1;
    Alcotest.(check (float 0.001)) "avg g2" 10.0 m2
  | _ -> Alcotest.fail "unexpected result shape")

let test_sum_aggregate_fast_path () =
  let db = Engine.create () in
  let schema = Schema.of_names [ ("g", Schema.T_int); ("v", Schema.T_int) ] in
  let rel =
    Relation.of_int_rows schema [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 3 ]; [ 1; 4 ] ]
  in
  Engine.register db ~name:"T" rel;
  let out = Engine.run_sql db "SELECT g, SUM(v) AS s FROM T GROUP BY g" in
  let rows = List.sort compare (Relation.rows out) in
  Alcotest.(check bool) "sums" true
    (rows = [ [ Value.Int 0; Value.Int 4 ]; [ Value.Int 1; Value.Int 6 ] ])

(* --- algorithmic views ---------------------------------------------- *)

let test_perfect_hash_av_on_sparse_data () =
  let db, pair = fk_db ~r_sorted:false ~s_sorted:false ~dense:false ~seed:21 in
  let sql = "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a" in
  (* Without the AV, DQO cannot use SPH on sparse columns. *)
  let before = Engine.plan_sql db Engine.DQO sql in
  Alcotest.(check bool) "no SPH before" false
    (Physical.uses_sph before.Pareto.plan);
  (* Install perfect-hash AVs over the sparse join and grouping keys. *)
  Engine.install_av db
    (Dqo_av.View.perfect_hash (Engine.catalog db) ~relation:"R" ~column:"id");
  Engine.install_av db
    (Dqo_av.View.perfect_hash (Engine.catalog db) ~relation:"R" ~column:"a");
  let after = Engine.plan_sql db Engine.DQO sql in
  Alcotest.(check bool) "SPH after AV install" true
    (Physical.uses_sph after.Pareto.plan);
  Alcotest.(check bool) "cheaper after AV" true
    (after.Pareto.cost < before.Pareto.cost);
  (* And the FKS-backed execution still returns the right answer. *)
  let rel = Engine.run_sql db ~mode:Engine.DQO sql in
  let expected =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) (reference_group_counts pair) [])
  in
  Alcotest.(check (list (pair int int))) "fks execution" expected
    (result_to_alist rel)

(* Perfect-hash AVs over two relations' columns of the same name each
   serve their own relation: installing or dropping one leaves the
   other's FKS in place. *)
let test_perfect_hash_avs_on_same_named_columns () =
  let db = Engine.create () in
  let ints names rows =
    Relation.of_int_rows (Schema.of_names (List.map (fun n -> (n, Schema.T_int)) names)) rows
  in
  (* Sparse keys: R's ids and R2's ids are disjoint sets. *)
  let r = List.init 400 (fun i -> [ (i * 7_919) + 13; i mod 37 ]) in
  let r2 = List.init 300 (fun i -> [ (i * 104_729) + 5; i ]) in
  let s = List.init 1_500 (fun j -> [ ((j * 31 mod 400) * 7_919) + 13; j ]) in
  Engine.register db ~name:"R" (ints [ "id"; "a" ] r);
  Engine.register db ~name:"R2" (ints [ "id"; "a2" ] r2);
  Engine.register db ~name:"S" (ints [ "r_id"; "b" ] s);
  let sql = "SELECT a, COUNT(*) AS c0 FROM R JOIN S ON id = r_id GROUP BY a" in
  let expected =
    let counts = Hashtbl.create 64 in
    List.iter
      (fun sr ->
        let rr = List.find (fun rr -> List.hd rr = List.hd sr) r in
        let a = List.nth rr 1 in
        Hashtbl.replace counts a (1 + Option.value ~default:0 (Hashtbl.find_opt counts a)))
      s;
    List.sort compare (Hashtbl.fold (fun a c acc -> [ Value.Int a; Value.Int c ] :: acc) counts [])
  in
  let rec has_sphj (p : Physical.t) =
    match p with
    | Physical.Join_op (_, _, _, _, impl) when impl.Physical.j_alg = Dqo_exec.Join.SPHJ -> true
    | Physical.Join_op (l, r, _, _, _) -> has_sphj l || has_sphj r
    | Physical.Table_scan _ -> false
    | Physical.Filter_op (sub, _, _) | Physical.Project_op (sub, _)
    | Physical.Sort_enforcer (sub, _) | Physical.Group_op (sub, _, _, _) ->
      has_sphj sub
  in
  let check label =
    Alcotest.(check bool) (label ^ ": SPHJ") true
      (has_sphj (Engine.plan_sql db Engine.DQO sql).Pareto.plan);
    Alcotest.(check bool) (label ^ ": result") true
      (List.sort compare (Relation.rows (Engine.run_sql db sql)) = expected)
  in
  let av relation =
    Dqo_av.View.perfect_hash (Engine.catalog db) ~relation ~column:"id"
  in
  let r_av = av "R" in
  Engine.install_av db r_av;
  check "R's AV";
  let r2_av = av "R2" in
  Engine.install_av db r2_av;
  check "both AVs";
  Engine.uninstall_av db r2_av.Dqo_av.View.id;
  check "R2's AV dropped";
  Engine.install_av db r2_av;
  Engine.uninstall_av db r_av.Dqo_av.View.id;
  Engine.install_av db r_av;
  check "R's AV reinstalled"

let test_sorted_projection_av () =
  let db, _ = fk_db ~r_sorted:false ~s_sorted:true ~dense:true ~seed:33 in
  let sql = "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a" in
  let before = Engine.plan_sql db Engine.SQO sql in
  Engine.install_av db
    (Dqo_av.View.sorted_projection (Engine.catalog db) ~relation:"R"
       ~column:"id");
  let after = Engine.plan_sql db Engine.SQO sql in
  Alcotest.(check bool) "sorted projection helps SQO" true
    (after.Pareto.cost < before.Pareto.cost);
  (* The stored relation was physically reordered. *)
  let r = Engine.relation db "R" in
  Alcotest.(check bool) "R now physically sorted" true
    (Dqo_util.Int_array.is_sorted (int_column r "id"))

let test_grouping_result_av () =
  let db, pair = fk_db ~r_sorted:true ~s_sorted:true ~dense:true ~seed:44 in
  Engine.install_av db
    (Dqo_av.View.grouping_result (Engine.catalog db) ~relation:"R" ~key:"a");
  (* The materialised view is queryable as a relation. *)
  let out = Engine.run_sql db "SELECT a, cnt FROM R__by_a WHERE a < 5" in
  let expected_groups =
    let a = int_column pair.Datagen.r "a" in
    let h = Hashtbl.create 64 in
    Array.iter
      (fun v ->
        if v < 5 then
          Hashtbl.replace h v (1 + Option.value ~default:0 (Hashtbl.find_opt h v)))
      a;
    Hashtbl.length h
  in
  Alcotest.(check int) "materialised groups" expected_groups
    (Relation.cardinality out)

(* --- runtime re-optimisation ------------------------------------------- *)

let test_adaptive_discovers_density () =
  (* The grouping key is globally sparse (one huge outlier), so the
     static optimiser — whose filter estimator narrows bounds but cannot
     prove density — plans HG even for a query whose WHERE clause
     removes the outlier.  Adaptive re-optimisation measures the real
     filter output, finds a dense domain, and switches to SPHG. *)
  let rng = Dqo_util.Rng.create ~seed:88 in
  let n = 20_000 in
  let a =
    Array.init n (fun i -> if i = 0 then 1_000_000_000 else i mod 1_000)
  in
  Dqo_util.Rng.shuffle rng a;
  let v = Array.init n (fun i -> i mod 7) in
  let schema =
    Schema.of_names [ ("a", Schema.T_int); ("v", Schema.T_int) ]
  in
  let rel =
    Relation.create schema [ Dqo_data.Column.of_ints a; Dqo_data.Column.of_ints v ]
  in
  let db = Engine.create () in
  Engine.register db ~name:"T" rel;
  let q =
    Dqo_sql.Binder.plan_of_sql (Engine.catalog db)
      "SELECT a, COUNT(*) AS cnt FROM T WHERE a BETWEEN 0 AND 999 GROUP BY a"
  in
  let result, report = Engine.run_adaptive db q in
  (* The static optimiser cannot prove the filtered domain dense, so any
     static choice but SPHG is possible (the outlier also wrecks its
     uniform selectivity estimate); the adaptive pass measures the real
     intermediate and reaches SPHG. *)
  Alcotest.(check bool) "static cannot reach SPHG" true
    (report.Engine.static_grouping <> "SPHG");
  Alcotest.(check string) "adaptive measures density, picks SPHG" "SPHG"
    report.Engine.adaptive_grouping;
  Alcotest.(check bool) "replanned" true report.Engine.replanned;
  (* Correctness of the adaptive result. *)
  let expected = Hashtbl.create 1_024 in
  Array.iter
    (fun x ->
      if x <= 999 then
        Hashtbl.replace expected x
          (1 + Option.value ~default:0 (Hashtbl.find_opt expected x)))
    a;
  let expected =
    List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) expected [])
  in
  Alcotest.(check (list (pair int int))) "adaptive result correct" expected
    (result_to_alist result)

let test_adaptive_no_change_when_static_is_right () =
  let db, _ = fk_db ~r_sorted:true ~s_sorted:true ~dense:true ~seed:91 in
  let q =
    Dqo_sql.Binder.plan_of_sql (Engine.catalog db)
      "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a"
  in
  let _, report = Engine.run_adaptive db q in
  Alcotest.(check bool) "no replanning needed" false report.Engine.replanned

let test_adaptive_on_non_grouping_query () =
  let db, _ = fk_db ~r_sorted:true ~s_sorted:true ~dense:true ~seed:92 in
  let q =
    Dqo_sql.Binder.plan_of_sql (Engine.catalog db) "SELECT a FROM R WHERE a < 5"
  in
  let result, report = Engine.run_adaptive db q in
  Alcotest.(check bool) "fallback executes" true
    (Relation.cardinality result > 0);
  Alcotest.(check bool) "no replanning" false report.Engine.replanned

(* --- answering queries from materialised-grouping AVs -------------------- *)

let test_run_with_views_uses_materialised_grouping () =
  let db, pair = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:93 in
  let catalog = Engine.catalog db in
  let q =
    Dqo_sql.Binder.plan_of_sql catalog
      "SELECT a, COUNT(*) AS cnt, SUM(a) AS s FROM R GROUP BY a"
  in
  (* Without the view: computed from base data. *)
  let r1, used1 = Engine.run_with_views db q in
  Alcotest.(check bool) "no view yet" false used1;
  Engine.install_av db
    (Dqo_av.View.grouping_result catalog ~relation:"R" ~key:"a");
  let r2, used2 = Engine.run_with_views db q in
  Alcotest.(check bool) "view used" true used2;
  Alcotest.(check bool) "identical results" true
    (List.sort compare (Relation.rows r1) = List.sort compare (Relation.rows r2));
  (* Sanity: counts match a direct computation. *)
  let a = int_column pair.Datagen.r "a" in
  Alcotest.(check int) "group count" (Dqo_util.Int_array.count_distinct a)
    (Relation.cardinality r2)

let test_run_with_views_rejects_unservable_aggregates () =
  let db, _ = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:94 in
  Engine.install_av db
    (Dqo_av.View.grouping_result (Engine.catalog db) ~relation:"R" ~key:"a");
  (* MIN is not stored in the view; must fall back to base data. *)
  let q =
    Dqo_sql.Binder.plan_of_sql (Engine.catalog db)
      "SELECT a, MIN(id) AS m FROM R GROUP BY a"
  in
  let _, used = Engine.run_with_views db q in
  Alcotest.(check bool) "fallback" false used

(* --- prepared statements -------------------------------------------- *)

let test_prepared_statements () =
  let db, _ = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:97 in
  let sql = "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a" in
  let p = Engine.prepare db sql in
  let direct = Engine.run_sql db sql in
  let via_prepared = Engine.execute_prepared db p in
  Alcotest.(check bool) "same result" true
    (List.sort compare (Relation.rows direct)
    = List.sort compare (Relation.rows via_prepared));
  (* Repeated execution of the same prepared plan is deterministic. *)
  let again = Engine.execute_prepared db p in
  Alcotest.(check bool) "re-executable" true
    (List.sort compare (Relation.rows again)
    = List.sort compare (Relation.rows via_prepared));
  (* The stored plan carries the optimiser's estimate. *)
  let entry = Engine.prepared_entry p in
  Alcotest.(check bool) "positive cost" true (entry.Pareto.cost > 0.0);
  (* Modes stick: an SQO-prepared plan uses no SPH. *)
  let shallow = Engine.prepare db ~mode:Engine.SQO sql in
  Alcotest.(check bool) "sqo prepared has no SPH" false
    (Physical.uses_sph (Engine.prepared_entry shallow).Pareto.plan);
  Alcotest.(check bool) "dqo prepared uses SPH" true
    (Physical.uses_sph entry.Pareto.plan)

(* --- randomised end-to-end fuzz -------------------------------------- *)

(* Random single-table grouping queries with predicates: SQO, DQO and
   adaptive execution must all equal a naive evaluation. *)
let prop_engine_fuzz_single_table =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 400 in
      let* gmax = int_range 1 20 in
      let* vmax = int_range 1 50 in
      let* cut = int_bound vmax in
      let* seed = int_bound 10_000 in
      return (n, gmax, vmax, cut, seed))
  in
  QCheck.Test.make ~name:"engine fuzz: single-table grouping" ~count:60
    (QCheck.make gen) (fun (n, gmax, vmax, cut, seed) ->
      let rng = Dqo_util.Rng.create ~seed in
      let g = Array.init n (fun _ -> Dqo_util.Rng.int rng gmax) in
      let v = Array.init n (fun _ -> Dqo_util.Rng.int rng vmax) in
      let schema = Schema.of_names [ ("g", Schema.T_int); ("v", Schema.T_int) ] in
      let rel =
        Relation.create schema [ Dqo_data.Column.of_ints g; Dqo_data.Column.of_ints v ]
      in
      let db = Engine.create () in
      Engine.register db ~name:"T" rel;
      let sql =
        Printf.sprintf
          "SELECT g, COUNT(*) AS cnt, SUM(v) AS s FROM T WHERE v <= %d GROUP \
           BY g"
          cut
      in
      (* Naive evaluation. *)
      let expected = Hashtbl.create 32 in
      Array.iteri
        (fun i key ->
          if v.(i) <= cut then begin
            let c, s = Option.value ~default:(0, 0) (Hashtbl.find_opt expected key) in
            Hashtbl.replace expected key (c + 1, s + v.(i))
          end)
        g;
      let expected =
        List.sort compare
          (Hashtbl.fold (fun k cs acc -> (k, cs) :: acc) expected [])
      in
      let normalise rel =
        let keys = int_column rel "g" in
        let cnt = int_column rel "cnt" in
        let s = int_column rel "s" in
        List.sort compare
          (Array.to_list (Array.mapi (fun i k -> (k, (cnt.(i), s.(i)))) keys))
      in
      let q = Dqo_sql.Binder.plan_of_sql (Engine.catalog db) sql in
      let sqo = normalise (Engine.run db ~mode:Engine.SQO q) in
      let dqo = normalise (Engine.run db ~mode:Engine.DQO q) in
      let adaptive = normalise (fst (Engine.run_adaptive db q)) in
      sqo = expected && dqo = expected && adaptive = expected)

(* Random FK-join grouping queries across all data shapes. *)
let prop_engine_fuzz_join =
  let gen =
    QCheck.Gen.(
      let* r_rows = int_range 2 200 in
      let* s_rows = int_range 1 400 in
      let* groups = int_range 1 (max 1 (r_rows / 2)) in
      let* r_sorted = bool in
      let* s_sorted = bool in
      let* dense = bool in
      let* seed = int_bound 10_000 in
      return (r_rows, s_rows, groups, r_sorted, s_sorted, dense, seed))
  in
  QCheck.Test.make ~name:"engine fuzz: fk-join grouping" ~count:40
    (QCheck.make gen)
    (fun (r_rows, s_rows, groups, r_sorted, s_sorted, dense, seed) ->
      let rng = Dqo_util.Rng.create ~seed in
      let pair =
        Datagen.fk_pair ~rng ~r_rows ~s_rows ~r_groups:groups ~r_sorted
          ~s_sorted ~dense
      in
      let db = Engine.create () in
      Engine.register db ~name:"R" pair.Datagen.r;
      Engine.register db ~name:"S" pair.Datagen.s;
      let expected =
        List.sort compare
          (Hashtbl.fold
             (fun k c acc -> (k, c) :: acc)
             (reference_group_counts pair) [])
      in
      let sql =
        "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a"
      in
      result_to_alist (Engine.run_sql db ~mode:Engine.SQO sql) = expected
      && result_to_alist (Engine.run_sql db ~mode:Engine.DQO sql) = expected)

let test_explain_sql () =
  let db, _ = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:55 in
  let report =
    Engine.explain_sql db
      "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a"
  in
  Alcotest.(check bool) "mentions SQO" true
    (Astring.String.is_infix ~affix:"SQO" report);
  Alcotest.(check bool) "mentions DQO" true
    (Astring.String.is_infix ~affix:"DQO" report)

let test_binder_errors () =
  let db, _ = fk_db ~r_sorted:true ~s_sorted:true ~dense:true ~seed:66 in
  let expect_error sql =
    match Engine.run_sql db sql with
    | exception Dqo_sql.Binder.Error _ -> ()
    | exception Dqo_sql.Parser.Error _ -> ()
    | _ -> Alcotest.fail ("expected an error for: " ^ sql)
  in
  expect_error "SELECT x FROM R";
  expect_error "SELECT a FROM Unknown";
  expect_error "SELECT COUNT(*) FROM R";
  expect_error "SELECT b, COUNT(*) FROM R JOIN S ON id = r_id GROUP BY a";
  expect_error "SELECT a FROM R WHERE";
  expect_error "SELECT a, FROM R"

(* --- empty SPH inputs ------------------------------------------------- *)

(* Three 2k-row tables Ti(ki dense key, fi fk).  The filters contradict
   each other through [f1 = k2], so the join input the deep planner
   sends to a perfect-hash operator is empty at execution: an empty
   input must give an empty result, not an exception. *)
let test_empty_sph_input () =
  let rng = Dqo_util.Rng.create ~seed:81 in
  let rows = 2_000 in
  let db = Engine.create () in
  for i = 0 to 2 do
    let keys = Array.init rows Fun.id in
    Dqo_util.Rng.shuffle rng keys;
    Engine.register db
      ~name:(Printf.sprintf "T%d" i)
      (Relation.create
         (Schema.of_names
            [ (Printf.sprintf "k%d" i, Schema.T_int);
              (Printf.sprintf "f%d" i, Schema.T_int) ])
         [ Dqo_data.Column.of_ints keys;
           Dqo_data.Column.of_ints
             (Array.init rows (fun _ -> Dqo_util.Rng.int rng rows)) ])
  done;
  let sql =
    "SELECT k1, COUNT(*) AS c FROM T0 JOIN T1 ON f0 = k1 JOIN T2 ON f1 = k2 \
     WHERE f1 <= 824 AND k2 >= 1080 GROUP BY k1"
  in
  List.iter
    (fun threads ->
      let rel = Engine.run_sql db ~mode:Engine.DQO ~threads sql in
      Alcotest.(check int)
        (Printf.sprintf "empty result at %d threads" threads)
        0 (Relation.cardinality rel))
    [ 1; 2 ]

(* --- full-range keys --------------------------------------------------- *)

(* Keys spanning nearly the whole int range: [hi - lo + 1] wraps to a
   small positive number, which once made the catalog call the column
   dense, the planner pick SPHG, and execution raise. *)
let test_full_range_group_keys () =
  let keys = [| min_int + 1; max_int; 0; 1; 2; 3; 4; 5; 6; 3; 3 |] in
  let db = Engine.create () in
  Engine.register db ~name:"T"
    (Relation.create
       (Schema.of_names [ ("k", Schema.T_int) ])
       [ Dqo_data.Column.of_ints keys ]);
  let expected =
    List.sort compare
      ([ [ min_int + 1; 1 ]; [ max_int; 1 ]; [ 3; 3 ] ]
      @ List.map (fun k -> [ k; 1 ]) [ 0; 1; 2; 4; 5; 6 ])
  in
  List.iter
    (fun threads ->
      let rel =
        Engine.run_sql db ~mode:Engine.DQO ~threads
          "SELECT k, COUNT(*) AS c FROM T GROUP BY k"
      in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "groups at %d threads" threads)
        expected
        (List.sort compare
           (List.map (List.map Value.int_exn) (Relation.rows rel))))
    [ 1; 2 ]

(* --- late materialisation ---------------------------------------------- *)

(* A join under a grouping gathers only the columns the grouping reads.
   Reference: the same joins fully materialised (nested-loop pairs,
   every column gathered), then grouped row by row. *)
let reference_grouped rels ~joins ~where ~key ~agg =
  let full =
    List.fold_left
      (fun acc (rel, lc, rc) ->
        let pairs =
          Dqo_exec.Join.nested_loop_reference ~left:(Relation.int_col acc lc)
            ~right:(Relation.int_col rel rc)
        in
        Dqo_exec.Join.materialize acc rel pairs)
      (List.hd rels) joins
  in
  let get name i = Dqo_data.Int_col.get (Relation.int_col full name) i in
  let groups = Hashtbl.create 64 in
  for i = 0 to Relation.cardinality full - 1 do
    if List.for_all (fun (c, bound) -> get c i <= bound) where then begin
      let k = get key i in
      let v = match agg with None -> 1 | Some c -> get c i in
      Hashtbl.replace groups k
        (v + Option.value ~default:0 (Hashtbl.find_opt groups k))
    end
  done;
  List.sort compare (Hashtbl.fold (fun k v acc -> [ k; v ] :: acc) groups [])

let late_mat_db backend =
  let rng = Dqo_util.Rng.create ~seed:29 in
  let col n f =
    Dqo_data.Column.of_int_col
      (Dqo_data.Int_col.init ~backend ~chunk_rows:64 n (fun _ -> f ()))
  in
  let perm n =
    let a = Array.init n Fun.id in
    Dqo_util.Rng.shuffle rng a;
    Dqo_data.Column.of_int_col
      (Dqo_data.Int_col.init ~backend ~chunk_rows:64 n (fun i -> a.(i)))
  in
  let table names cols =
    Relation.create
      (Schema.of_names (List.map (fun n -> (n, Schema.T_int)) names))
      cols
  in
  let r_rows = 300 and s_rows = 1_100 and t_rows = 30 in
  let r =
    table [ "id"; "a"; "x" ]
      [ perm r_rows;
        col r_rows (fun () -> Dqo_util.Rng.int rng 50);
        col r_rows (fun () -> Dqo_util.Rng.int rng 100) ]
  in
  let s =
    table [ "r_id"; "b"; "y" ]
      [ col s_rows (fun () -> Dqo_util.Rng.int rng r_rows);
        col s_rows (fun () -> Dqo_util.Rng.int rng t_rows);
        col s_rows (fun () -> Dqo_util.Rng.int rng 1_000) ]
  in
  let t =
    table [ "t_id"; "c" ] [ perm t_rows; col t_rows (fun () -> Dqo_util.Rng.int rng 5) ]
  in
  let db = Engine.create () in
  List.iter (fun (n, rel) -> Engine.register db ~name:n rel) [ ("R", r); ("S", s); ("T", t) ];
  (db, r, s, t)

let test_late_materialisation_bags () =
  List.iter
    (fun (bname, backend) ->
      let db, r, s, t = late_mat_db backend in
      let rs = [ (s, "id", "r_id") ] and rst = [ (s, "id", "r_id"); (t, "b", "t_id") ] in
      let queries =
        [ ( "SELECT a, COUNT(*) AS n FROM R JOIN S ON id = r_id GROUP BY a",
            reference_grouped [ r ] ~joins:rs ~where:[] ~key:"a" ~agg:None );
          ( "SELECT a, SUM(y) AS n FROM R JOIN S ON id = r_id GROUP BY a",
            reference_grouped [ r ] ~joins:rs ~where:[] ~key:"a" ~agg:(Some "y") );
          ( "SELECT a, COUNT(*) AS n FROM R JOIN S ON id = r_id WHERE x <= 40 \
             GROUP BY a",
            reference_grouped [ r ] ~joins:rs ~where:[ ("x", 40) ] ~key:"a"
              ~agg:None );
          ( "SELECT c, SUM(x) AS n FROM R JOIN S ON id = r_id JOIN T ON b = t_id \
             GROUP BY c",
            reference_grouped [ r ] ~joins:rst ~where:[] ~key:"c" ~agg:(Some "x") ) ]
      in
      List.iter
        (fun (sql, expected) ->
          List.iter
            (fun mode ->
              let plan = (Engine.plan_sql db mode sql).Pareto.plan in
              for domains = 1 to 4 do
                let rel =
                  Dqo_par.Pool.with_pool ~domains (fun pool ->
                      Engine.execute_on db ~pool plan)
                in
                Alcotest.(check (list (list int)))
                  (Printf.sprintf "%s, %s, %d domains: %s" bname
                     (match mode with Engine.SQO -> "sqo" | Engine.DQO -> "dqo")
                     domains sql)
                  expected
                  (List.sort compare
                     (List.map (List.map Value.int_exn) (Relation.rows rel)))
              done)
            [ Engine.SQO; Engine.DQO ])
        queries)
    [ ("flat", Dqo_data.Int_col.Flat);
      ("chunked64", Dqo_data.Int_col.Chunked Dqo_data.Int_col.W64);
      ("chunked32", Dqo_data.Int_col.Chunked Dqo_data.Int_col.W32) ]

(* The root keeps its full schema, and a grouping over a right-side
   column renamed by a name clash still finds it — also when the clash
   comes from below another join, whose pruning would otherwise decide
   whether the rename happens at all. *)
let test_late_materialisation_schemas () =
  let db, r, s, t = late_mat_db Dqo_data.Int_col.Flat in
  let hj = Physical.default_join Dqo_exec.Join.HJ in
  let scan n = Physical.Table_scan n in
  Alcotest.(check (list string)) "root join keeps every column"
    [ "id"; "a"; "x"; "r_id"; "b"; "y" ]
    (List.map (fun (f : Schema.field) -> f.Schema.name)
       (Schema.fields
          (Relation.schema
             (Engine.execute db (Physical.Join_op (scan "R", scan "S", "id", "r_id", hj))))));
  let s_clash =
    Relation.create
      (Schema.of_names [ ("r_id", Schema.T_int); ("a", Schema.T_int) ])
      [ Relation.column s "r_id"; Relation.column s "b" ]
  in
  let clash = Engine.create () in
  List.iter (fun (n, rel) -> Engine.register clash ~name:n rel)
    [ ("R", r); ("S", s_clash); ("T", t) ];
  let plan =
    Physical.Group_op
      ( Physical.Join_op
          ( Physical.Join_op (scan "R", scan "T", "x", "t_id", hj),
            scan "S", "id", "r_id", hj ),
        "a'",
        [ Dqo_plan.Logical.count_star ~alias:"n" () ],
        Physical.default_grouping Dqo_exec.Grouping.HG )
  in
  Alcotest.(check (list (list int))) "grouped by the renamed right column"
    (reference_grouped [ r ]
       ~joins:[ (t, "x", "t_id"); (s_clash, "id", "r_id") ]
       ~where:[] ~key:"a'" ~agg:None)
    (List.sort compare
       (List.map (List.map Value.int_exn) (Relation.rows (Engine.execute clash plan))))

(* --- hierarchical routing ------------------------------------------- *)

let hier_sql = "SELECT a, COUNT(*) AS cnt FROM R JOIN S ON id = r_id GROUP BY a"

let test_hier_routing_off_by_default () =
  let db, _ = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:71 in
  let a = Engine.explain_analyze db (Dqo_sql.Binder.plan_of_sql (Engine.catalog db) hier_sql) in
  Alcotest.(check bool) "2-relation query plans exhaustively" true
    (a.Engine.hier = None)

let test_hier_routing_forced () =
  let db, pair = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:72 in
  let q = Dqo_sql.Binder.plan_of_sql (Engine.catalog db) hier_sql in
  let exhaustive = Engine.explain_analyze db q in
  Engine.set_opts db { (Engine.opts db) with Engine.hier = true };
  let a = Engine.explain_analyze db q in
  (match a.Engine.hier with
  | None -> Alcotest.fail "opts.hier = true must produce a partition report"
  | Some r ->
      Alcotest.(check int) "two leaves" 2 r.Dqo_opt.Hier.leaves;
      Alcotest.(check int) "one partition" 1
        (List.length r.Dqo_opt.Hier.partitions));
  (* A 2-relation query fits one partition: same plan, same cost, same
     answer as the exhaustive search. *)
  Alcotest.(check string) "plan identical to exhaustive"
    (Format.asprintf "%a" Physical.pp exhaustive.Engine.entry.Pareto.plan)
    (Format.asprintf "%a" Physical.pp a.Engine.entry.Pareto.plan);
  Alcotest.(check (float 1e-6)) "cost identical"
    exhaustive.Engine.entry.Pareto.cost a.Engine.entry.Pareto.cost;
  let expected =
    List.sort compare
      (Hashtbl.fold
         (fun k v acc -> (k, v) :: acc)
         (reference_group_counts pair) [])
  in
  Alcotest.(check (list (pair int int))) "hier result correct" expected
    (result_to_alist a.Engine.result)

let test_hier_routing_by_threshold () =
  let db, _ = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:73 in
  Engine.set_opts db { (Engine.opts db) with Engine.hier_threshold = 1 };
  let a = Engine.explain_analyze db (Dqo_sql.Binder.plan_of_sql (Engine.catalog db) hier_sql) in
  Alcotest.(check bool) "2 relations > threshold 1 routes hierarchically" true
    (a.Engine.hier <> None)

let test_hier_explain_analyze_sql_renders_partitions () =
  let db, _ = fk_db ~r_sorted:false ~s_sorted:false ~dense:true ~seed:74 in
  Engine.set_opts db { (Engine.opts db) with Engine.hier = true };
  let report = Engine.explain_analyze_sql db hier_sql in
  Alcotest.(check bool) "mentions hierarchical planning" true
    (Astring.String.is_infix ~affix:"hierarchical planning" report);
  Alcotest.(check bool) "renders the partition line" true
    (Astring.String.is_infix ~affix:"P0: 2 leaves" report);
  Alcotest.(check bool) "renders the stitch line" true
    (Astring.String.is_infix ~affix:"stitch:" report)

let () =
  Alcotest.run "dqo_engine"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "group query, all data shapes" `Quick
            test_group_query_all_combinations;
          Alcotest.test_case "dqo picks SPH" `Quick
            test_dqo_plan_uses_sph_and_matches;
          Alcotest.test_case "where pushdown" `Quick test_where_pushdown;
          Alcotest.test_case "plain projection" `Quick test_plain_projection;
          Alcotest.test_case "generic aggregates" `Quick
            test_generic_aggregates;
          Alcotest.test_case "sum fast path" `Quick
            test_sum_aggregate_fast_path;
        ] );
      ( "algorithmic-views",
        [
          Alcotest.test_case "perfect hash AV on sparse data" `Quick
            test_perfect_hash_av_on_sparse_data;
          Alcotest.test_case "same-named AV columns" `Quick
            test_perfect_hash_avs_on_same_named_columns;
          Alcotest.test_case "sorted projection AV" `Quick
            test_sorted_projection_av;
          Alcotest.test_case "grouping result AV" `Quick
            test_grouping_result_av;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "discovers density at runtime" `Quick
            test_adaptive_discovers_density;
          Alcotest.test_case "no change when right" `Quick
            test_adaptive_no_change_when_static_is_right;
          Alcotest.test_case "non-grouping fallback" `Quick
            test_adaptive_on_non_grouping_query;
        ] );
      ( "view-answering",
        [
          Alcotest.test_case "uses materialised grouping" `Quick
            test_run_with_views_uses_materialised_grouping;
          Alcotest.test_case "rejects unservable aggregates" `Quick
            test_run_with_views_rejects_unservable_aggregates;
        ] );
      ( "prepared",
        [ Alcotest.test_case "prepared statements" `Quick test_prepared_statements ]
      );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_engine_fuzz_single_table;
          QCheck_alcotest.to_alcotest prop_engine_fuzz_join;
        ] );
      ( "full-range",
        [ Alcotest.test_case "group keys near min_int/max_int" `Quick
            test_full_range_group_keys ] );
      ( "late-gather",
        [ Alcotest.test_case "same bags, backends x pools x modes" `Quick
            test_late_materialisation_bags;
          Alcotest.test_case "root schema and renamed columns" `Quick
            test_late_materialisation_schemas ] );
      ( "empty-sph",
        [ Alcotest.test_case "empty input, empty result" `Quick
            test_empty_sph_input ] );
      ( "sql",
        [
          Alcotest.test_case "explain" `Quick test_explain_sql;
          Alcotest.test_case "binder errors" `Quick test_binder_errors;
        ] );
      ( "hier-routing",
        [
          Alcotest.test_case "off by default" `Quick
            test_hier_routing_off_by_default;
          Alcotest.test_case "forced via opts.hier" `Quick
            test_hier_routing_forced;
          Alcotest.test_case "threshold routes" `Quick
            test_hier_routing_by_threshold;
          Alcotest.test_case "explain analyze renders partitions" `Quick
            test_hier_explain_analyze_sql_renders_partitions;
        ] );
    ]
