(* Tests for the data layer: values, schemas, columns, relations, column
   statistics, dataset generators, and dictionary compression. *)

module Value = Dqo_data.Value
module Schema = Dqo_data.Schema
module Column = Dqo_data.Column
module Relation = Dqo_data.Relation
module Col_stats = Dqo_data.Col_stats
module Datagen = Dqo_data.Datagen
module Dictionary = Dqo_data.Dictionary
module Int_col = Dqo_data.Int_col
module Int_array = Dqo_util.Int_array

(* Most stats tests are written against literal arrays; analyze is
   storage-agnostic, so wrap them in the flat backend here. *)
let analyze a = Col_stats.analyze (Int_col.of_array a)

let qtest = QCheck_alcotest.to_alcotest

(* --- value ------------------------------------------------------------ *)

let test_value_order () =
  Alcotest.(check bool) "null first" true
    (Value.compare Value.Null (Value.Int (-100)) < 0);
  Alcotest.(check bool) "int vs float numeric" true
    (Value.compare (Value.Int 2) (Value.Float 2.5) < 0);
  Alcotest.(check bool) "int float equal" true
    (Value.equal (Value.Int 2) (Value.Float 2.0));
  Alcotest.(check bool) "string last" true
    (Value.compare (Value.Int 1000) (Value.String "a") < 0);
  Alcotest.(check string) "pp int" "42" (Value.to_string (Value.Int 42));
  Alcotest.(check bool) "to_int" true (Value.to_int (Value.Int 7) = Some 7);
  Alcotest.(check bool) "to_int none" true (Value.to_int Value.Null = None)

(* --- schema ------------------------------------------------------------ *)

let test_schema_basics () =
  let s = Schema.of_names [ ("a", Schema.T_int); ("b", Schema.T_string) ] in
  Alcotest.(check int) "arity" 2 (Schema.arity s);
  Alcotest.(check bool) "index_of" true (Schema.index_of s "b" = Some 1);
  Alcotest.(check bool) "mem" true (Schema.mem s "a" && not (Schema.mem s "c"));
  Alcotest.(check bool) "ty_of" true (Schema.ty_of s "b" = Some Schema.T_string);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Schema.create: duplicate field a") (fun () ->
      ignore (Schema.of_names [ ("a", Schema.T_int); ("a", Schema.T_int) ]))

let test_schema_concat_renames () =
  let a = Schema.of_names [ ("x", Schema.T_int); ("y", Schema.T_int) ] in
  let b = Schema.of_names [ ("y", Schema.T_int); ("z", Schema.T_int) ] in
  let c = Schema.concat a b in
  Alcotest.(check (list string)) "renamed" [ "x"; "y"; "y'"; "z" ]
    (List.map (fun (f : Schema.field) -> f.Schema.name) (Schema.fields c))

let test_schema_project () =
  let s = Schema.of_names [ ("a", Schema.T_int); ("b", Schema.T_int) ] in
  let p = Schema.project s [ "b" ] in
  Alcotest.(check int) "projected arity" 1 (Schema.arity p);
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Schema.project s [ "zz" ]))

(* --- column / relation -------------------------------------------------- *)

let test_column_ops () =
  let c = Column.of_ints [| 10; 20; 30 |] in
  Alcotest.(check int) "length" 3 (Column.length c);
  Alcotest.(check bool) "get" true (Column.get c 1 = Value.Int 20);
  Alcotest.(check bool) "take" true
    (Column.equal (Column.take c [| 2; 0 |]) (Column.of_ints [| 30; 10 |]));
  Alcotest.(check bool) "sub" true
    (Column.equal (Column.sub c ~pos:1 ~len:2) (Column.of_ints [| 20; 30 |]));
  Alcotest.check_raises "int_col on floats"
    (Invalid_argument "Column.int_col: not an int column") (fun () ->
      ignore (Column.int_col (Column.Floats [| 1.0 |])));
  (* Cross-backend equality: same contents, different physical store. *)
  let chunked =
    Int_col.init ~backend:(Int_col.Chunked Int_col.W64) 3 (fun i ->
        10 * (i + 1))
  in
  Alcotest.(check bool) "equal across backends" true
    (Column.equal c (Column.of_int_col chunked))

let test_relation_ops () =
  let schema = Schema.of_names [ ("k", Schema.T_int); ("v", Schema.T_int) ] in
  let r = Relation.of_int_rows schema [ [ 1; 10 ]; [ 2; 20 ]; [ 3; 30 ] ] in
  Alcotest.(check int) "cardinality" 3 (Relation.cardinality r);
  Alcotest.(check bool) "row" true (Relation.row r 1 = [ Value.Int 2; Value.Int 20 ]);
  let p = Relation.project r [ "v" ] in
  Alcotest.(check bool) "project" true
    (Int_col.to_array (Relation.int_col p "v") = [| 10; 20; 30 |]);
  let t = Relation.take r [| 2; 0 |] in
  Alcotest.(check bool) "take" true
    (Int_col.to_array (Relation.int_col t "k") = [| 3; 1 |]);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Relation.create: column length mismatch") (fun () ->
      ignore
        (Relation.create schema
           [ Column.of_ints [| 1 |]; Column.of_ints [| 1; 2 |] ]))

(* --- col_stats ---------------------------------------------------------- *)

let test_col_stats_detection () =
  let s = analyze [| 1; 2; 2; 3 |] in
  Alcotest.(check bool) "sorted" true s.Col_stats.sorted;
  Alcotest.(check bool) "clustered" true s.Col_stats.clustered;
  Alcotest.(check bool) "dense" true s.Col_stats.dense;
  Alcotest.(check int) "distinct" 3 s.Col_stats.distinct;
  let s = analyze [| 5; 5; 1; 1; 3 |] in
  Alcotest.(check bool) "unsorted" false s.Col_stats.sorted;
  Alcotest.(check bool) "clustered though unsorted" true s.Col_stats.clustered;
  let s = analyze [| 1; 2; 1 |] in
  Alcotest.(check bool) "not clustered" false s.Col_stats.clustered;
  let s = analyze [| 0; 1_000_000 |] in
  Alcotest.(check bool) "sparse" false s.Col_stats.dense;
  let s = analyze [||] in
  Alcotest.(check bool) "empty sorted" true s.Col_stats.sorted;
  Alcotest.(check int) "empty distinct" 0 s.Col_stats.distinct

let test_density_ratio () =
  let s = analyze [| 0; 1; 2; 3 |] in
  Alcotest.(check (float 1e-9)) "minimal dense" 1.0 (Col_stats.density_ratio s)

(* Domain sizes near the ends of the int range must not wrap into a
   small positive count. *)
let test_int_col_range () =
  let check name expected lo hi =
    Alcotest.(check (option int)) name expected (Int_col.range lo hi)
  in
  check "small" (Some 10) 0 9;
  check "single" (Some 1) 5 5;
  check "empty" (Some 0) 5 4;
  check "inverted extremes" (Some 0) max_int min_int;
  check "largest fitting" (Some max_int) 1 max_int;
  check "largest fitting, negative side" (Some max_int) (min_int + 1) (-1);
  check "one past max_int" None 0 max_int;
  check "full range" None min_int max_int;
  check "near-full range" None (min_int + 1) max_int

let test_col_stats_full_range () =
  let keys = [| min_int + 1; max_int; 0; 1; 2; 3; 4; 5; 6 |] in
  let s = analyze keys in
  Alcotest.(check bool) "not dense" false s.Col_stats.dense;
  Alcotest.(check int) "distinct" 9 s.Col_stats.distinct;
  Alcotest.(check bool) "vanishing density ratio" true
    (Col_stats.density_ratio s < 1e-12);
  Alcotest.(check bool) "no dense perfect hash" true
    (Option.is_none (Dqo_hash.Perfect.Dense.of_keys keys))

(* --- datagen ------------------------------------------------------------ *)

let test_grouping_dataset_invariants () =
  List.iter
    (fun (sorted, dense) ->
      let rng = Dqo_util.Rng.create ~seed:42 in
      let d = Datagen.grouping ~rng ~n:5_000 ~groups:100 ~sorted ~dense () in
      Alcotest.(check int) "rows" 5_000 (Int_col.length d.Datagen.keys);
      Alcotest.(check int) "universe size" 100 (Array.length d.Datagen.universe);
      Alcotest.(check int) "distinct = groups" 100
        (Int_array.count_distinct (Int_col.to_array d.Datagen.keys));
      Alcotest.(check bool) "sortedness as requested" sorted
        (Int_col.is_sorted d.Datagen.keys);
      let stats = Col_stats.analyze d.Datagen.keys in
      Alcotest.(check bool) "density as requested" dense stats.Col_stats.dense;
      (* Every key drawn from the universe. *)
      Int_col.iteri d.Datagen.keys ~f:(fun _ k ->
          Alcotest.(check bool) "key in universe" true
            (Int_array.binary_search d.Datagen.universe k <> None)))
    [ (true, true); (true, false); (false, true); (false, false) ]

let test_grouping_dataset_deterministic () =
  let d1 =
    Datagen.grouping ~rng:(Dqo_util.Rng.create ~seed:5) ~n:1_000 ~groups:10
      ~sorted:false ~dense:true ()
  in
  let d2 =
    Datagen.grouping ~rng:(Dqo_util.Rng.create ~seed:5) ~n:1_000 ~groups:10
      ~sorted:false ~dense:true ()
  in
  let d3 =
    Datagen.grouping
      ~backend:(Int_col.Chunked Int_col.W64)
      ~rng:(Dqo_util.Rng.create ~seed:5) ~n:1_000 ~groups:10 ~sorted:false
      ~dense:true ()
  in
  Alcotest.(check bool) "same data" true
    (Int_col.equal d1.Datagen.keys d2.Datagen.keys);
  Alcotest.(check bool) "same data across backends" true
    (Int_col.equal d1.Datagen.keys d3.Datagen.keys)

let test_zipf_skew () =
  let rng = Dqo_util.Rng.create ~seed:9 in
  let skewed =
    Int_col.to_array (Datagen.zipf_keys ~rng ~n:20_000 ~groups:100 ~theta:1.2 ())
  in
  let count0 = Array.fold_left (fun a k -> if k = 0 then a + 1 else a) 0 skewed in
  (* Under theta=1.2 the head key takes far more than 1/100 of the mass. *)
  Alcotest.(check bool) "head heavy" true (count0 > 2_000);
  let uniform =
    Int_col.to_array (Datagen.zipf_keys ~rng ~n:20_000 ~groups:100 ~theta:0.0 ())
  in
  let count0u =
    Array.fold_left (fun a k -> if k = 0 then a + 1 else a) 0 uniform
  in
  Alcotest.(check bool) "uniform head ~200" true (count0u < 400)

let test_fk_pair_invariants () =
  List.iter
    (fun (r_sorted, s_sorted, dense) ->
      let rng = Dqo_util.Rng.create ~seed:77 in
      let p =
        Datagen.fk_pair ~rng ~r_rows:1_000 ~s_rows:3_000 ~r_groups:50 ~r_sorted
          ~s_sorted ~dense
      in
      let ids = Int_col.to_array (Relation.int_col p.Datagen.r "id") in
      let a = Int_col.to_array (Relation.int_col p.Datagen.r "a") in
      let r_id = Int_col.to_array (Relation.int_col p.Datagen.s "r_id") in
      Alcotest.(check int) "|R|" 1_000 (Array.length ids);
      Alcotest.(check int) "|S|" 3_000 (Array.length r_id);
      Alcotest.(check int) "R.id unique" 1_000 (Int_array.count_distinct ids);
      Alcotest.(check int) "R.a groups" 50 (Int_array.count_distinct a);
      Alcotest.(check bool) "R sortedness" r_sorted (Int_array.is_sorted ids);
      Alcotest.(check bool) "S sortedness" s_sorted (Int_array.is_sorted r_id);
      (* Referential integrity: every S.r_id exists in R.id. *)
      let id_set = Hashtbl.create 1024 in
      Array.iter (fun id -> Hashtbl.replace id_set id ()) ids;
      Array.iter
        (fun k ->
          Alcotest.(check bool) "FK valid" true (Hashtbl.mem id_set k))
        r_id;
      (* Density of both R.id and R.a follows the dense flag. *)
      let id_stats = analyze ids in
      let a_stats = analyze a in
      Alcotest.(check bool) "id density" dense id_stats.Col_stats.dense;
      Alcotest.(check bool) "a density" dense a_stats.Col_stats.dense;
      (* a is monotone in id: sorting by id clusters a. *)
      let perm = Dqo_exec.Sort_op.permutation (Int_col.of_array ids) in
      let a_by_id = Array.map (fun i -> a.(i)) perm in
      Alcotest.(check bool) "a monotone in id" true (Int_array.is_sorted a_by_id))
    [ (true, true, true); (false, false, true); (false, true, false) ]

(* --- layouts -------------------------------------------------------------- *)

module Layout = Dqo_data.Layout

let layout_kinds = [ `Row; `Col; `Pax ]

let prop_layout_roundtrip =
  QCheck.Test.make ~name:"layout materialise/read roundtrip" ~count:150
    QCheck.(
      pair
        (array_of_size (QCheck.Gen.int_bound 200) (int_bound 1_000))
        (QCheck.int_range 1 64))
    (fun (keys, page_rows) ->
      let values = Array.map (fun k -> k * 3) keys in
      List.for_all
        (fun kind ->
          let l = Layout.of_columns ~page_rows ~keys ~values kind in
          Layout.rows l = Array.length keys
          && Layout.to_columns l = (keys, values))
        layout_kinds)

let prop_layout_scans_agree =
  QCheck.Test.make ~name:"layout scans agree across layouts" ~count:150
    QCheck.(array_of_size (QCheck.Gen.int_bound 300) (int_bound 100))
    (fun keys ->
      let values = Array.map (fun k -> k + 7) keys in
      let sums =
        List.map
          (fun kind ->
            let l = Layout.of_columns ~keys ~values kind in
            ( Layout.fold_rows l ~init:0 ~f:(fun acc k v -> acc + k + v),
              Layout.fold_keys l ~init:0 ~f:( + ) ))
          layout_kinds
      in
      match sums with
      | x :: rest -> List.for_all (( = ) x) rest
      | [] -> false)

let test_layout_random_access () =
  let keys = [| 10; 20; 30; 40; 50 |] in
  let values = [| 1; 2; 3; 4; 5 |] in
  List.iter
    (fun kind ->
      let l = Layout.of_columns ~page_rows:2 ~keys ~values kind in
      Alcotest.(check (pair int int))
        (Layout.layout_name l ^ " get")
        (30, 3) (Layout.get l 2);
      Alcotest.(check (pair int int))
        (Layout.layout_name l ^ " get last")
        (50, 5) (Layout.get l 4))
    layout_kinds

(* --- dictionary ---------------------------------------------------------- *)

let test_dictionary_strings () =
  let dict, codes = Dictionary.encode_strings [| "b"; "a"; "c"; "a" |] in
  Alcotest.(check int) "cardinality" 3 (Dictionary.cardinality dict);
  Alcotest.(check bool) "codes" true (codes = [| 1; 0; 2; 0 |]);
  Alcotest.(check string) "decode" "c" (Dictionary.decode dict 2);
  Alcotest.(check bool) "code lookup" true (Dictionary.code dict "b" = Some 1);
  Alcotest.(check bool) "absent" true (Dictionary.code dict "zz" = None);
  Alcotest.check_raises "decode out of range"
    (Invalid_argument "Dictionary.decode: code out of range") (fun () ->
      ignore (Dictionary.decode dict 3))

let prop_dictionary_roundtrip =
  QCheck.Test.make ~name:"dictionary encode/decode roundtrip" ~count:200
    QCheck.(array_of_size (QCheck.Gen.int_bound 100) (int_bound 50))
    (fun xs ->
      let dict, codes = Dictionary.encode_ints xs in
      Array.for_all2 (fun x c -> Dictionary.decode dict c = x) xs codes)

let prop_dictionary_codes_dense =
  QCheck.Test.make ~name:"dictionary codes form a minimal dense domain"
    ~count:200
    QCheck.(array_of_size (QCheck.Gen.int_range 1 100) (int_bound 1_000_000))
    (fun xs ->
      let dict, codes = Dictionary.encode_ints xs in
      let stats = analyze codes in
      stats.Col_stats.lo = 0
      && stats.Col_stats.hi = Dictionary.cardinality dict - 1
      && stats.Col_stats.dense)

let prop_dictionary_order_preserving =
  QCheck.Test.make ~name:"dictionary codes preserve order" ~count:200
    QCheck.(array_of_size (QCheck.Gen.int_range 2 50) (int_bound 1_000))
    (fun xs ->
      let _, codes = Dictionary.encode_ints xs in
      let n = Array.length xs in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if compare xs.(i) xs.(j) <> compare codes.(i) codes.(j) then
            ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "dqo_data"
    [
      ("value", [ Alcotest.test_case "total order" `Quick test_value_order ]);
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "concat renames" `Quick test_schema_concat_renames;
          Alcotest.test_case "project" `Quick test_schema_project;
        ] );
      ( "storage",
        [
          Alcotest.test_case "column ops" `Quick test_column_ops;
          Alcotest.test_case "relation ops" `Quick test_relation_ops;
        ] );
      ( "stats",
        [
          Alcotest.test_case "detection" `Quick test_col_stats_detection;
          Alcotest.test_case "density ratio" `Quick test_density_ratio;
          Alcotest.test_case "int range" `Quick test_int_col_range;
          Alcotest.test_case "full-range keys" `Quick test_col_stats_full_range;
        ] );
      ( "datagen",
        [
          Alcotest.test_case "grouping invariants" `Quick
            test_grouping_dataset_invariants;
          Alcotest.test_case "deterministic" `Quick
            test_grouping_dataset_deterministic;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "fk pair invariants" `Quick test_fk_pair_invariants;
        ] );
      ( "layout",
        [
          qtest prop_layout_roundtrip;
          qtest prop_layout_scans_agree;
          Alcotest.test_case "random access" `Quick test_layout_random_access;
        ] );
      ( "dictionary",
        [
          Alcotest.test_case "strings" `Quick test_dictionary_strings;
          qtest prop_dictionary_roundtrip;
          qtest prop_dictionary_codes_dense;
          qtest prop_dictionary_order_preserving;
        ] );
    ]
