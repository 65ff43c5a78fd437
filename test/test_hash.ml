(* Tests for the hash substrate: hash functions, the three table layouts
   (each model-checked against Stdlib.Hashtbl), and static perfect
   hashing (dense SPH and FKS). *)

module Hash_fn = Dqo_hash.Hash_fn
module Perfect = Dqo_hash.Perfect

let qtest = QCheck_alcotest.to_alcotest

(* --- hash functions --------------------------------------------------- *)

let test_hash_fns_nonnegative_and_deterministic () =
  List.iter
    (fun fn ->
      List.iter
        (fun k ->
          let h = Hash_fn.apply fn k in
          Alcotest.(check bool) (Hash_fn.name fn ^ " non-negative") true (h >= 0);
          Alcotest.(check int) (Hash_fn.name fn ^ " deterministic") h
            (Hash_fn.apply fn k))
        [ 0; 1; 42; max_int; min_int; -7 ])
    Hash_fn.all

let test_murmur_spreads_sequential_keys () =
  (* Sequential keys must not collide in the low bits (the property HG's
     bucket selection depends on). *)
  let mask = 1024 - 1 in
  let buckets = Hashtbl.create 64 in
  for k = 0 to 512 do
    Hashtbl.replace buckets (Hash_fn.murmur3 k land mask) ()
  done;
  Alcotest.(check bool) "at least 400 of 513 distinct buckets" true
    (Hashtbl.length buckets > 400)

let test_identity_degenerate () =
  Alcotest.(check int) "identity" 42 (Hash_fn.apply Hash_fn.Identity 42)

let test_with_seed_varies () =
  let a = Hash_fn.with_seed Hash_fn.Murmur3 ~seed:1 123 in
  let b = Hash_fn.with_seed Hash_fn.Murmur3 ~seed:2 123 in
  Alcotest.(check bool) "seeds give different functions" true (a <> b)

(* --- tables: model-based property tests ------------------------------- *)

(* Apply a sequence of keys through find_or_add and compare the resulting
   mapping with a reference model: slots must be dense, insertion-ordered,
   and stable across repeat lookups. *)
let model_check (type t) (module T : Dqo_hash.Table_intf.TABLE with type t = t)
    keys =
  let tbl = T.create ~expected:4 () in
  let model = Hashtbl.create 16 in
  let next = ref 0 in
  Array.for_all
    (fun k ->
      let expected_slot =
        match Hashtbl.find_opt model k with
        | Some s -> s
        | None ->
          let s = !next in
          Hashtbl.add model k s;
          incr next;
          s
      in
      let slot = T.find_or_add tbl k in
      slot = expected_slot
      && T.find tbl k = slot
      && T.length tbl = !next)
    keys
  && begin
       (* iter must enumerate exactly the model. *)
       let seen = Hashtbl.create 16 in
       T.iter (fun k s -> Hashtbl.replace seen k s) tbl;
       Hashtbl.length seen = Hashtbl.length model
       && Hashtbl.fold
            (fun k s acc -> acc && Hashtbl.find_opt model k = Some s)
            seen true
     end

let keys_gen =
  (* Small key range provokes duplicates; include negatives. *)
  QCheck.Gen.(array_size (int_bound 300) (map (fun i -> i - 20) (int_bound 60)))

let prop_table name (module T : Dqo_hash.Table_intf.TABLE) =
  QCheck.Test.make ~name:(name ^ " matches model") ~count:150
    (QCheck.make keys_gen)
    (fun keys -> model_check (module T) keys)

let test_absent_lookups () =
  let check (type t) (module T : Dqo_hash.Table_intf.TABLE with type t = t) =
    let tbl = T.create ~expected:8 () in
    ignore (T.find_or_add tbl 5);
    Alcotest.(check bool) (T.name ^ " absent") true (T.find tbl 6 = -1);
    Alcotest.(check bool) (T.name ^ " mem") true (T.mem tbl 5 && not (T.mem tbl 6))
  in
  check (module Dqo_hash.Chain_table);
  check (module Dqo_hash.Linear_probe);
  check (module Dqo_hash.Robin_hood)

let test_extreme_keys () =
  (* [min_int] is linear probing's empty-bucket sentinel; it must still be
     a key like any other, in every layout. *)
  let check (type t) (module T : Dqo_hash.Table_intf.TABLE with type t = t) =
    let tbl = T.create ~expected:4 () in
    Alcotest.(check int) (T.name ^ " absent min_int") (-1) (T.find tbl min_int);
    let keys = [ 3; min_int; max_int; 0; min_int + 1; -1 ] in
    List.iteri
      (fun i k -> Alcotest.(check int) (T.name ^ " fresh slot") i (T.find_or_add tbl k))
      keys;
    List.iteri
      (fun i k ->
        Alcotest.(check int) (T.name ^ " stable slot") i (T.find_or_add tbl k);
        Alcotest.(check int) (T.name ^ " find") i (T.find tbl k))
      keys;
    Alcotest.(check int) (T.name ^ " length") 6 (T.length tbl);
    let seen = ref [] in
    T.iter (fun k s -> seen := (s, k) :: !seen) tbl;
    Alcotest.(check (list (pair int int))) (T.name ^ " iter")
      (List.mapi (fun i k -> (i, k)) keys)
      (List.sort compare !seen)
  in
  check (module Dqo_hash.Chain_table);
  check (module Dqo_hash.Linear_probe);
  check (module Dqo_hash.Robin_hood)

let test_growth_under_load () =
  (* Insert far more keys than the initial capacity to force repeated
     resizes in every layout. *)
  let check (type t) (module T : Dqo_hash.Table_intf.TABLE with type t = t) =
    let tbl = T.create ~expected:4 () in
    for k = 0 to 9_999 do
      ignore (T.find_or_add tbl (k * 7))
    done;
    Alcotest.(check int) (T.name ^ " length") 10_000 (T.length tbl);
    for k = 0 to 9_999 do
      assert (T.find tbl (k * 7) = k)
    done
  in
  check (module Dqo_hash.Chain_table);
  check (module Dqo_hash.Linear_probe);
  check (module Dqo_hash.Robin_hood)

let test_identity_hash_still_correct () =
  (* A terrible hash function degrades performance, never correctness. *)
  let tbl = Dqo_hash.Linear_probe.create ~hash:Hash_fn.Identity ~expected:4 () in
  for k = 0 to 999 do
    (* Multiples of the table size all hash to bucket 0 under identity. *)
    ignore (Dqo_hash.Linear_probe.find_or_add tbl (k * 4096))
  done;
  Alcotest.(check int) "all found" 1000 (Dqo_hash.Linear_probe.length tbl)

let test_load_factor_bounded () =
  let tbl = Dqo_hash.Linear_probe.create ~expected:4 () in
  for k = 0 to 999 do
    ignore (Dqo_hash.Linear_probe.find_or_add tbl k)
  done;
  Alcotest.(check bool) "load factor <= 0.7" true
    (Dqo_hash.Linear_probe.load_factor tbl <= 0.7 +. 1e-9)

let test_robin_hood_probe_lengths () =
  let tbl = Dqo_hash.Robin_hood.create ~expected:64 () in
  for k = 0 to 999 do
    ignore (Dqo_hash.Robin_hood.find_or_add tbl k)
  done;
  (* Robin Hood bounds displacement variance; with murmur at 70% load the
     max probe length stays small. *)
  Alcotest.(check bool) "max probe < 32" true
    (Dqo_hash.Robin_hood.max_probe_length tbl < 32)

let test_chain_stats () =
  let tbl = Dqo_hash.Chain_table.create ~expected:16 () in
  for k = 0 to 99 do
    ignore (Dqo_hash.Chain_table.find_or_add tbl k)
  done;
  Alcotest.(check bool) "avg chain sane" true
    (Dqo_hash.Chain_table.average_chain_length tbl >= 1.0)

(* --- dense SPH --------------------------------------------------------- *)

let test_dense_sph_full_range () =
  Alcotest.check_raises "domain too large"
    (Invalid_argument "Perfect.Dense.create: domain too large") (fun () ->
      ignore (Perfect.Dense.create ~lo:min_int ~hi:max_int));
  let d = Perfect.Dense.create ~lo:(min_int + 1) ~hi:(-1) in
  Alcotest.(check int) "widest countable domain" max_int (Perfect.Dense.domain_size d)

let test_dense_sph () =
  let d = Perfect.Dense.create ~lo:10 ~hi:19 in
  Alcotest.(check int) "slot" 0 (Perfect.Dense.slot d 10);
  Alcotest.(check int) "slot hi" 9 (Perfect.Dense.slot d 19);
  Alcotest.(check int) "domain" 10 (Perfect.Dense.domain_size d);
  Alcotest.(check bool) "outside" true (Perfect.Dense.slot_opt d 20 = None);
  Alcotest.(check bool) "of_keys dense" true
    (Perfect.Dense.of_keys [| 5; 6; 7; 8 |] <> None);
  Alcotest.(check bool) "of_keys sparse" true
    (Perfect.Dense.of_keys [| 5; 1000; 2000 |] = None);
  Alcotest.(check bool) "of_keys empty" true (Perfect.Dense.of_keys [||] = None)

(* --- FKS --------------------------------------------------------------- *)

let prop_fks_perfect =
  QCheck.Test.make ~name:"FKS is injective and total on its key set"
    ~count:100
    (QCheck.make
       QCheck.Gen.(array_size (int_bound 400) (int_bound 1_000_000)))
    (fun keys ->
      let fks = Perfect.Fks.build keys in
      let distinct = Dqo_util.Int_array.distinct_sorted keys in
      let n = Array.length distinct in
      let slots = Hashtbl.create 64 in
      Perfect.Fks.length fks = n
      && Array.for_all
           (fun k ->
             match Perfect.Fks.slot fks k with
             | None -> false
             | Some s ->
               let fresh = not (Hashtbl.mem slots s) in
               Hashtbl.replace slots s ();
               fresh && s >= 0 && s < n)
           distinct)

let prop_fks_rejects_foreign_keys =
  QCheck.Test.make ~name:"FKS returns None off the key set" ~count:100
    (QCheck.make
       QCheck.Gen.(
         pair
           (array_size (int_bound 200) (int_bound 10_000))
           (int_range 20_000 30_000)))
    (fun (keys, probe) ->
      let fks = Perfect.Fks.build keys in
      Perfect.Fks.slot fks probe = None)

let test_fks_linear_space () =
  let rng = Dqo_util.Rng.create ~seed:3 in
  let keys = Dqo_util.Rng.sample_distinct rng ~k:10_000 ~bound:(1 lsl 29) in
  let fks = Perfect.Fks.build keys in
  (* The FKS bound: expected total second-level space <= 4n + O(1). *)
  Alcotest.(check bool) "space <= 6n" true
    (Perfect.Fks.space fks <= 6 * 10_000)

let test_fks_empty_and_singleton () =
  let empty = Perfect.Fks.build [||] in
  Alcotest.(check bool) "empty" true (Perfect.Fks.slot empty 5 = None);
  let one = Perfect.Fks.build [| 42; 42; 42 |] in
  Alcotest.(check int) "singleton length" 1 (Perfect.Fks.length one);
  Alcotest.(check bool) "singleton slot" true
    (Perfect.Fks.slot one 42 = Some 0)

(* [Fks.find] over full-range keys.  The pool holds pairs of keys that
   differ in the sign bit alone (0 and min_int, -1 and max_int, 5 and
   min_int + 5), which Murmur3 cannot tell apart. *)
let full_range_key =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ 0; min_int; -1; max_int; 5; min_int + 5; min_int + 1; -7 ]);
        (2, int_range (-1000) 1000);
        (3, int);
      ])

let prop_fks_find_perfect =
  QCheck.Test.make ~name:"FKS find: distinct slots below length" ~count:200
    (QCheck.make QCheck.Gen.(array_size (int_bound 300) full_range_key))
    (fun keys ->
      let fks = Perfect.Fks.build keys in
      let distinct = Dqo_util.Int_array.distinct_sorted keys in
      let n = Array.length distinct in
      let seen = Array.make n false in
      Perfect.Fks.length fks = n
      && Perfect.Fks.space fks <= (4 * n) + 4
      && Array.for_all
           (fun k ->
             let s = Perfect.Fks.find fks k in
             s >= 0 && s < n
             && (not seen.(s))
             && begin
                  seen.(s) <- true;
                  true
                end)
           distinct)

let prop_fks_find_rejects_foreign_keys =
  QCheck.Test.make ~name:"FKS find: -1 off the key set" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair
           (array_size (int_bound 200) full_range_key)
           (array_size (int_bound 50) full_range_key)))
    (fun (keys, probes) ->
      let fks = Perfect.Fks.build keys in
      let probes = Array.append [| min_int; max_int; -1; -123_456_789 |] probes in
      Array.for_all
        (fun p ->
          if Array.mem p keys then Perfect.Fks.find fks p >= 0
          else Perfect.Fks.find fks p = -1)
        probes)

let test_fks_find_edge_cases () =
  let find = Perfect.Fks.find in
  let empty = Perfect.Fks.build [||] in
  List.iter
    (fun k -> Alcotest.(check int) "empty" (-1) (find empty k))
    [ 5; 0; min_int; max_int; -1 ];
  let one = Perfect.Fks.build [| 42; 42; 42 |] in
  Alcotest.(check int) "singleton" 0 (find one 42);
  List.iter
    (fun k -> Alcotest.(check int) "singleton foreign" (-1) (find one k))
    [ 43; 0; min_int; max_int; -42 ];
  let low = Perfect.Fks.build [| min_int |] in
  Alcotest.(check int) "min_int" 0 (find low min_int);
  Alcotest.(check int) "min_int's twin 0" (-1) (find low 0);
  (* Two twin pairs in a four-key set: the build must terminate and keep
     all four apart. *)
  let twins = Perfect.Fks.build [| 0; min_int; -1; max_int |] in
  let slots = List.map (find twins) [ 0; min_int; -1; max_int ] in
  Alcotest.(check (list int)) "twins get distinct slots" [ 0; 1; 2; 3 ]
    (List.sort compare slots);
  Alcotest.(check int) "twins foreign" (-1) (find twins 1)

let test_fks_twins_linear_space () =
  (* 5,000 twin pairs: every top-level bucket holds twins. *)
  let rng = Dqo_util.Rng.create ~seed:5 in
  let half = Dqo_util.Rng.sample_distinct rng ~k:5_000 ~bound:(1 lsl 40) in
  let keys = Array.append half (Array.map (fun k -> k lxor min_int) half) in
  let fks = Perfect.Fks.build keys in
  Alcotest.(check bool) "space <= 6n" true (Perfect.Fks.space fks <= 6 * 10_000);
  let seen = Array.make 10_000 false in
  Array.iter
    (fun k ->
      let s = Perfect.Fks.find fks k in
      Alcotest.(check bool) "slot in range and fresh" true
        (s >= 0 && s < 10_000 && not seen.(s));
      seen.(s) <- true)
    keys

let () =
  Alcotest.run "dqo_hash"
    [
      ( "hash-fn",
        [
          Alcotest.test_case "non-negative & deterministic" `Quick
            test_hash_fns_nonnegative_and_deterministic;
          Alcotest.test_case "murmur spreads" `Quick
            test_murmur_spreads_sequential_keys;
          Alcotest.test_case "identity" `Quick test_identity_degenerate;
          Alcotest.test_case "seeded family" `Quick test_with_seed_varies;
        ] );
      ( "tables",
        [
          qtest (prop_table "chaining" (module Dqo_hash.Chain_table));
          qtest (prop_table "linear-probing" (module Dqo_hash.Linear_probe));
          qtest (prop_table "robin-hood" (module Dqo_hash.Robin_hood));
          Alcotest.test_case "absent lookups" `Quick test_absent_lookups;
          Alcotest.test_case "extreme keys" `Quick test_extreme_keys;
          Alcotest.test_case "growth" `Quick test_growth_under_load;
          Alcotest.test_case "identity hash correctness" `Quick
            test_identity_hash_still_correct;
          Alcotest.test_case "load factor" `Quick test_load_factor_bounded;
          Alcotest.test_case "robin-hood probes" `Quick
            test_robin_hood_probe_lengths;
          Alcotest.test_case "chain stats" `Quick test_chain_stats;
        ] );
      ( "perfect",
        [
          Alcotest.test_case "dense SPH" `Quick test_dense_sph;
          Alcotest.test_case "dense SPH full range" `Quick test_dense_sph_full_range;
          qtest prop_fks_perfect;
          qtest prop_fks_rejects_foreign_keys;
          Alcotest.test_case "FKS linear space" `Quick test_fks_linear_space;
          Alcotest.test_case "FKS edge cases" `Quick
            test_fks_empty_and_singleton;
          qtest prop_fks_find_perfect;
          qtest prop_fks_find_rejects_foreign_keys;
          Alcotest.test_case "FKS find edge cases" `Quick test_fks_find_edge_cases;
          Alcotest.test_case "FKS twins linear space" `Quick
            test_fks_twins_linear_space;
        ] );
    ]
