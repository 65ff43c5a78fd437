(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus the ablations listed in DESIGN.md.

     dune exec bench/main.exe                 -- everything, default scale
     dune exec bench/main.exe -- --figure 4   -- one experiment
     dune exec bench/main.exe -- --rows 100000000   -- paper scale

   Experiments:
     --figure 4     grouping-runtime sweeps on the four dataset shapes
     --figure 5     DQO/SQO estimated-cost improvement factors
     --table 2      cost-model shape check (model vs measured, OG = 1)
     --ablation hash|table|avsp|opttime|cracking|skew|online|layout
     --advisor      online AV advisor: served p50/p95 before/after the
                    first self-tuning tick, advisor on vs off
     --bechamel     Bechamel micro-benchmarks (one Test.make per paper table)

   Absolute numbers are machine-dependent; the *shape* (who wins, by what
   factor, where crossovers fall) is what reproduces the paper.  See
   EXPERIMENTS.md for the recorded comparison. *)

module Grouping = Dqo_exec.Grouping
module Join = Dqo_exec.Join
module Datagen = Dqo_data.Datagen
module Int_col = Dqo_data.Int_col
module Table_printer = Dqo_util.Table_printer
module Timer = Dqo_util.Timer
module Rng = Dqo_util.Rng
module Props = Dqo_plan.Props
module Logical = Dqo_plan.Logical
module Physical = Dqo_plan.Physical
module Catalog = Dqo_opt.Catalog
module Search = Dqo_opt.Search
module Hier = Dqo_opt.Hier
module Pareto = Dqo_opt.Pareto
module Model = Dqo_cost.Model
module Json = Dqo_obs.Json
module Stats = Dqo_util.Stats

(* Machine-readable results, filled by the experiments that support it
   and written out by --json PATH. *)
let fig4_records : Json.t list ref = ref []
let fig5_records : Json.t list ref = ref []
let scaling_records : Json.t list ref = ref []
let opt_scaling_records : Json.t list ref = ref []
let serve_records : Json.t list ref = ref []
let feedback_records : Json.t list ref = ref []
let advisor_records : Json.t list ref = ref []
let paper_scale_records : Json.t list ref = ref []
let hier_records : Json.t list ref = ref []

(* ------------------------------------------------------------------ *)
(* Figure 4: grouping performance on four dataset shapes.             *)

let group_counts = [ 2; 10; 100; 1_000; 5_000; 10_000; 20_000; 40_000 ]

let applicable alg ~sorted ~dense =
  match alg with
  | Grouping.SPHG -> dense
  | Grouping.OG -> sorted
  | Grouping.HG | Grouping.SOG | Grouping.BSG -> true

let figure4_dataset ~rows ~sorted ~dense =
  Printf.printf "-- Figure 4 / %s & %s (n = %d) --\n"
    (if sorted then "sorted" else "unsorted")
    (if dense then "dense" else "sparse")
    rows;
  let table =
    Table_printer.create
      ~header:("#groups" :: List.map Grouping.name Grouping.all)
  in
  let shape =
    Printf.sprintf "%s-%s"
      (if sorted then "sorted" else "unsorted")
      (if dense then "dense" else "sparse")
  in
  List.iter
    (fun groups ->
      let rng = Rng.create ~seed:(groups + 1) in
      let dataset = Datagen.grouping ~rng ~n:rows ~groups ~sorted ~dense () in
      let values = Int_col.const rows 1 in
      let cells =
        List.map
          (fun alg ->
            if not (applicable alg ~sorted ~dense) then "n/a"
            else begin
              let _, samples =
                Timer.times ~repeats:2 (fun () ->
                    Grouping.run alg ~dataset ~values)
              in
              (* The table keeps best_of semantics (min); the JSON
                 record carries the median, the harness's standard
                 summary statistic. *)
              fig4_records :=
                Json.Obj
                  [
                    ("shape", Json.String shape);
                    ("rows", Json.Int rows);
                    ("groups", Json.Int groups);
                    ("algorithm", Json.String (Grouping.name alg));
                    ("median_ms", Json.Float (Stats.median samples));
                    ("min_ms",
                     Json.Float (Array.fold_left Float.min samples.(0) samples));
                  ]
                :: !fig4_records;
              Printf.sprintf "%.0f"
                (Array.fold_left Float.min samples.(0) samples)
            end)
          Grouping.all
      in
      Table_printer.add_row table (string_of_int groups :: cells))
    (* Small --rows runs skip the group counts the dataset cannot hold. *)
    (List.filter (fun g -> g <= rows) group_counts);
  Table_printer.print table

(* The paper's zoom-in: on unsorted & sparse data, BSG beats HG for very
   few groups; report the crossover point. *)
let figure4_crossover ~rows =
  print_endline
    "-- Figure 4 zoom-in: BSG vs HG crossover (unsorted & sparse) --";
  print_endline
    "   HG(boxed) chases pointers like the paper's std::unordered_map;";
  print_endline "   HG(flat) is this library's array-based chaining table.";
  let last_bsg_win = ref None in
  List.iter
    (fun groups ->
      let rng = Rng.create ~seed:(1000 + groups) in
      let dataset =
        Datagen.grouping ~rng ~n:rows ~groups ~sorted:false ~dense:false ()
      in
      let values = Int_col.const rows 1 in
      let time f = snd (Timer.best_of ~repeats:3 f) in
      let bsg = time (fun () -> Grouping.run Grouping.BSG ~dataset ~values) in
      let hg_flat =
        time (fun () -> Grouping.run Grouping.HG ~dataset ~values)
      in
      let hg_boxed =
        time (fun () ->
            Grouping.hash_based_boxed ~keys:dataset.Datagen.keys ~values)
      in
      Printf.printf
        "  groups=%3d  BSG=%7.1f ms  HG(boxed)=%7.1f ms  HG(flat)=%7.1f ms  %s\n"
        groups bsg hg_boxed hg_flat
        (if bsg < hg_boxed then "BSG beats boxed HG" else "boxed HG wins");
      if bsg < hg_boxed then last_bsg_win := Some groups)
    [ 2; 4; 8; 12; 14; 16; 20; 24; 32; 48; 64 ];
  (match !last_bsg_win with
  | Some w ->
    Printf.printf
      "  BSG beats the boxed (std::unordered_map-like) HG up to %d groups\n\
      \  (paper: up to ~14 groups on their machine).\n"
      w
  | None -> print_endline "  HG won everywhere at this scale.");
  print_newline ()

let figure4 ~rows =
  List.iter
    (fun (sorted, dense) -> figure4_dataset ~rows ~sorted ~dense)
    [ (true, true); (true, false); (false, true); (false, false) ];
  figure4_crossover ~rows:(min rows 2_000_000)

(* ------------------------------------------------------------------ *)
(* Figure 5: DQO vs SQO improvement factors (estimated plan costs).    *)

let col ~dense ~lo ~hi ~distinct : Props.column = { dense; lo; hi; distinct }

let figure5_catalog ~r_sorted ~s_sorted ~dense =
  let r_props =
    {
      Props.sorted_by = (if r_sorted then Some "id" else None);
      clustered_by = (if r_sorted then Some "id" else None);
      columns =
        [
          ("id", col ~dense ~lo:0 ~hi:24_999 ~distinct:25_000);
          ("a", col ~dense ~lo:0 ~hi:19_999 ~distinct:20_000);
        ];
      co_ordered = [ ("id", "a") ];
    }
  in
  let s_props =
    {
      Props.sorted_by = (if s_sorted then Some "r_id" else None);
      clustered_by = (if s_sorted then Some "r_id" else None);
      columns = [ ("r_id", col ~dense ~lo:0 ~hi:24_999 ~distinct:25_000) ];
      co_ordered = [];
    }
  in
  Catalog.create
    [
      Catalog.table ~name:"R" ~rows:25_000 ~props:r_props;
      Catalog.table ~name:"S" ~rows:90_000 ~props:s_props;
    ]

let figure5_query =
  Logical.group_by
    (Logical.join (Logical.scan "R") (Logical.scan "S") ~on:("id", "r_id"))
    ~key:"a"
    [ Logical.count_star () ]

let plan_brief (e : Pareto.entry) =
  String.concat " -> "
    (List.filter
       (fun op ->
         not (String.length op >= 9 && String.sub op 0 9 = "TableScan"))
       (Physical.operators e.Pareto.plan))

let figure5 () =
  print_endline "-- Figure 5: improvement factors of DQO over SQO --";
  print_endline
    "   query: SELECT R.A, COUNT(STAR) FROM R JOIN S ON R.ID=S.R_ID GROUP BY \
     R.A";
  print_endline
    "   |R| = 25,000; |S| = 90,000; join output 90,000; 20,000 groups";
  print_newline ();
  let table =
    Table_printer.create
      ~header:[ ""; ""; "sparse"; "dense"; "DQO plan (dense)" ]
  in
  List.iter
    (fun (r_sorted, r_label) ->
      List.iter
        (fun (s_sorted, s_label) ->
          let factor dense =
            Dqo_opt.Dqo.improvement_factor
              (figure5_catalog ~r_sorted ~s_sorted ~dense)
              figure5_query
          in
          let dense_best =
            Search.optimize Search.Deep
              (figure5_catalog ~r_sorted ~s_sorted ~dense:true)
              figure5_query
          in
          fig5_records :=
            Json.Obj
              [
                ("r_sorted", Json.Bool r_sorted);
                ("s_sorted", Json.Bool s_sorted);
                ("factor_sparse", Json.Float (factor false));
                ("factor_dense", Json.Float (factor true));
                ("dqo_plan_dense", Json.String (plan_brief dense_best));
              ]
            :: !fig5_records;
          Table_printer.add_row table
            [
              r_label;
              s_label;
              Printf.sprintf "%.1fx" (factor false);
              Printf.sprintf "%.1fx" (factor true);
              plan_brief dense_best;
            ])
        [ (true, "S sorted"); (false, "S unsorted") ])
    [ (true, "R sorted"); (false, "R unsorted") ];
  Table_printer.print table;
  print_endline
    "Paper reports (dense column): 1x, 4x, 2.8x, 4x — sparse column all 1x.\n"

(* ------------------------------------------------------------------ *)
(* Table 2 shape check: model vs measurement, normalised to OG = 1.    *)

let table2_check ~rows =
  print_endline
    "-- Table 2: cost model vs measured per-tuple cost (OG = 1) --";
  let groups = 20_000 in
  let measured = Dqo_cost.Calibrate.measure ~rows ~groups () in
  let find name =
    (List.find (fun m -> m.Dqo_cost.Calibrate.algorithm = name) measured)
      .Dqo_cost.Calibrate.per_tuple_ns
  in
  let og = find "OG" in
  let model_cost alg =
    Model.grouping_cost Model.table2
      ~impl:(Physical.default_grouping alg)
      ~rows ~groups
    /. Float.of_int rows
  in
  let table =
    Table_printer.create
      ~header:[ "algorithm"; "Table 2 (rel.)"; "measured (rel.)" ]
  in
  List.iter
    (fun alg ->
      Table_printer.add_row table
        [
          Grouping.name alg;
          Printf.sprintf "%.2f" (model_cost alg);
          Printf.sprintf "%.2f" (find (Grouping.name alg) /. og);
        ])
    Grouping.all;
  Table_printer.print table;
  Printf.printf
    "Calibrated hash factor on this machine: %.2f (Table 2 uses 4).\n\n"
    (Dqo_cost.Calibrate.hash_factor ~rows ~groups ())

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)

let ablation_hash ~rows =
  print_endline
    "-- Ablation A1: hash-function molecule (HG, unsorted dense) --";
  let rng = Rng.create ~seed:31 in
  let dataset =
    Datagen.grouping ~rng ~n:rows ~groups:10_000 ~sorted:false ~dense:true ()
  in
  let values = Int_col.const rows 1 in
  let table = Table_printer.create ~header:[ "hash function"; "ms" ] in
  List.iter
    (fun hash ->
      let _, ms =
        Timer.best_of ~repeats:3 (fun () ->
            Grouping.hash_based ~hash ~table:Grouping.Linear_probing
              ~expected:10_000 ~keys:dataset.Datagen.keys ~values ())
      in
      Table_printer.add_row table
        [ Dqo_hash.Hash_fn.name hash; Printf.sprintf "%.0f" ms ])
    Dqo_hash.Hash_fn.all;
  Table_printer.print table

let ablation_table ~rows =
  print_endline
    "-- Ablation A2: hash-table molecule (HG, unsorted dense) --";
  let rng = Rng.create ~seed:32 in
  let dataset =
    Datagen.grouping ~rng ~n:rows ~groups:10_000 ~sorted:false ~dense:true ()
  in
  let values = Int_col.const rows 1 in
  let table = Table_printer.create ~header:[ "table layout"; "ms" ] in
  List.iter
    (fun (layout, name) ->
      let _, ms =
        Timer.best_of ~repeats:3 (fun () ->
            Grouping.hash_based ~table:layout ~expected:10_000
              ~keys:dataset.Datagen.keys ~values ())
      in
      Table_printer.add_row table [ name; Printf.sprintf "%.0f" ms ])
    [
      (Grouping.Chaining, "chaining (flat arrays)");
      (Grouping.Linear_probing, "linear probing");
      (Grouping.Robin_hood, "robin hood");
    ];
  let _, boxed_ms =
    Timer.best_of ~repeats:3 (fun () ->
        Grouping.hash_based_boxed ~keys:dataset.Datagen.keys ~values)
  in
  Table_printer.add_row table
    [ "boxed chaining (std::unordered_map-like)"; Printf.sprintf "%.0f" boxed_ms ];
  Table_printer.print table

let ablation_avsp () =
  print_endline "-- Ablation A3: AVSP solvers on a sparse workload --";
  let catalog = figure5_catalog ~r_sorted:false ~s_sorted:false ~dense:false in
  let workload = [ (figure5_query, 1.0) ] in
  let candidates = Dqo_av.Avsp.default_candidates catalog in
  let base = Dqo_av.Avsp.workload_cost catalog workload in
  let table =
    Table_printer.create ~header:[ "budget"; "greedy cost"; "exact cost" ]
  in
  List.iter
    (fun budget ->
      let g = Dqo_av.Avsp.greedy ~budget catalog workload candidates in
      let e = Dqo_av.Avsp.exact ~budget catalog workload candidates in
      Table_printer.add_row table
        [
          Printf.sprintf "%.0f" budget;
          Printf.sprintf "%.0f" g.Dqo_av.Avsp.workload_cost;
          Printf.sprintf "%.0f" e.Dqo_av.Avsp.workload_cost;
        ])
    [ 0.0; 100_000.0; 300_000.0; 1_000_000.0 ];
  Printf.printf "no-AV workload cost: %.0f\n" base;
  Table_printer.print table

let ablation_opttime () =
  print_endline
    "-- Ablation A4: optimisation time vs plan quality (SQO / DQO / \
     +molecules) --";
  let catalog = figure5_catalog ~r_sorted:false ~s_sorted:false ~dense:true in
  let table =
    Table_printer.create
      ~header:[ "optimiser"; "plans considered"; "best cost"; "opt time ms" ]
  in
  let run label mode model =
    let (entries, stats), ms =
      Timer.median_of ~repeats:21 (fun () ->
          Search.optimize_entries ~model mode catalog figure5_query)
    in
    Table_printer.add_row table
      [
        label;
        string_of_int stats.Search.plans_considered;
        Printf.sprintf "%.0f" (Pareto.cheapest entries).Pareto.cost;
        Printf.sprintf "%.3f" ms;
      ]
  in
  run "SQO" Search.Shallow Model.table2;
  run "DQO" Search.Deep Model.table2;
  run "DQO + molecules" Search.Deep Model.deep;
  Table_printer.print table

let ablation_cracking () =
  print_endline "-- Ablation A5: adaptive index (cracking) convergence --";
  let rows = 2_000_000 in
  let rng = Rng.create ~seed:5 in
  let column = Array.init rows (fun _ -> Rng.int rng 50_000) in
  let cracker = Dqo_index.Cracking.create column in
  let table =
    Table_printer.create ~header:[ "queries"; "avg ms/query"; "pieces" ]
  in
  let total_queries = ref 0 in
  List.iter
    (fun batch ->
      let t = ref 0.0 in
      for _ = 1 to batch do
        let a = Rng.int rng 50_000 in
        let b = min 49_999 (a + Rng.int rng 500) in
        let _, ms =
          Timer.time_ms (fun () ->
              Dqo_index.Cracking.count_range cracker ~lo:a ~hi:b)
        in
        t := !t +. ms
      done;
      total_queries := !total_queries + batch;
      Table_printer.add_row table
        [
          string_of_int !total_queries;
          Printf.sprintf "%.3f" (!t /. Float.of_int batch);
          string_of_int (Dqo_index.Cracking.piece_count cracker);
        ])
    [ 1; 9; 40; 200; 750 ];
  Table_printer.print table

let ablation_skew ~rows =
  print_endline
    "-- Ablation A6: Zipf skew sensitivity (unsorted dense, 10k groups) --";
  let groups = 10_000 in
  let table =
    Table_printer.create
      ~header:[ "theta"; "HG ms"; "SPHG ms"; "SOG ms"; "BSG ms" ]
  in
  List.iter
    (fun theta ->
      let rng = Rng.create ~seed:33 in
      let keys = Datagen.zipf_keys ~rng ~n:rows ~groups ~theta () in
      let universe = Dqo_util.Int_array.distinct_sorted (Int_col.to_array keys) in
      let values = Int_col.const rows 1 in
      let time f = snd (Timer.best_of ~repeats:2 f) in
      let hg = time (fun () -> Grouping.hash_based ~expected:groups ~keys ~values ()) in
      let sphg =
        time (fun () -> Grouping.sph_based ~lo:0 ~hi:(groups - 1) ~keys ~values)
      in
      let sog = time (fun () -> Grouping.sort_order_based ~keys ~values) in
      let bsg =
        time (fun () -> Grouping.binary_search_based ~universe ~keys ~values)
      in
      Table_printer.add_row table
        [
          Printf.sprintf "%.1f" theta;
          Printf.sprintf "%.0f" hg;
          Printf.sprintf "%.0f" sphg;
          Printf.sprintf "%.0f" sog;
          Printf.sprintf "%.0f" bsg;
        ])
    [ 0.0; 0.5; 0.8; 1.0; 1.2 ];
  Table_printer.print table;
  print_endline
    "Skew concentrates hits on few hash-table slots / array cells, so the\n\
     point-lookup algorithms get faster with theta while SOG's sort does \
     not.\n"

let ablation_online ~rows =
  print_endline
    "-- Ablation A7: online (non-blocking) aggregation estimate error --";
  let groups = 1_000 in
  let rng = Rng.create ~seed:34 in
  let dataset =
    Datagen.grouping ~rng ~n:rows ~groups ~sorted:false ~dense:true ()
  in
  let values = Int_col.const rows 1 in
  let table =
    Table_printer.create
      ~header:[ "progress"; "mean |error| %"; "max |error| %" ]
  in
  let exact = Hashtbl.create groups in
  Int_col.iteri dataset.Datagen.keys ~f:(fun _ k ->
      Hashtbl.replace exact k
        (1 + Option.value ~default:0 (Hashtbl.find_opt exact k)));
  let report snapshot =
    match snapshot with
    | [] -> ()
    | (first : Dqo_exec.Online_agg.estimate) :: _ ->
      let p = first.Dqo_exec.Online_agg.progress in
      (* Sample every 10% of the stream. *)
      let pct = int_of_float (p *. 10.0 +. 0.5) in
      if Float.abs ((p *. 10.0) -. Float.of_int pct) < 0.01 then begin
        let errs =
          List.filter_map
            (fun (e : Dqo_exec.Online_agg.estimate) ->
              match Hashtbl.find_opt exact e.Dqo_exec.Online_agg.key with
              | None -> None
              | Some c ->
                Some
                  (100.0
                  *. Float.abs
                       (e.Dqo_exec.Online_agg.est_count -. Float.of_int c)
                  /. Float.of_int c))
            snapshot
        in
        let arr = Array.of_list errs in
        Table_printer.add_row table
          [
            Printf.sprintf "%3d%%" (pct * 10);
            Printf.sprintf "%.2f" (Dqo_util.Stats.mean arr);
            Printf.sprintf "%.2f" (Array.fold_left Float.max 0.0 arr);
          ]
      end
  in
  let final =
    Dqo_exec.Online_agg.run_progressive ~keys:dataset.Datagen.keys ~values
      ~report_every:(max 1 (rows / 100))
      report
  in
  Table_printer.print table;
  Printf.printf
    "Final result exact (%d groups) — running estimates were available\n\
     from the first chunk on, which the textbook two-phase HG cannot do.\n\n"
    (Dqo_exec.Group_result.groups final)

let ablation_layout ~rows =
  print_endline
    "-- Ablation A8: storage layout (row / columnar / PAX) under grouping --";
  let groups = 10_000 in
  let rng = Rng.create ~seed:35 in
  let dataset =
    Datagen.grouping ~rng ~n:rows ~groups ~sorted:false ~dense:true ()
  in
  let values = Array.init rows (fun i -> i land 1023) in
  let table =
    Table_printer.create
      ~header:[ "layout"; "key-only scan ms"; "key+payload grouping ms" ]
  in
  let layout_keys = Int_col.to_array dataset.Datagen.keys in
  List.iter
    (fun kind ->
      let l = Dqo_data.Layout.of_columns ~keys:layout_keys ~values kind in
      let _, keys_ms =
        Timer.best_of ~repeats:3 (fun () ->
            Dqo_data.Layout.fold_keys l ~init:0 ~f:( + ))
      in
      (* Grouping over the layout-generic scan: COUNT and SUM per key
         into an SPH slot array. *)
      let _, group_ms =
        Timer.best_of ~repeats:3 (fun () ->
            let counts = Array.make groups 0 and sums = Array.make groups 0 in
            Dqo_data.Layout.fold_rows l ~init:() ~f:(fun () k v ->
                counts.(k) <- counts.(k) + 1;
                sums.(k) <- sums.(k) + v))
      in
      Table_printer.add_row table
        [
          Dqo_data.Layout.layout_name l;
          Printf.sprintf "%.0f" keys_ms;
          Printf.sprintf "%.0f" group_ms;
        ])
    [ `Row; `Col; `Pax ];
  Table_printer.print table;
  print_endline
    "Layout is one of the DQO plan properties of paper §2.2: key-only\n\
     consumers favour columnar/PAX (payload bytes never touched), while\n\
     row-major only competes when every column is consumed.\n"

(* ------------------------------------------------------------------ *)
(* Parallel scaling: partition-based grouping, speedup vs domains.     *)

let parallel_scaling ~rows ~threads =
  Printf.printf
    "-- Parallel scaling: partition-based HG, %d rows, 20k groups --\n" rows;
  let groups = 20_000 in
  let rng = Rng.create ~seed:41 in
  let dataset =
    Datagen.grouping ~rng ~n:rows ~groups ~sorted:false ~dense:true ()
  in
  let keys = dataset.Datagen.keys in
  let values = Int_col.const rows 1 in
  let table =
    Table_printer.create ~header:[ "domains"; "median ms"; "speedup vs 1" ]
  in
  let base = ref Float.nan in
  List.iter
    (fun domains ->
      Dqo_par.Pool.with_pool ~domains (fun pool ->
          let _, samples =
            Timer.times ~repeats:5 (fun () ->
                Dqo_par.Par_group.partition_based pool ~keys ~values ())
          in
          let median_ms = Stats.median samples in
          if domains = 1 then base := median_ms;
          let speedup = !base /. median_ms in
          scaling_records :=
            Json.Obj
              [
                ("rows", Json.Int rows);
                ("groups", Json.Int groups);
                ("domains", Json.Int domains);
                ("median_ms", Json.Float median_ms);
                ("speedup_vs_1", Json.Float speedup);
              ]
            :: !scaling_records;
          Table_printer.add_row table
            [
              string_of_int domains;
              Printf.sprintf "%.1f" median_ms;
              Printf.sprintf "%.2fx" speedup;
            ]))
    (List.filter (fun d -> d <= threads) [ 1; 2; 4; 8 ]);
  Table_printer.print table;
  Printf.printf
    "Results are byte-identical across domain counts; speedup needs as\n\
     many online CPUs as domains (this host reports %d).\n\n"
    (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Optimiser scaling: parallel DP plan search, speedup vs domains.     *)

(* A star join around a hub: the hub connects to every satellite, so
   every relation subset containing the hub is connected — 2^(k-1)
   live DP subproblems, the densest join graph a predicate-per-join
   logical tree can express.  Column names are globally unique so the
   search's column -> leaf resolution is unambiguous. *)
let opt_scaling_catalog ~relations =
  let hub_props =
    {
      Props.sorted_by = Some "hub_k";
      clustered_by = Some "hub_k";
      columns =
        ("hub_k", col ~dense:true ~lo:0 ~hi:9_999 ~distinct:10_000)
        :: List.init (relations - 1) (fun i ->
               ( Printf.sprintf "hub_f%d" (i + 1),
                 col ~dense:true ~lo:0 ~hi:9_999 ~distinct:10_000 ));
      co_ordered = [];
    }
  in
  let sat_props i =
    let name = Printf.sprintf "sat%d_k" i in
    {
      (* Alternate sortedness so interesting orders differ per leaf and
         the Pareto frontiers stay plural. *)
      Props.sorted_by = (if i mod 2 = 0 then Some name else None);
      clustered_by = (if i mod 2 = 0 then Some name else None);
      columns =
        [ (name, col ~dense:true ~lo:0 ~hi:9_999 ~distinct:10_000) ];
      co_ordered = [];
    }
  in
  Catalog.create
    (Catalog.table ~name:"Hub" ~rows:10_000 ~props:hub_props
    :: List.init (relations - 1) (fun i ->
           Catalog.table
             ~name:(Printf.sprintf "Sat%d" (i + 1))
             ~rows:(20_000 + (10_000 * i))
             ~props:(sat_props (i + 1))))

let opt_scaling_query ~relations =
  let rec build acc i =
    if i >= relations then acc
    else
      build
        (Logical.join acc
           (Logical.scan (Printf.sprintf "Sat%d" i))
           ~on:(Printf.sprintf "hub_f%d" i, Printf.sprintf "sat%d_k" i))
        (i + 1)
  in
  Logical.group_by
    (build (Logical.scan "Hub") 1)
    ~key:"hub_k"
    [ Logical.count_star () ]

let optimizer_scaling ~threads =
  let relations = 7 in
  Printf.printf
    "-- Optimiser scaling: parallel DP plan search, %d-relation star join \
     --\n"
    relations;
  let catalog = opt_scaling_catalog ~relations in
  let query = opt_scaling_query ~relations in
  (* Molecule-level enumeration (deep model) is the expensive — and
     paper-relevant — search; it is what parallel DP has to pay for. *)
  let optimize ?pool () =
    Search.optimize_entries ~model:Model.deep ?pool Search.Deep catalog query
  in
  let base_entries, base_stats = optimize () in
  let base_plan =
    Format.asprintf "%a" Physical.pp (Pareto.cheapest base_entries).Pareto.plan
  in
  Printf.printf
    "   query: %d-way join + GROUP BY; %d plans considered, %d DP levels\n"
    relations base_stats.Search.plans_considered
    (List.length base_stats.Search.levels);
  let table =
    Table_printer.create ~header:[ "domains"; "median ms"; "speedup vs 1" ]
  in
  let base = ref Float.nan in
  List.iter
    (fun domains ->
      Dqo_par.Pool.with_pool ~domains (fun pool ->
          let (entries, stats), samples =
            Timer.times ~repeats:5 (fun () -> optimize ~pool ())
          in
          let plan =
            Format.asprintf "%a" Physical.pp
              (Pareto.cheapest entries).Pareto.plan
          in
          let identical =
            String.equal plan base_plan
            && List.length entries = List.length base_entries
            && List.for_all2
                 (fun (a : Search.level_stat) (b : Search.level_stat) ->
                   a.Search.level_kept = b.Search.level_kept)
                 stats.Search.levels base_stats.Search.levels
          in
          if not identical then
            Printf.printf "   WARNING: domains=%d diverged from domains=1!\n"
              domains;
          let median_ms = Stats.median samples in
          if domains = 1 then base := median_ms;
          let speedup = !base /. median_ms in
          opt_scaling_records :=
            Json.Obj
              [
                ("relations", Json.Int relations);
                ("domains", Json.Int domains);
                ("median_ms", Json.Float median_ms);
                ("speedup_vs_1", Json.Float speedup);
                ("plans_considered", Json.Int stats.Search.plans_considered);
                ("pareto_kept", Json.Int stats.Search.pareto_kept);
                ("plan_identical", Json.Bool identical);
                ( "levels",
                  Json.List
                    (List.map Search.level_to_json stats.Search.levels) );
              ]
            :: !opt_scaling_records;
          Table_printer.add_row table
            [
              string_of_int domains;
              Printf.sprintf "%.1f" median_ms;
              Printf.sprintf "%.2fx" speedup;
            ]))
    (List.filter (fun d -> d <= threads) [ 1; 2; 4; 8 ]);
  Table_printer.print table;
  Printf.printf
    "Chosen plan, costs, and per-level Pareto counts are byte-identical\n\
     across domain counts; speedup needs as many online CPUs as domains\n\
     (this host reports %d).\n\n"
    (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Hierarchical planning: graph-partitioned DP vs the exhaustive one.  *)

(* Real-data snowflake: a hub with one fk column per chain, each chain
   a fk -> pk path of dense-keyed tables.  Every join is fk -> pk, so
   intermediates stay at hub size and the small shapes are cheap to
   execute and digest-compare.  Alternate tables get shuffled keys so
   sortedness differs per leaf and Pareto frontiers stay plural.
   Column names are globally unique (c<chain>t<pos>_...). *)
let snowflake_db ~chains ~hub_rows ~rows =
  let rng = Rng.create ~seed:77 in
  let db = Dqo_engine.Engine.create () in
  let hub_schema =
    Dqo_data.Schema.of_names
      (("snow_k", Dqo_data.Schema.T_int)
      :: List.mapi
           (fun c _ -> (Printf.sprintf "snow_f%d" c, Dqo_data.Schema.T_int))
           chains)
  in
  let hub_cols =
    Dqo_data.Column.of_ints (Array.init hub_rows (fun i -> i))
    :: List.map
         (fun _ ->
           Dqo_data.Column.of_ints
             (Array.init hub_rows (fun _ -> Rng.int rng rows)))
         chains
  in
  Dqo_engine.Engine.register db ~name:"Snow"
    (Dqo_data.Relation.create hub_schema hub_cols);
  List.iteri
    (fun c len ->
      for j = 1 to len do
        let keys = Array.init rows (fun i -> i) in
        if (c + j) mod 2 = 1 then Rng.shuffle rng keys;
        let names, cols =
          if j < len then
            ( [
                (Printf.sprintf "c%dt%d_k" c j, Dqo_data.Schema.T_int);
                (Printf.sprintf "c%dt%d_f" c j, Dqo_data.Schema.T_int);
              ],
              [
                Dqo_data.Column.of_ints keys;
                Dqo_data.Column.of_ints
                  (Array.init rows (fun _ -> Rng.int rng rows));
              ] )
          else
            ([ (Printf.sprintf "c%dt%d_k" c j, Dqo_data.Schema.T_int) ],
             [ Dqo_data.Column.of_ints keys ])
        in
        Dqo_engine.Engine.register db
          ~name:(Printf.sprintf "C%dT%d" c j)
          (Dqo_data.Relation.create (Dqo_data.Schema.of_names names) cols)
      done)
    chains;
  db

let snowflake_query ~chains =
  let q = ref (Logical.scan "Snow") in
  List.iteri
    (fun c len ->
      q :=
        Logical.join !q
          (Logical.scan (Printf.sprintf "C%dT1" c))
          ~on:(Printf.sprintf "snow_f%d" c, Printf.sprintf "c%dt1_k" c);
      for j = 2 to len do
        q :=
          Logical.join !q
            (Logical.scan (Printf.sprintf "C%dT%d" c j))
            ~on:
              ( Printf.sprintf "c%dt%d_f" c (j - 1),
                Printf.sprintf "c%dt%d_k" c j )
      done)
    chains;
  Logical.group_by !q ~key:"snow_k" [ Logical.count_star () ]

(* hub + chains: 1 + sum = relations. *)
let snowflake_shapes =
  [
    (16, [ 5; 5; 5 ]);
    (24, [ 8; 8; 7 ]);
    (40, [ 8; 8; 8; 8; 7 ]);
    (80, [ 10; 10; 10; 10; 10; 10; 10; 9 ]);
  ]

let bench_hier ~exhaustive_cap ~max_relations =
  Printf.printf
    "-- Hierarchical planning: graph-partitioned DP vs exhaustive --\n";
  let renders entries =
    List.map
      (fun (e : Pareto.entry) ->
        Format.asprintf "%a" Physical.pp e.Pareto.plan)
      entries
  in
  let digest_of db (e : Pareto.entry) =
    Dqo_serve.Wire.digest (Dqo_engine.Engine.execute db e.Pareto.plan)
  in
  (* Identity: one partition must be byte-identical to the exhaustive
     search — same frontier, same plans, same execution digest — for
     any pool size; and a forced multi-partition split must still
     execute to the same digest at near-exhaustive cost. *)
  let chains = [ 3; 3; 3 ] in
  let db = snowflake_db ~chains ~hub_rows:2_000 ~rows:1_000 in
  let catalog = Dqo_engine.Engine.catalog db in
  let query = snowflake_query ~chains in
  let ex_entries, _ =
    Search.optimize_entries Search.Deep catalog query
  in
  let hi_entries, _, one_report =
    Hier.optimize_entries ~partition_max:16 Search.Deep catalog query
  in
  let plan_identical = renders ex_entries = renders hi_entries in
  let ex_best = Pareto.cheapest ex_entries in
  let hi_best = Pareto.cheapest hi_entries in
  let digests_identical =
    String.equal (digest_of db ex_best) (digest_of db hi_best)
  in
  let pooled_identical =
    List.for_all
      (fun domains ->
        Dqo_par.Pool.with_pool ~domains (fun pool ->
            let entries, _, _ =
              Hier.optimize_entries ~pool ~partition_max:16 Search.Deep
                catalog query
            in
            renders entries = renders hi_entries))
      [ 2; 4 ]
  in
  let sp_entries, _, sp_report =
    Hier.optimize_entries ~partition_max:4 Search.Deep catalog query
  in
  let sp_best = Pareto.cheapest sp_entries in
  let split_digest_identical =
    String.equal (digest_of db ex_best) (digest_of db sp_best)
  in
  let split_cost_ratio =
    sp_best.Pareto.cost /. Float.max 1.0 ex_best.Pareto.cost
  in
  hier_records :=
    Json.Obj
      [
        ("kind", Json.String "identity");
        ("relations", Json.Int 10);
        ("partitions", Json.Int (List.length one_report.Hier.partitions));
        ("plan_identical", Json.Bool plan_identical);
        ("digests_identical", Json.Bool digests_identical);
        ("pooled_identical", Json.Bool pooled_identical);
        ("split_partitions", Json.Int (List.length sp_report.Hier.partitions));
        ("split_digest_identical", Json.Bool split_digest_identical);
        ("split_cost_ratio", Json.Float split_cost_ratio);
      ]
    :: !hier_records;
  Printf.printf
    "   identity (10 rel): 1-partition plans %s, digests %s, pooled %s; \
     %d-partition split digest %s (cost ratio %.3f)\n"
    (if plan_identical then "identical" else "DIVERGED")
    (if digests_identical then "identical" else "DIVERGED")
    (if pooled_identical then "identical" else "DIVERGED")
    (List.length sp_report.Hier.partitions)
    (if split_digest_identical then "identical" else "DIVERGED")
    split_cost_ratio;
  (* Sweep: planning time hierarchical vs exhaustive as the snowflake
     grows.  The exhaustive arm is skipped past --hier-exhaustive-cap
     (the 3^n wall is the point), the whole shape past
     --hier-max-relations (CI time bound). *)
  let table =
    Table_printer.create
      ~header:
        [ "relations"; "parts"; "hier ms"; "exhaustive ms"; "speedup";
          "cost ratio" ]
  in
  List.iter
    (fun (relations, chains) ->
      if relations <= max_relations then begin
        let db = snowflake_db ~chains ~hub_rows:2_000 ~rows:1_000 in
        let catalog = Dqo_engine.Engine.catalog db in
        let query = snowflake_query ~chains in
        let (hi_entries, hi_stats, report), hi_samples =
          Timer.times
            ~repeats:(if relations >= 40 then 1 else 3)
            (fun () ->
              Hier.optimize_entries ~partition_max:12 Search.Deep catalog
                query)
        in
        let hi_best = Pareto.cheapest hi_entries in
        let hier_ms = Stats.median hi_samples in
        let exhaustive =
          if relations > exhaustive_cap then None
          else
            let (ex_entries, ex_stats), ex_samples =
              Timer.times
                ~repeats:(if relations >= 20 then 1 else 3)
                (fun () ->
                  Search.optimize_entries Search.Deep catalog query)
            in
            Some (Pareto.cheapest ex_entries, ex_stats, Stats.median ex_samples)
        in
        let record =
          [
            ("kind", Json.String "sweep");
            ("relations", Json.Int relations);
            ("partition_max", Json.Int 12);
            ("partitions", Json.Int (List.length report.Hier.partitions));
            ("cut_predicates", Json.Int report.Hier.cut_predicates);
            ("hier_ms", Json.Float hier_ms);
            ("hier_cost", Json.Float hi_best.Pareto.cost);
            ("hier_candidates", Json.Int hi_stats.Search.plans_considered);
          ]
          @
          match exhaustive with
          | None ->
            [
              ("exhaustive_ms", Json.Null); ("exhaustive_cost", Json.Null);
              ("speedup", Json.Null); ("cost_ratio", Json.Null);
            ]
          | Some (ex_best, ex_stats, ex_ms) ->
            let speedup = ex_ms /. Float.max 0.001 hier_ms in
            let cost_ratio =
              hi_best.Pareto.cost /. Float.max 1.0 ex_best.Pareto.cost
            in
            [
              ("exhaustive_ms", Json.Float ex_ms);
              ("exhaustive_cost", Json.Float ex_best.Pareto.cost);
              ( "exhaustive_candidates",
                Json.Int ex_stats.Search.plans_considered );
              ("speedup", Json.Float speedup);
              ("cost_ratio", Json.Float cost_ratio);
              ("cost_ok", Json.Bool (cost_ratio <= 1.1));
            ]
        in
        hier_records := Json.Obj record :: !hier_records;
        Table_printer.add_row table
          ([
             string_of_int relations;
             string_of_int (List.length report.Hier.partitions);
             Printf.sprintf "%.1f" hier_ms;
           ]
          @
          match exhaustive with
          | None -> [ "(skipped)"; "-"; "-" ]
          | Some (ex_best, _, ex_ms) ->
            [
              Printf.sprintf "%.1f" ex_ms;
              Printf.sprintf "%.1fx" (ex_ms /. Float.max 0.001 hier_ms);
              Printf.sprintf "%.3f"
                (hi_best.Pareto.cost /. Float.max 1.0 ex_best.Pareto.cost);
            ])
      end)
    snowflake_shapes;
  Table_printer.print table;
  Printf.printf
    "Hierarchical planning stays near-linear in partition count while the\n\
     exhaustive DP hits the 3^n wall; past 63 relations only the\n\
     hierarchical route plans at all.\n\n"

(* ------------------------------------------------------------------ *)
(* Serving throughput: closed-loop clients against one shared server.  *)

let serve_quantile sorted q =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. Float.of_int n)) - 1)))

let bench_serve ~threads ~clients ~requests =
  Printf.printf
    "-- Serving: closed-loop throughput, one shared %d-domain pool --\n"
    threads;
  let sql =
    "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id GROUP BY a"
  in
  let rng = Rng.create ~seed:2020 in
  let pair =
    Datagen.fk_pair ~rng ~r_rows:25_000 ~s_rows:90_000 ~r_groups:20_000
      ~r_sorted:false ~s_sorted:false ~dense:true
  in
  let db = Dqo_engine.Engine.create () in
  Dqo_engine.Engine.register db ~name:"R" pair.Datagen.r;
  Dqo_engine.Engine.register db ~name:"S" pair.Datagen.s;
  Dqo_engine.Engine.set_opts db
    { Dqo_engine.Engine.default_opts with mode = DQO; threads };
  (* One server — and therefore one pool — for the whole sweep; that is
     the point of the serving front end. *)
  let srv = Dqo_serve.Server.create ~workers:8 ~max_inflight:256 db in
  let table =
    Table_printer.create
      ~header:
        [ "clients"; "requests"; "qps"; "p50 ms"; "p95 ms"; "p99 ms" ]
  in
  List.iter
    (fun c ->
      let latencies = Array.make (c * requests) 0.0 in
      let client i =
        let session = Dqo_serve.Server.open_session srv in
        let stmt = Dqo_serve.Server.prepare session sql in
        for r = 0 to requests - 1 do
          let _, ms =
            Timer.time_ms (fun () ->
                ignore (Dqo_serve.Server.execute session stmt))
          in
          latencies.((i * requests) + r) <- ms
        done;
        Dqo_serve.Server.close_session session
      in
      let _, wall_ms =
        Timer.time_ms (fun () ->
            List.iter Thread.join
              (List.init c (fun i -> Thread.create client i)))
      in
      Array.sort Float.compare latencies;
      let q p = serve_quantile latencies p in
      let qps = Float.of_int (c * requests) /. (wall_ms /. 1000.0) in
      serve_records :=
        Json.Obj
          [
            ("clients", Json.Int c);
            ("requests_per_client", Json.Int requests);
            ("threads", Json.Int threads);
            ("qps", Json.Float qps);
            ("p50_ms", Json.Float (q 0.50));
            ("p95_ms", Json.Float (q 0.95));
            ("p99_ms", Json.Float (q 0.99));
          ]
        :: !serve_records;
      Table_printer.add_row table
        [
          string_of_int c;
          string_of_int (c * requests);
          Printf.sprintf "%.1f" qps;
          Printf.sprintf "%.2f" (q 0.50);
          Printf.sprintf "%.2f" (q 0.95);
          Printf.sprintf "%.2f" (q 0.99);
        ])
    (List.filter (fun c -> c <= clients) [ 1; 2; 4; 8 ]);
  Dqo_serve.Server.shutdown srv;
  Table_printer.print table;
  print_endline
    "Closed loop: each client waits for its result before the next\n\
     request; every result is byte-identical to the sequential engine.\n"

(* ------------------------------------------------------------------ *)
(* Cardinality feedback: misestimation workload, q-error convergence.  *)

(* S.b is drawn from Zipf(theta) over [0, 1000), so a range filter like
   [b <= 9] — which the uniform assumption estimates at ~1% — actually
   keeps a large slice of the table.  Each analysed round feeds the
   observed cardinalities back into the store; the worst per-node
   q-error should collapse towards 1 after a single round. *)
let bench_feedback ~rounds =
  Printf.printf
    "-- Cardinality feedback: q-error convergence on skewed data --\n";
  let queries =
    [
      ("filter+group", "SELECT b, COUNT(*) AS c FROM S WHERE b <= 9 GROUP BY b");
      ( "join+filter",
        "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id WHERE b <= 9 \
         GROUP BY a" );
    ]
  in
  let table =
    Table_printer.create
      ~header:
        [ "theta"; "query"; "q round 1"; "q round 2"; "q final"; "improvement" ]
  in
  List.iter
    (fun theta ->
      List.iter
        (fun (name, sql) ->
          let rng = Rng.create ~seed:2020 in
          let pair =
            Datagen.fk_pair ~rng ~r_rows:25_000 ~s_rows:90_000
              ~r_groups:20_000 ~r_sorted:false ~s_sorted:false ~dense:true
          in
          let s =
            let r_id = Dqo_data.Relation.int_col pair.Datagen.s "r_id" in
            let b =
              Datagen.zipf_keys ~rng ~n:(Int_col.length r_id) ~groups:1_000
                ~theta ()
            in
            Dqo_data.Relation.create
              (Dqo_data.Relation.schema pair.Datagen.s)
              [
                Dqo_data.Column.of_ints (Int_col.to_array r_id);
                Dqo_data.Column.of_int_col b;
              ]
          in
          let db = Dqo_engine.Engine.create () in
          Dqo_engine.Engine.register db ~name:"R" pair.Datagen.r;
          Dqo_engine.Engine.register db ~name:"S" s;
          Dqo_engine.Engine.set_opts db
            { Dqo_engine.Engine.default_opts with mode = DQO; feedback = true };
          let plan =
            Dqo_sql.Binder.plan_of_sql (Dqo_engine.Engine.catalog db) sql
          in
          let qs =
            List.init rounds (fun _ ->
                let a = Dqo_engine.Engine.explain_analyze db plan in
                Dqo_opt.Explain.max_q_error a.Dqo_engine.Engine.root)
          in
          let q_at i = List.nth qs (min i (rounds - 1)) in
          let q1 = q_at 0 and q2 = q_at 1 and qn = q_at (rounds - 1) in
          let improvement = q1 /. Float.max 1.0 q2 in
          feedback_records :=
            Json.Obj
              [
                ("theta", Json.Float theta);
                ("query", Json.String name);
                ("rounds", Json.Int rounds);
                ("q_per_round", Json.List (List.map (fun q -> Json.Float q) qs));
                ("q_before", Json.Float q1);
                ("q_after", Json.Float q2);
                ("improvement", Json.Float improvement);
                ("converged", Json.Bool (qn <= 2.0));
                ( "corrections",
                  Json.Int
                    (Dqo_cost.Feedback.size (Dqo_engine.Engine.corrections db))
                );
              ]
            :: !feedback_records;
          Table_printer.add_row table
            [
              Printf.sprintf "%.1f" theta;
              name;
              Printf.sprintf "%.2f" q1;
              Printf.sprintf "%.2f" q2;
              Printf.sprintf "%.2f" qn;
              Printf.sprintf "%.1fx" improvement;
            ])
        queries)
    [ 0.5; 1.0; 1.5 ];
  Table_printer.print table;
  print_endline
    "One analysed round is enough: the store keys corrections by\n\
     (relation, column, predicate class), so the second optimisation\n\
     already plans with observed cardinalities.\n"

(* ------------------------------------------------------------------ *)
(* Online AV advisor: the same skewed repeated workload served twice — *)
(* advisor off and advisor on — with one forced materialisation tick   *)
(* between the two measurement phases of each arm.                     *)

(* The hot statement replays a group-by the advisor can answer from a
   materialised grouping result; one request in [cold_every] is a join
   it cannot, so the tick has to pick winners from a mixed observed
   workload.  The cold tail stays under 5% of requests, keeping the
   workload p95 inside the hot band the materialisation accelerates. *)
let bench_advisor ~requests =
  Printf.printf
    "-- Advisor: self-tuning AVs on a skewed repeated workload \
     (%d requests/phase) --\n"
    requests;
  let hot_sql = "SELECT b, COUNT(*) AS c FROM S GROUP BY b" in
  let cold_sql =
    "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id GROUP BY a"
  in
  let cold_every = 25 in
  let budget =
    Dqo_advisor.Advisor.default_config.Dqo_advisor.Advisor.budget_bytes
  in
  let make_engine () =
    let rng = Rng.create ~seed:2020 in
    let pair =
      Datagen.fk_pair ~rng ~r_rows:25_000 ~s_rows:90_000 ~r_groups:20_000
        ~r_sorted:false ~s_sorted:false ~dense:true
    in
    let s =
      let r_id = Dqo_data.Relation.int_col pair.Datagen.s "r_id" in
      let b =
        Datagen.zipf_keys ~rng ~n:(Int_col.length r_id) ~groups:1_000
          ~theta:1.0 ()
      in
      Dqo_data.Relation.create
        (Dqo_data.Relation.schema pair.Datagen.s)
        [
          Dqo_data.Column.of_ints (Int_col.to_array r_id);
          Dqo_data.Column.of_int_col b;
        ]
    in
    let db = Dqo_engine.Engine.create () in
    Dqo_engine.Engine.register db ~name:"R" pair.Datagen.r;
    Dqo_engine.Engine.register db ~name:"S" s;
    Dqo_engine.Engine.set_opts db
      { Dqo_engine.Engine.default_opts with mode = DQO };
    db
  in
  (* Each arm gets a fresh engine over byte-identical data (same seed),
     its own server, and two measurement phases; the advisor arm forces
     one tick between them.  Digests certify that the physical-design
     change never altered any result. *)
  let run_arm ~advisor =
    let db = make_engine () in
    let cfg = if advisor then Some Dqo_advisor.Advisor.default_config
      else None in
    let srv =
      Dqo_serve.Server.create ~workers:4 ~max_inflight:256 ?advisor:cfg
        ~advisor_interval:0.0 db
    in
    let session = Dqo_serve.Server.open_session srv in
    let hot = Dqo_serve.Server.prepare session hot_sql in
    let cold = Dqo_serve.Server.prepare session cold_sql in
    let digests = Hashtbl.create 4 in
    let digest_ok = ref true in
    let phase () =
      let lat = Array.make requests 0.0 in
      for i = 0 to requests - 1 do
        let stmt, key =
          if (i + 1) mod cold_every = 0 then (cold, "cold")
          else (hot, "hot")
        in
        let rel, ms =
          Timer.time_ms (fun () -> Dqo_serve.Server.execute session stmt)
        in
        lat.(i) <- ms;
        let d = Dqo_serve.Wire.digest rel in
        match Hashtbl.find_opt digests key with
        | None -> Hashtbl.replace digests key d
        | Some d0 -> if not (String.equal d0 d) then digest_ok := false
      done;
      Array.sort Float.compare lat;
      lat
    in
    let before = phase () in
    let report =
      if advisor then Dqo_serve.Server.advisor_tick srv else None
    in
    let after = phase () in
    Dqo_serve.Server.close_session session;
    Dqo_serve.Server.shutdown srv;
    (before, after, report, digests, !digest_ok)
  in
  let b_off, a_off, _, d_off, ok_off = run_arm ~advisor:false in
  let b_on, a_on, report, d_on, ok_on = run_arm ~advisor:true in
  let cross_arm_ok =
    List.for_all
      (fun k ->
        match (Hashtbl.find_opt d_off k, Hashtbl.find_opt d_on k) with
        | Some x, Some y -> String.equal x y
        | _ -> false)
      [ "hot"; "cold" ]
  in
  let digest_ok = ok_off && ok_on && cross_arm_ok in
  let installed, evicted, candidates, av_bytes =
    match report with
    | Some r ->
      ( List.length r.Dqo_advisor.Advisor.installed,
        List.length r.Dqo_advisor.Advisor.evicted,
        r.Dqo_advisor.Advisor.candidates_considered,
        r.Dqo_advisor.Advisor.av_bytes )
    | None -> (0, 0, 0, 0)
  in
  let q arr p = serve_quantile arr p in
  (* Headline number: the served workload's p95 after the advisor's
     first tick versus the same phase of the advisor-off arm. *)
  let improvement = q a_off 0.95 /. Float.max 0.001 (q a_on 0.95) in
  let table =
    Table_printer.create ~header:[ "arm"; "phase"; "p50 ms"; "p95 ms" ]
  in
  List.iter
    (fun (arm, ph, lat) ->
      Table_printer.add_row table
        [
          arm; ph;
          Printf.sprintf "%.2f" (q lat 0.50);
          Printf.sprintf "%.2f" (q lat 0.95);
        ])
    [
      ("advisor off", "before", b_off);
      ("advisor off", "after", a_off);
      ("advisor on", "before", b_on);
      ("advisor on", "after", a_on);
    ];
  Table_printer.print table;
  Printf.printf
    "p95 improvement after first tick (vs advisor off): %.1fx\n\
     tick: %d installed, %d evicted of %d candidates; %d AV bytes \
     resident (budget %d, %s); digests %s\n\n"
    improvement installed evicted candidates av_bytes budget
    (if av_bytes <= budget then "within" else "OVER")
    (if digest_ok then "identical across arms and phases" else "DIVERGED");
  advisor_records :=
    Json.Obj
      [
        ("requests_per_phase", Json.Int requests);
        ("hot_sql", Json.String hot_sql);
        ("cold_sql", Json.String cold_sql);
        ("cold_every", Json.Int cold_every);
        ("p50_ms_off_before", Json.Float (q b_off 0.50));
        ("p95_ms_off_before", Json.Float (q b_off 0.95));
        ("p50_ms_off_after", Json.Float (q a_off 0.50));
        ("p95_ms_off_after", Json.Float (q a_off 0.95));
        ("p50_ms_on_before", Json.Float (q b_on 0.50));
        ("p95_ms_on_before", Json.Float (q b_on 0.95));
        ("p50_ms_on_after", Json.Float (q a_on 0.50));
        ("p95_ms_on_after", Json.Float (q a_on 0.95));
        ("p95_improvement", Json.Float improvement);
        ("installed", Json.Int installed);
        ("evicted", Json.Int evicted);
        ("candidates_considered", Json.Int candidates);
        ("av_bytes", Json.Int av_bytes);
        ("budget_bytes", Json.Int budget);
        ("within_budget", Json.Bool (av_bytes <= budget));
        ("digests_identical", Json.Bool digest_ok);
      ]
    :: !advisor_records

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per reproduced table.      *)

let bechamel ~rows =
  print_endline "-- Bechamel micro-benchmarks --";
  let open Bechamel in
  let rng = Rng.create ~seed:71 in
  let groups = 4_096 in
  let unsorted =
    Datagen.grouping ~rng ~n:rows ~groups ~sorted:false ~dense:true ()
  in
  let sorted =
    Datagen.grouping ~rng ~n:rows ~groups ~sorted:true ~dense:true ()
  in
  let sparse =
    Datagen.grouping ~rng ~n:rows ~groups ~sorted:false ~dense:false ()
  in
  let values = Int_col.const rows 1 in
  let grouping_test name alg dataset =
    Test.make ~name
      (Staged.stage (fun () -> Grouping.run alg ~dataset ~values))
  in
  let fig4 =
    Test.make_grouped ~name:"figure4"
      [
        grouping_test "HG/unsorted-dense" Grouping.HG unsorted;
        grouping_test "SPHG/unsorted-dense" Grouping.SPHG unsorted;
        grouping_test "OG/sorted-dense" Grouping.OG sorted;
        grouping_test "SOG/unsorted-dense" Grouping.SOG unsorted;
        grouping_test "BSG/unsorted-sparse" Grouping.BSG sparse;
      ]
  in
  let catalog = figure5_catalog ~r_sorted:false ~s_sorted:false ~dense:true in
  let fig5 =
    Test.make_grouped ~name:"figure5"
      [
        Test.make ~name:"SQO"
          (Staged.stage (fun () ->
               Search.optimize Search.Shallow catalog figure5_query));
        Test.make ~name:"DQO"
          (Staged.stage (fun () ->
               Search.optimize Search.Deep catalog figure5_query));
      ]
  in
  let tests = Test.make_grouped ~name:"dqo" [ fig4; fig5 ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows_out = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows_out := (name, est) :: !rows_out
      | Some _ | None -> ())
    results;
  List.iter
    (fun (name, est) -> Printf.printf "  %-32s %14.0f ns/run\n" name est)
    (List.sort compare !rows_out);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Paper scale: the §4.1 sweeps at 100M rows, run on both storage      *)
(* backends with digest parity enforced between them.                  *)

(* Deterministic order-independent-enough digests: grouping results are
   normalised by key first; join results are digested in emission
   order, which every algorithm fixes deterministically. *)
let fnv_fold h x =
  let h = h lxor (x land 0xffff) in
  let h = h * 0x100000001b3 in
  let h = h lxor ((x lsr 16) land 0xffffffff) in
  let h = h * 0x100000001b3 in
  h lxor (x lsr 48)

let digest_hex h = Printf.sprintf "%016x" (h land max_int)

let digest_grouping (g : Dqo_exec.Group_result.t) =
  let h =
    List.fold_left
      (fun h (k, (c, s)) -> fnv_fold (fnv_fold (fnv_fold h k) c) s)
      0x3bf29ce484222325
      (Dqo_exec.Group_result.to_sorted_alist g)
  in
  digest_hex h

let digest_join (j : Join.result) =
  let h = ref 0x3bf29ce484222325 in
  Array.iter (fun x -> h := fnv_fold !h x) j.Join.left;
  Array.iter (fun x -> h := fnv_fold !h x) j.Join.right;
  digest_hex !h

(* The paper's 4-byte unsigned keys: flat [int array] vs Bigarray
   morsel chunks.  Same RNG consumption, so element-identical data. *)
let paper_backends =
  [ (Int_col.Flat, "flat"); (Int_col.Chunked Int_col.W32, "chunked32") ]

let parity_failures = ref 0

let check_parity ~what digests =
  match digests with
  | [] | [ _ ] -> ()
  | (d0, _) :: rest ->
    List.iter
      (fun (d, backend) ->
        if not (String.equal d d0) then begin
          incr parity_failures;
          Printf.printf "  DIGEST MISMATCH %s: %s != %s (%s)\n" what d d0
            backend
        end)
      rest

let record_paper ~section ~shape ~rows ~cardinality ~algorithm ~backend ~ms
    ~digest ~threads =
  paper_scale_records :=
    Json.Obj
      [
        ("section", Json.String section);
        ("shape", Json.String shape);
        ("rows", Json.Int rows);
        ("cardinality", Json.Int cardinality);
        ("algorithm", Json.String algorithm);
        ("backend", Json.String backend);
        ("threads", Json.Int threads);
        ("ms", Json.Float ms);
        ("ns_per_row", Json.Float (ms *. 1e6 /. Float.of_int rows));
        ("digest", Json.String digest);
      ]
    :: !paper_scale_records

(* Grouping at paper scale: the generalist (HG) against each shape's
   specialist, per backend.  SOG is excluded — its O(n log n) sort
   dominates everything at 100M rows and adds nothing to the crossover
   story (the 2M sweep still covers it). *)
let paper_scale_grouping ~rows ~threads =
  Printf.printf
    "-- Paper scale: sorted x dense grouping sweep, %d rows, both \
     backends --\n"
    rows;
  let counts =
    List.filter (fun g -> g <= rows) [ 10; 10_000; 1_000_000 ]
  in
  let table =
    Table_printer.create
      ~header:[ "shape"; "#groups"; "algorithm"; "backend"; "ms"; "ns/row" ]
  in
  List.iter
    (fun (sorted, dense) ->
      let shape =
        Printf.sprintf "%s-%s"
          (if sorted then "sorted" else "unsorted")
          (if dense then "dense" else "sparse")
      in
      let algs =
        (Grouping.HG :: (if dense then [ Grouping.SPHG ] else []))
        @ (if sorted then [ Grouping.OG ] else [])
        @ if dense then [] else [ Grouping.BSG ]
      in
      List.iter
        (fun groups ->
          let values = Int_col.const rows 1 in
          let digests = Hashtbl.create 8 in
          List.iter
            (fun (backend, bname) ->
              let rng = Rng.create ~seed:(groups + 1) in
              let dataset =
                Datagen.grouping ~backend ~rng ~n:rows ~groups ~sorted ~dense
                  ()
              in
              List.iter
                (fun alg ->
                  let result = ref None in
                  let _, ms =
                    Timer.time_ms (fun () ->
                        result := Some (Grouping.run alg ~dataset ~values))
                  in
                  let d = digest_grouping (Option.get !result) in
                  let name = Grouping.name alg in
                  Hashtbl.replace digests name
                    ((d, bname)
                    :: Option.value ~default:[]
                         (Hashtbl.find_opt digests name));
                  record_paper ~section:"grouping" ~shape ~rows
                    ~cardinality:groups ~algorithm:name ~backend:bname ~ms
                    ~digest:d ~threads:1;
                  Table_printer.add_row table
                    [
                      shape;
                      string_of_int groups;
                      name;
                      bname;
                      Printf.sprintf "%.0f" ms;
                      Printf.sprintf "%.1f" (ms *. 1e6 /. Float.of_int rows);
                    ])
                algs;
              (* The parallel path at the sweep's --threads setting:
                 partition-based grouping over the NUMA-style morsel
                 scatter, digest-checked against the same backend's
                 sequential HG and across backends. *)
              if (not sorted) && dense then begin
                Dqo_par.Pool.with_pool ~domains:threads (fun pool ->
                    let result = ref None in
                    let _, ms =
                      Timer.time_ms (fun () ->
                          result :=
                            Some
                              (Dqo_par.Par_group.partition_based pool
                                 ~keys:dataset.Datagen.keys ~values ()))
                    in
                    let d = digest_grouping (Option.get !result) in
                    let name = Printf.sprintf "par-HG@%d" threads in
                    Hashtbl.replace digests "HG"
                      ((d, bname ^ "/" ^ name)
                      :: Option.value ~default:[]
                           (Hashtbl.find_opt digests "HG"));
                    record_paper ~section:"grouping" ~shape ~rows
                      ~cardinality:groups ~algorithm:name ~backend:bname ~ms
                      ~digest:d ~threads;
                    Table_printer.add_row table
                      [
                        shape;
                        string_of_int groups;
                        name;
                        bname;
                        Printf.sprintf "%.0f" ms;
                        Printf.sprintf "%.1f" (ms *. 1e6 /. Float.of_int rows);
                      ])
              end)
            paper_backends;
          Hashtbl.iter
            (fun name ds ->
              check_parity
                ~what:
                  (Printf.sprintf "grouping %s groups=%d %s" shape groups
                     name)
                ds)
            digests)
        counts)
    [ (true, true); (true, false); (false, true); (false, false) ];
  Table_printer.print table

(* Join crossover at paper scale: build-side cardinality sweep, probe
   side at full scale.  Mirrors the grouping story — the binary-search
   specialist beats the generalist hash join only while the build side
   is tiny; the report states where the lines cross. *)
let paper_scale_join ~rows =
  Printf.printf
    "-- Paper scale: join crossover sweep, %d probe rows, both backends \
     --\n"
    rows;
  let build_sizes =
    List.filter (fun r -> r * 4 <= rows) [ 16; 1_024; 65_536; 1_048_576 ]
  in
  let table =
    Table_printer.create
      ~header:[ "build rows"; "algorithm"; "backend"; "ms"; "ns/probe row" ]
  in
  let hj_ms = Hashtbl.create 8 and bsj_ms = Hashtbl.create 8 in
  List.iter
    (fun r_rows ->
      let digests = Hashtbl.create 8 in
      List.iter
        (fun (backend, bname) ->
          let rng = Rng.create ~seed:(4242 + r_rows) in
          let build, probe =
            Datagen.fk_keys ~backend ~rng ~r_rows ~s_rows:rows
              ~r_sorted:false ~s_sorted:false ~dense:true ()
          in
          List.iter
            (fun alg ->
              let result = ref None in
              let _, ms =
                Timer.time_ms (fun () ->
                    result := Some (Join.run alg ~left:build ~right:probe))
              in
              let d = digest_join (Option.get !result) in
              result := None;
              let name = Join.name alg in
              if String.equal bname "flat" then begin
                if alg = Join.HJ then Hashtbl.replace hj_ms r_rows ms;
                if alg = Join.BSJ then Hashtbl.replace bsj_ms r_rows ms
              end;
              Hashtbl.replace digests name
                ((d, bname)
                :: Option.value ~default:[] (Hashtbl.find_opt digests name));
              record_paper ~section:"join" ~shape:"unsorted-dense" ~rows
                ~cardinality:r_rows ~algorithm:name ~backend:bname ~ms
                ~digest:d ~threads:1;
              Table_printer.add_row table
                [
                  string_of_int r_rows;
                  name;
                  bname;
                  Printf.sprintf "%.0f" ms;
                  Printf.sprintf "%.1f" (ms *. 1e6 /. Float.of_int rows);
                ])
            [ Join.HJ; Join.SPHJ; Join.BSJ ])
        paper_backends;
      Hashtbl.iter
        (fun name ds ->
          check_parity
            ~what:(Printf.sprintf "join build=%d %s" r_rows name)
            ds)
        digests)
    build_sizes;
  Table_printer.print table;
  let last_bsj_win =
    List.fold_left
      (fun acc r ->
        match (Hashtbl.find_opt hj_ms r, Hashtbl.find_opt bsj_ms r) with
        | Some hj, Some bsj when bsj < hj -> Some r
        | _ -> acc)
      None build_sizes
  in
  (match last_bsj_win with
  | Some r ->
    Printf.printf
      "  BSJ beats HJ up to a build side of %d rows — same crossover \
       shape as the 2M-row grouping zoom-in.\n"
      r
  | None -> print_endline "  HJ won at every build-side size.");
  print_newline ()

let paper_scale ~rows ~threads =
  paper_scale_grouping ~rows ~threads;
  paper_scale_join ~rows;
  if !parity_failures = 0 then
    Printf.printf
      "digest parity: OK (flat vs chunked32 identical across the sweep, \
       threads=%d)\n\n"
      threads
  else begin
    Printf.printf "digest parity: %d FAILURES\n" !parity_failures;
    exit 2
  end

(* ------------------------------------------------------------------ *)

let () =
  let rows = ref None in
  let figures = ref [] in
  let table = ref None in
  let abl = ref None in
  let run_bechamel = ref false in
  let run_scaling = ref false in
  let run_opt_scaling = ref false in
  let run_hier = ref false in
  let hier_exhaustive_cap = ref 24 in
  let hier_max_relations = ref 80 in
  let run_serve = ref false in
  let run_feedback = ref false in
  let run_advisor = ref false in
  let run_paper_scale = ref false in
  let feedback_rounds = ref 3 in
  let clients = ref 4 in
  let requests = ref 50 in
  let threads = ref 1 in
  let all = ref true in
  let json_path = ref None in
  let spec =
    [
      ( "--rows",
        Arg.Int (fun n -> rows := Some n),
        "N  dataset size (default 2M; 100M under --paper-scale)" );
      ( "--paper-scale",
        Arg.Unit
          (fun () ->
            run_paper_scale := true;
            all := false),
        "  run the paper-scale grouping and join crossover sweeps on both \
         storage backends with digest parity checks (default 100M rows)" );
      ( "--threads",
        Arg.Set_int threads,
        "N  max domains for the parallel-scaling sweep (default 1)" );
      ( "--scaling",
        Arg.Unit
          (fun () ->
            run_scaling := true;
            all := false),
        "  run the parallel-scaling sweep (domains 1,2,4,8 up to --threads)" );
      ( "--opt-scaling",
        Arg.Unit
          (fun () ->
            run_opt_scaling := true;
            all := false),
        "  run the optimiser-scaling sweep: parallel DP plan search \
         (domains 1,2,4,8 up to --threads)" );
      ( "--hier",
        Arg.Unit
          (fun () ->
            run_hier := true;
            all := false),
        "  run the hierarchical-planning sweep: graph-partitioned DP vs \
         exhaustive on 16/24/40/80-relation snowflakes, plus the \
         10-relation one-partition identity check" );
      ( "--hier-exhaustive-cap",
        Arg.Set_int hier_exhaustive_cap,
        "N  largest snowflake the --hier sweep also plans exhaustively \
         (default 24; the 3^n wall is the point)" );
      ( "--hier-max-relations",
        Arg.Set_int hier_max_relations,
        "N  largest snowflake the --hier sweep plans at all (default 80; \
         lower it to bound CI time)" );
      ( "--figure",
        Arg.Int
          (fun i ->
            figures := !figures @ [ i ];
            all := false),
        "N  reproduce figure N (4 or 5); may be repeated" );
      ( "--table",
        Arg.Int
          (fun i ->
            table := Some i;
            all := false),
        "N  reproduce table N (2)" );
      ( "--ablation",
        Arg.String
          (fun s ->
            abl := Some s;
            all := false),
        "NAME  run ablation (hash|table|avsp|opttime|cracking|skew|online|layout)" );
      ( "--serve",
        Arg.Unit
          (fun () ->
            run_serve := true;
            all := false),
        "  run the closed-loop serving benchmark (clients x requests sweep)" );
      ( "--clients",
        Arg.Set_int clients,
        "N  max concurrent clients for --serve (sweep 1,2,4,8 up to N; \
         default 4)" );
      ( "--requests",
        Arg.Set_int requests,
        "N  closed-loop requests per client for --serve (default 50)" );
      ( "--feedback",
        Arg.Unit
          (fun () ->
            run_feedback := true;
            all := false),
        "  run the cardinality-feedback convergence sweep (q-error per \
         round on zipf-skewed data)" );
      ( "--feedback-rounds",
        Arg.Set_int feedback_rounds,
        "N  analysed rounds per query for --feedback (default 3)" );
      ( "--advisor",
        Arg.Unit
          (fun () ->
            run_advisor := true;
            all := false),
        "  run the online AV-advisor sweep (p50/p95 before/after the \
         first materialisation tick, advisor on vs off; --requests sets \
         the phase length)" );
      ( "--bechamel",
        Arg.Unit
          (fun () ->
            run_bechamel := true;
            all := false),
        "  run the Bechamel micro-benchmarks" );
      ( "--json",
        Arg.String (fun p -> json_path := Some p),
        "PATH  also write the recorded measurements as JSON" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench/main.exe - regenerate the paper's tables and figures";
  let rows =
    match !rows with
    | Some n -> n
    | None -> if !run_paper_scale then 100_000_000 else 2_000_000
  in
  if !run_paper_scale then paper_scale ~rows ~threads:(max 1 !threads);
  List.iter
    (fun f ->
      match f with
      | 4 -> figure4 ~rows
      | 5 -> figure5 ()
      | n -> Printf.printf "unknown figure %d (have: 4, 5)\n" n)
    !figures;
  (match !table with
  | Some 2 -> table2_check ~rows:(min rows 2_000_000)
  | Some n -> Printf.printf "unknown table %d (have: 2)\n" n
  | None -> ());
  (match !abl with
  | Some "hash" -> ablation_hash ~rows:(min rows 4_000_000)
  | Some "table" -> ablation_table ~rows:(min rows 4_000_000)
  | Some "avsp" -> ablation_avsp ()
  | Some "opttime" -> ablation_opttime ()
  | Some "cracking" -> ablation_cracking ()
  | Some "skew" -> ablation_skew ~rows:(min rows 4_000_000)
  | Some "online" -> ablation_online ~rows:(min rows 4_000_000)
  | Some "layout" -> ablation_layout ~rows:(min rows 4_000_000)
  | Some other -> Printf.printf "unknown ablation %s\n" other
  | None -> ());
  if !run_scaling then parallel_scaling ~rows:(min rows 4_000_000) ~threads:!threads;
  if !run_opt_scaling then optimizer_scaling ~threads:!threads;
  if !run_hier then
    bench_hier ~exhaustive_cap:!hier_exhaustive_cap
      ~max_relations:!hier_max_relations;
  if !run_serve then
    bench_serve ~threads:(max 1 !threads) ~clients:!clients
      ~requests:!requests;
  if !run_feedback then bench_feedback ~rounds:(max 2 !feedback_rounds);
  if !run_advisor then bench_advisor ~requests:(max 25 !requests);
  if !run_bechamel then bechamel ~rows:(min rows 200_000);
  if !all then begin
    figure4 ~rows;
    figure5 ();
    table2_check ~rows:(min rows 2_000_000);
    ablation_hash ~rows:(min rows 4_000_000);
    ablation_table ~rows:(min rows 4_000_000);
    ablation_avsp ();
    ablation_opttime ();
    ablation_cracking ();
    ablation_skew ~rows:(min rows 4_000_000);
    ablation_online ~rows:(min rows 4_000_000);
    ablation_layout ~rows:(min rows 4_000_000);
    parallel_scaling ~rows:(min rows 4_000_000) ~threads:!threads;
    optimizer_scaling ~threads:!threads;
    bench_hier ~exhaustive_cap:!hier_exhaustive_cap
      ~max_relations:!hier_max_relations;
    bench_feedback ~rounds:(max 2 !feedback_rounds);
    bechamel ~rows:(min rows 200_000)
  end;
  match !json_path with
  | None -> ()
  | Some path ->
    (* schema_version 10: drops the "learned" records and one
       per-level pruning count from "optimizer_scaling" (v9 added
       "hierarchical_planning"; v8 per-level stats in
       "optimizer_scaling"; v7 "paper_scale"; v6 "advisor"; v5
       "feedback"; v4 "optimizer_scaling"; v3 "serving"; v2 "threads"
       and "parallel_scaling"). *)
    Json.to_file path
      (Json.Obj
         [
           ("schema_version", Json.Int 10);
           ("rows", Json.Int rows);
           ("threads", Json.Int !threads);
           ("figure4", Json.List (List.rev !fig4_records));
           ("figure5", Json.List (List.rev !fig5_records));
           ("parallel_scaling", Json.List (List.rev !scaling_records));
           ("optimizer_scaling", Json.List (List.rev !opt_scaling_records));
           ("hierarchical_planning", Json.List (List.rev !hier_records));
           ("serving", Json.List (List.rev !serve_records));
           ("feedback", Json.List (List.rev !feedback_records));
           ("advisor", Json.List (List.rev !advisor_records));
           ("paper_scale", Json.List (List.rev !paper_scale_records));
         ]);
    Printf.printf "measurements written to %s\n" path
