(* Seeded inputs: the tables each workload registers and the statements
   its client sends.  A statement is kept as a spec (tables, join edges,
   filters, grouping) from which both its SQL text and the reference
   oracle's evaluation are derived, so the two cannot drift apart.
   Column names are unique across every table of a workload, so the SQL
   never needs qualified names. *)

type table = { name : string; cols : (string * int array) list }

type pred = Le of int | Ge of int

type agg = Count | Sum of string

type stmt = {
  from : string;
  joins : (string * string * string) list;
      (* joined table, column of an earlier table, column of the joined one *)
  where : (string * pred) list;
  key : string;
  aggs : agg list;
  shape : string;  (* statement family, for per-shape oracle coverage *)
  rels : int;
}

let pred_sql = function
  | Le n -> Printf.sprintf "<= %d" n
  | Ge n -> Printf.sprintf ">= %d" n

let sql st =
  let agg_sql i = function
    | Count -> Printf.sprintf "COUNT(*) AS c%d" i
    | Sum c -> Printf.sprintf "SUM(%s) AS s%d" c i
  in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "SELECT %s, %s FROM %s" st.key
       (String.concat ", " (List.mapi agg_sql st.aggs))
       st.from);
  List.iter
    (fun (t, l, r) -> Buffer.add_string b (Printf.sprintf " JOIN %s ON %s = %s" t l r))
    st.joins;
  List.iteri
    (fun i (c, p) ->
      Buffer.add_string b (if i = 0 then " WHERE " else " AND ");
      Buffer.add_string b (c ^ " " ^ pred_sql p))
    st.where;
  Buffer.add_string b (" GROUP BY " ^ st.key);
  Buffer.contents b

(* The engine gets its own copy: the oracle reads these arrays, and a
   sorted-projection view may physically reorder a stored relation. *)
let relation t =
  Dqo_data.Relation.create
    (Dqo_data.Schema.of_names
       (List.map (fun (c, _) -> (c, Dqo_data.Schema.T_int)) t.cols))
    (List.map (fun (_, a) -> Dqo_data.Column.of_ints (Array.copy a)) t.cols)

(* One independent stream per (seed, purpose), so adding a draw to one
   generator never shifts another's inputs. *)
let rng seed purpose = Random.State.make [| seed; Hashtbl.hash purpose |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let uniform rng n bound = Array.init n (fun _ -> Random.State.int rng bound)

(* [n] keys over [0, groups), each value present at least once, in
   random order. *)
let covering rng n groups =
  shuffle rng (Array.init n (fun i -> if i < groups then i else Random.State.int rng groups))

(* [n] distinct values drawn from [0, 2^30). *)
let sparse_distinct rng n =
  let seen = Hashtbl.create n in
  Array.init n (fun _ ->
      let rec draw () =
        let v = Random.State.bits rng in
        if Hashtbl.mem seen v then draw () else (Hashtbl.add seen v (); v)
      in
      draw ())

(* Zipf(theta) over ranks [0, groups) by inverse CDF; rank 0 is the most
   frequent value. *)
let zipf rng n groups theta =
  let cdf = Array.make groups 0.0 in
  let acc = ref 0.0 in
  for i = 0 to groups - 1 do
    acc := !acc +. (1.0 /. Float.pow (Float.of_int (i + 1)) theta);
    cdf.(i) <- !acc
  done;
  Array.init n (fun _ ->
      let u = Random.State.float rng !acc in
      let lo = ref 0 and hi = ref (groups - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) < u then lo := mid + 1 else hi := mid
      done;
      !lo)

(* --- sec43-serve: the paper's §4.3 foreign-key pair, dense, unsorted --- *)

let r_rows = 25_000
let s_rows = 90_000
let r_groups = 20_000

let sec43_tables seed =
  let g = rng seed "sec43" in
  let id = shuffle g (Array.init r_rows Fun.id) in
  let a = covering g r_rows r_groups in
  let r_id = uniform g s_rows r_rows in
  let b = uniform g s_rows 1_000 in
  [ { name = "R"; cols = [ ("id", id); ("a", a) ] };
    { name = "S"; cols = [ ("r_id", r_id); ("b", b) ] } ]

let sec43_stmt =
  { from = "R"; joins = [ ("S", "id", "r_id") ]; where = []; key = "a";
    aggs = [ Count ]; shape = "sec43-join-group"; rels = 2 }

(* --- skew-adaptive: sparse keys, Zipf(1.0) S.b ------------------------- *)

(* Half the §4.3 sizes: the sparse join+group then takes about
   40 ms on its own, and a run serves over a thousand requests. *)
let skew_r_rows = 12_500
let skew_s_rows = 45_000
let skew_r_groups = 10_000

(* The sets of sparse key and group values come from a fixed stream, the
   same for every seed; the seed orders and pairs them and draws S.
   Hash join and hash grouping costs depend on the value set through
   collisions: with a value set drawn per seed, the join's median CPU
   time moved by up to 18% from one seed to the next. *)
let skew_tables seed =
  let g = rng seed "skew" in
  let id = shuffle g (sparse_distinct (rng 0 "skew-keys") skew_r_rows) in
  let groups = sparse_distinct (rng 0 "skew-groups") skew_r_groups in
  let a = Array.map (fun i -> groups.(i)) (covering g skew_r_rows skew_r_groups) in
  let r_id = Array.map (fun i -> id.(i)) (uniform g skew_s_rows skew_r_rows) in
  let b = zipf g skew_s_rows 1_000 1.0 in
  [ { name = "R"; cols = [ ("id", id); ("a", a) ] };
    { name = "S"; cols = [ ("r_id", r_id); ("b", b) ] } ]

let skew_stmts =
  [ { sec43_stmt with shape = "skew-sparse-join-group" };
    (* Uniform estimate 1%; Zipf(1.0) puts ~39% of S at b <= 9. *)
    { from = "S"; joins = []; where = [ ("b", Le 9) ]; key = "b";
      aggs = [ Count ]; shape = "skew-filter-group"; rels = 1 };
    (* Answerable from a materialised grouping result on S.b. *)
    { from = "S"; joins = []; where = []; key = "b"; aggs = [ Count ];
      shape = "skew-group"; rels = 1 } ]

(* --- plan-wide: fk->pk chains T0->T1->..., and stars around F --------- *)

(* Two columns per chain table: planning cost grows with the columns a
   subset's plans carry properties for, and two keep a 10-relation
   chain near half a second on one core. *)
let chain_tables = 17
let wide_rows = 2_000
let star_arms = 6
let value_groups = 50

let wide_tables seed =
  let g = rng seed "wide" in
  let t i =
    { name = Printf.sprintf "T%d" i;
      cols =
        [ (Printf.sprintf "k%d" i, shuffle g (Array.init wide_rows Fun.id));
          (Printf.sprintf "f%d" i, uniform g wide_rows wide_rows) ] }
  in
  let fact =
    { name = "F";
      cols =
        List.init star_arms (fun j ->
            (Printf.sprintf "g%d" (j + 1), uniform g (2 * wide_rows) wide_rows))
        @ [ ("vf", uniform g (2 * wide_rows) value_groups) ] }
  in
  List.init chain_tables t @ [ fact ]

let pick g l = List.nth l (Random.State.int g (List.length l))

(* Filters on two or three of the statement's columns, each keeping
   between a fifth and the whole of its (uniform) domain.  [classes]
   groups the columns a join equates, and at most one column of a
   class is filtered: two filters on equated columns can contradict
   each other ([f1 <= 824 AND k2 >= 1080] over [f1 = k2]) and empty
   the statement, and the engine fails on such empty join inputs (see
   README.md, "Known defect"), which a benchmark cannot measure. *)
let wide_filters g classes =
  let picked = shuffle g (Array.of_list classes) in
  List.init (min (2 + Random.State.int g 2) (Array.length picked)) (fun i ->
      let lit = (wide_rows / 5) + Random.State.int g (wide_rows * 4 / 5) in
      (pick g picked.(i), if Random.State.bool g then Le lit else Ge (wide_rows - lit)))

let chain_stmt g ~rels =
  let start = Random.State.int g (chain_tables - rels + 1) in
  let idx = List.init rels (fun i -> start + i) in
  let cols = List.concat_map (fun i -> [ Printf.sprintf "k%d" i; Printf.sprintf "f%d" i ]) idx in
  (* k_start, then f(i-1) = k(i) for each join, then f_last. *)
  let classes =
    [ Printf.sprintf "k%d" start ]
    :: List.map (fun i -> [ Printf.sprintf "f%d" (i - 1); Printf.sprintf "k%d" i ]) (List.tl idx)
    @ [ [ Printf.sprintf "f%d" (start + rels - 1) ] ]
  in
  { from = Printf.sprintf "T%d" start;
    joins =
      List.tl idx
      |> List.map (fun i ->
             (Printf.sprintf "T%d" i, Printf.sprintf "f%d" (i - 1), Printf.sprintf "k%d" i));
    where = wide_filters g classes;
    key = pick g cols;
    aggs = [ Count; Sum (pick g cols) ];
    shape = (if rels > 16 then "chain-hier" else "chain"); rels }

let star_stmt g ~rels =
  let arms =
    shuffle g (Array.init star_arms (fun j -> j + 1))
    |> Array.to_list |> List.filteri (fun i _ -> i < rels - 1) |> List.sort compare
  in
  let arm_cols = List.map (Printf.sprintf "k%d") arms in
  { from = "F";
    joins =
      List.map
        (fun j -> (Printf.sprintf "T%d" j, Printf.sprintf "g%d" j, Printf.sprintf "k%d" j))
        arms;
    where = wide_filters g (List.map (fun c -> [ c ]) arm_cols);
    key = pick g ("vf" :: arm_cols);
    aggs = [ Count ];
    shape = "star"; rels }

(* A fixed rotation of shapes in a fixed order, so every seed serves
   the same mix of join sizes and only literals, join positions and
   keys vary.  Shares are set so that p50 falls inside the 7-relation
   chains (30-65% of requests) and p95 inside the 10-relation chains
   (the top tenth), not on a boundary between two shapes; small joins
   dominate, so a run times enough statements for its p95.  The
   17-relation chain (above the engine's default [hier_threshold] of
   16, so it plans hierarchically) closes every second rotation. *)
let wide_rotation =
  let open List in
  concat
    [ init 12 (fun _ -> `Chain 6); init 14 (fun _ -> `Chain 7);
      init 4 (fun _ -> `Star 6); init 3 (fun _ -> `Chain 8);
      init 2 (fun _ -> `Chain 9); init 1 (fun _ -> `Star 7);
      init 4 (fun _ -> `Chain 10) ]

(* The stream of distinct plan-wide statements of this seed. *)
let wide_stream seed =
  let g = rng seed "wide-sql" in
  let rotation = Array.of_list wide_rotation in
  let order = shuffle (rng 0 "wide-order") (Array.init (Array.length rotation) Fun.id) in
  let seen = Hashtbl.create 64 in
  let i = ref 0 in
  let rec next () =
    let n = Array.length rotation in
    let shape =
      if !i mod (2 * n) = (2 * n) - 1 then `Chain 17 else rotation.(order.(!i mod n))
    in
    let st =
      match shape with
      | `Chain rels -> chain_stmt g ~rels
      | `Star rels -> star_stmt g ~rels
    in
    let text = sql st in
    if Hashtbl.mem seen text then next ()
    else (
      Hashtbl.add seen text ();
      incr i;
      (st, text))
  in
  next
