type column = { dense : bool; lo : int; hi : int; distinct : int }

type t = {
  sorted_by : string option;
  clustered_by : string option;
  columns : (string * column) list;
  co_ordered : (string * string) list;
}

let none =
  { sorted_by = None; clustered_by = None; columns = []; co_ordered = [] }

(* The suffix of [l] starting at the first pair keyed [name], or [[]].
   Names are compared with [String.equal], which returns at once when
   both sides are the same physical string — the common case, since a
   name is allocated once by the catalog and shared by every property
   vector derived from it. *)
let rec find_tail name l =
  match l with
  | [] -> l
  | (n, _) :: rest -> if String.equal n name then l else find_tail name rest

let assoc name l = match find_tail name l with (_, v) :: _ -> Some v | [] -> None
let mem_name name l = match find_tail name l with [] -> false | _ :: _ -> true

let mem_string n l = List.exists (String.equal n) l

let pair_mem (x, y) l =
  List.exists (fun (x', y') -> String.equal x x' && String.equal y y') l

let of_stats ?name ?(co_ordered = []) cols =
  let rec check_unique = function
    | [] -> ()
    | (n, _) :: rest ->
      if mem_name n rest then invalid_arg ("Props.of_stats: duplicate column " ^ n);
      check_unique rest
  in
  check_unique cols;
  let columns =
    List.map
      (fun (n, (s : Dqo_data.Col_stats.t)) ->
        (n, { dense = s.dense; lo = s.lo; hi = s.hi; distinct = s.distinct }))
      cols
  in
  let sorted_names =
    List.filter_map
      (fun (n, (s : Dqo_data.Col_stats.t)) -> if s.sorted then Some n else None)
      cols
  in
  let sorted_by =
    match name with
    | Some n when mem_string n sorted_names -> Some n
    | Some _ | None ->
      (match sorted_names with [] -> None | n :: _ -> Some n)
  in
  let clustered_by =
    match sorted_by with
    | Some _ -> sorted_by
    | None ->
      List.find_map
        (fun (n, (s : Dqo_data.Col_stats.t)) ->
          if s.clustered && s.distinct > 1 then Some n else None)
        cols
  in
  { sorted_by; clustered_by; columns; co_ordered }

let column t name = assoc name t.columns

let sorted_on t name =
  match t.sorted_by with Some n -> String.equal n name | None -> false

let clustered_on t name =
  sorted_on t name
  || (match t.clustered_by with Some n -> String.equal n name | None -> false)
  ||
  match t.sorted_by with
  | Some s -> pair_mem (s, name) t.co_ordered
  | None -> false

let dense_on t name =
  match column t name with Some c -> c.dense | None -> false

let distinct_of t name =
  match column t name with Some c -> Some c.distinct | None -> None

let with_sort t name =
  { t with sorted_by = Some name; clustered_by = Some name }

let without_order t = { t with sorted_by = None; clustered_by = None }

let rename_columns t renaming =
  let rename n =
    match assoc n renaming with Some n' -> n' | None -> n
  in
  {
    sorted_by = Option.map rename t.sorted_by;
    clustered_by = Option.map rename t.clustered_by;
    columns =
      (* A name renamed onto one already present keeps only its first
         occurrence, so names stay unique. *)
      List.fold_left
        (fun acc (n, c) ->
          let n = rename n in
          if mem_name n acc then acc else (n, c) :: acc)
        [] t.columns
      |> List.rev;
    co_ordered = List.map (fun (a, b) -> (rename a, rename b)) t.co_ordered;
  }

let restrict t names =
  let keep field =
    match field with
    | Some n when mem_string n names -> Some n
    | Some _ | None -> None
  in
  {
    sorted_by = keep t.sorted_by;
    clustered_by = keep t.clustered_by;
    columns = List.filter (fun (n, _) -> mem_string n names) t.columns;
    co_ordered =
      List.filter
        (fun (a, b) -> mem_string a names && mem_string b names)
        t.co_ordered;
  }

(* [List.filter], except that the longest suffix whose cells all pass is
   returned as it is, not copied: vectors then share the column cells
   and list suffixes {!dominates} can skip. *)
let rec filter_shared keep l =
  match l with
  | [] -> l
  | x :: rest ->
    let rest' = filter_shared keep rest in
    if not (keep x) then rest' else if rest' == rest then l else x :: rest'

let union_columns a b =
  let merged =
    a.columns @ filter_shared (fun (n, _) -> not (mem_name n a.columns)) b.columns
  in
  {
    sorted_by = None;
    clustered_by = None;
    columns = merged;
    co_ordered =
      a.co_ordered
      @ List.filter (fun p -> not (pair_mem p a.co_ordered)) b.co_ordered;
  }

let shallow t =
  {
    t with
    columns =
      List.map
        (fun (n, c) -> (n, { c with dense = false; lo = 0; hi = -1 }))
        t.columns;
  }

let opt_sub a b =
  (* Every guarantee of [b] is present in [a]. *)
  match (b, a) with
  | None, _ -> true
  | Some bn, Some an -> String.equal an bn
  | Some _, None -> false

let column_dominates (a : column) (b : column) =
  (not b.dense) || (a.dense && a.lo = b.lo && a.hi = b.hi)

(* Every column of [bc] is matched by a column of [a_columns]: walk [bc]
   with a cursor [ac] into [a_columns], so vectors that list their
   columns in the same order (as vectors derived from the same inputs
   do) compare position by position.  Where the names part, the name is
   looked up and the cursor moves past the match, so a vector made of
   the same blocks in another order pays one lookup per block.  Names
   are unique within a vector, so the column at the cursor, when its
   name matches, is the one a lookup would find.  A column of [bc] that
   is not dense needs no match, and physically shared suffixes, cells
   and records need no comparison at all. *)
let rec columns_dominate a_columns ac bc =
  match bc with
  | [] -> true
  | _ when ac == bc -> true
  | ((bn, bcol) as bx) :: br -> (
    match ac with
    | ((an, acol) as ax) :: ar when ax == bx || String.equal an bn ->
      (acol == bcol || column_dominates acol bcol)
      && columns_dominate a_columns ar br
    | _ :: ar when not bcol.dense -> columns_dominate a_columns ar br
    | _ -> (
      match find_tail bn a_columns with
      | (_, acol) :: ar ->
        column_dominates acol bcol && columns_dominate a_columns ar br
      | [] -> (not bcol.dense) && columns_dominate a_columns ac br))

let dominates a b =
  a == b
  || opt_sub a.sorted_by b.sorted_by
  && opt_sub a.clustered_by b.clustered_by
  && List.for_all (fun p -> pair_mem p a.co_ordered) b.co_ordered
  && columns_dominate a.columns a.columns b.columns

let equal a b = dominates a b && dominates b a

let pp ppf t =
  let pp_opt ppf = function
    | Some n -> Format.pp_print_string ppf n
    | None -> Format.pp_print_string ppf "-"
  in
  Format.fprintf ppf "{sorted=%a; clustered=%a; dense=[%a]}" pp_opt
    t.sorted_by pp_opt t.clustered_by
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_string)
    (List.filter_map (fun (n, c) -> if c.dense then Some n else None) t.columns)
