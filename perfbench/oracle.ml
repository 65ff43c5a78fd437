(* Reference evaluator, independent of the engine: row-at-a-time over
   the generated arrays, with a [Hashtbl] per join and one for the
   groups.  A served result is parsed back from its wire rows and
   compared with the reference as a bag; the wire digest is never
   consulted. *)

let holds p v = match p with Gen.Le n -> v <= n | Gen.Ge n -> v >= n

(* The expected result of [st] over [tables], as sorted rows of
   [key; agg...]. *)
let eval tables (st : Gen.stmt) =
  let order = Array.of_list (st.from :: List.map (fun (t, _, _) -> t) st.joins) in
  let table name = List.find (fun t -> t.Gen.name = name) tables in
  let pos name =
    let rec go i = if order.(i) = name then i else go (i + 1) in
    go 0
  in
  (* Where a column lives: its table's position in the join order. *)
  let owner col =
    let t = List.find (fun t -> List.mem_assoc col t.Gen.cols) (List.map table (Array.to_list order)) in
    (pos t.Gen.name, List.assoc col t.Gen.cols)
  in
  let survivors name =
    let t = table name in
    let n = Array.length (snd (List.hd t.Gen.cols)) in
    let preds =
      List.filter_map
        (fun (c, p) -> Option.map (fun a -> (a, p)) (List.assoc_opt c t.Gen.cols))
        st.where
    in
    List.filter (fun i -> List.for_all (fun (a, p) -> holds p a.(i)) preds) (List.init n Fun.id)
  in
  let bindings =
    List.fold_left
      (fun acc (t, l, r) ->
        let lpos, lcol = owner l in
        let _, rcol = owner r in
        let index = Hashtbl.create 1024 in
        List.iter (fun j -> Hashtbl.add index rcol.(j) j) (survivors t);
        List.concat_map
          (fun b -> List.map (fun j -> Array.append b [| j |]) (Hashtbl.find_all index lcol.(b.(lpos))))
          acc)
      (List.map (fun i -> [| i |]) (survivors st.from))
      st.joins
  in
  let value col b =
    let p, a = owner col in
    a.(b.(p))
  in
  let groups = Hashtbl.create 1024 in
  List.iter
    (fun b ->
      let k = value st.key b in
      let accs =
        match Hashtbl.find_opt groups k with
        | Some a -> a
        | None ->
          let a = Array.make (List.length st.aggs) 0 in
          Hashtbl.add groups k a;
          a
      in
      List.iteri
        (fun i agg ->
          accs.(i) <- (accs.(i) + match agg with Gen.Count -> 1 | Gen.Sum c -> value c b))
        st.aggs)
    bindings;
  Hashtbl.fold (fun k accs rows -> (k :: Array.to_list accs) :: rows) groups []
  |> List.sort compare

(* A served reply: its [result rows=.. cols=..] header and its row lines
   (between the header and [end]). *)
let check ~expected ~cols ~header ~rows =
  let field name =
    List.find_map
      (fun kv ->
        match String.split_on_char '=' kv with
        | [ k; v ] when k = name -> int_of_string_opt v
        | _ -> None)
      (String.split_on_char ' ' header)
  in
  let parse line = List.map int_of_string_opt (String.split_on_char '\t' line) in
  let parsed = List.map parse rows in
  field "rows" = Some (List.length rows)
  && field "cols" = Some cols
  && List.for_all (List.for_all Option.is_some) parsed
  && List.sort compare (List.map (List.map Option.get) parsed) = expected
