(* Tests for the SQL front end: lexer, parser, and binder. *)

module Token = Dqo_sql.Token
module Lexer = Dqo_sql.Lexer
module Parser = Dqo_sql.Parser
module Ast = Dqo_sql.Ast
module Binder = Dqo_sql.Binder
module Logical = Dqo_plan.Logical
module Filter = Dqo_exec.Filter
module Catalog = Dqo_opt.Catalog
module Props = Dqo_plan.Props

(* --- lexer ----------------------------------------------------------- *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "SELECT a, COUNT(*) FROM r WHERE x <= 1_000" in
  Alcotest.(check bool) "token stream" true
    (toks
    = [
        Token.Kw "SELECT"; Token.Ident "a"; Token.Comma; Token.Kw "COUNT";
        Token.Lparen; Token.Star; Token.Rparen; Token.Kw "FROM";
        Token.Ident "r"; Token.Kw "WHERE"; Token.Ident "x"; Token.Le;
        Token.Int_lit 1_000; Token.Eof;
      ])

let test_lexer_case_insensitive_keywords () =
  Alcotest.(check bool) "select lowercase" true
    (List.hd (Lexer.tokenize "select x from t") = Token.Kw "SELECT")

let test_lexer_qualified_idents () =
  Alcotest.(check bool) "r.a is one token" true
    (List.hd (Lexer.tokenize "r.a") = Token.Ident "r.a")

let test_lexer_operators () =
  let toks s = List.filteri (fun i _ -> i = 0) (Lexer.tokenize s) in
  Alcotest.(check bool) "<>" true (toks "<> 1" = [ Token.Neq ]);
  Alcotest.(check bool) "!=" true (toks "!= 1" = [ Token.Neq ]);
  Alcotest.(check bool) ">=" true (toks ">= 1" = [ Token.Ge ])

let test_lexer_error () =
  match Lexer.tokenize "SELECT @" with
  | exception Lexer.Error msg ->
    Alcotest.(check bool) "names position" true
      (Astring.String.is_infix ~affix:"position" msg)
  | _ -> Alcotest.fail "expected a lexer error"

let test_lexer_negative_literals () =
  let lit s = List.hd (Lexer.tokenize s) in
  Alcotest.(check bool) "-5" true (lit "-5" = Token.Int_lit (-5));
  Alcotest.(check bool) "-1_000" true (lit "-1_000" = Token.Int_lit (-1_000));
  Alcotest.(check bool) "min_int" true
    (lit "-4611686018427387904" = Token.Int_lit min_int);
  Alcotest.(check bool) "after an operator" true
    (Lexer.tokenize "b<-5" = [ Token.Ident "b"; Token.Lt; Token.Int_lit (-5); Token.Eof ]);
  let rejects s =
    match Lexer.tokenize s with
    | exception Lexer.Error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "- 5 is not a literal" true (rejects "b < - 5");
  Alcotest.(check bool) "max_int + 1 out of range" true (rejects "4611686018427387904");
  Alcotest.(check bool) "min_int - 1 out of range" true (rejects "-4611686018427387905");
  let q = Parser.parse "SELECT a FROM R WHERE b < -5 AND a BETWEEN -4611686018427387904 AND -1" in
  match q.Ast.where with
  | [ c1; c2 ] ->
    Alcotest.(check bool) "b < -5" true (c1.Ast.predicate = Filter.Lt (-5));
    Alcotest.(check bool) "between min_int and -1" true
      (c2.Ast.predicate = Filter.Between (min_int, -1))
  | _ -> Alcotest.fail "conditions"

(* --- parser ----------------------------------------------------------- *)

let test_parser_full_query () =
  let q =
    Parser.parse
      "SELECT a, COUNT(*) AS cnt, SUM(b) FROM R JOIN S ON id = r_id WHERE a \
       BETWEEN 1 AND 5 AND b <> 3 GROUP BY a;"
  in
  Alcotest.(check string) "from" "R" q.Ast.from;
  Alcotest.(check int) "one join" 1 (List.length q.Ast.joins);
  Alcotest.(check bool) "group" true (q.Ast.group_by = Some "a");
  Alcotest.(check int) "two conditions" 2 (List.length q.Ast.where);
  (match q.Ast.where with
  | [ c1; c2 ] ->
    Alcotest.(check bool) "between" true
      (c1.Ast.predicate = Filter.Between (1, 5));
    Alcotest.(check bool) "ne" true (c2.Ast.predicate = Filter.Ne 3)
  | _ -> Alcotest.fail "conditions");
  match q.Ast.select with
  | [ Ast.Col "a"; Ast.Agg { fn = "COUNT"; arg = None; alias = Some "cnt" };
      Ast.Agg { fn = "SUM"; arg = Some "b"; alias = None } ] ->
    ()
  | _ -> Alcotest.fail "select list"

let test_parser_multi_join () =
  let q =
    Parser.parse "SELECT x FROM A JOIN B ON a_id = b_a JOIN C ON b_c = c_id"
  in
  Alcotest.(check int) "two joins" 2 (List.length q.Ast.joins)

let test_parser_errors () =
  let expect_err s =
    match Parser.parse s with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.fail ("expected parse error: " ^ s)
  in
  expect_err "FROM R";
  expect_err "SELECT FROM R";
  expect_err "SELECT a FROM R GROUP a";
  
  expect_err "SELECT a FROM R JOIN S";
  expect_err "SELECT COUNT(* FROM R"

let test_parser_roundtrip_pp () =
  let q =
    Parser.parse "SELECT a, COUNT(*) FROM R JOIN S ON id = r_id GROUP BY a"
  in
  let s = Format.asprintf "%a" Ast.pp q in
  (* Parsing the printed query yields the same AST. *)
  let q2 = Parser.parse s in
  Alcotest.(check bool) "roundtrip" true (q = q2)

(* --- binder ----------------------------------------------------------- *)

let col : Props.column = { dense = true; lo = 0; hi = 9; distinct = 10 }

let catalog =
  Catalog.create
    [
      Catalog.table ~name:"R" ~rows:100
        ~props:
          {
            Props.sorted_by = None;
            clustered_by = None;
            columns = [ ("id", col); ("a", col) ];
            co_ordered = [];
          };
      Catalog.table ~name:"S" ~rows:100
        ~props:
          {
            Props.sorted_by = None;
            clustered_by = None;
            columns = [ ("r_id", col); ("a", col) ];
            co_ordered = [];
          };
    ]

let test_binder_builds_expected_tree () =
  let plan =
    Binder.plan_of_sql catalog
      "SELECT R.a, COUNT(*) FROM R JOIN S ON id = r_id WHERE R.a < 5 GROUP BY \
       R.a"
  in
  match plan with
  | Logical.Group_by
      ( Logical.Join (Logical.Select (Logical.Scan "R", "a", Filter.Lt 5),
                      Logical.Scan "S", "id", "r_id"),
        "a",
        [ { Logical.spec = Dqo_exec.Aggregate.Count; _ } ] ) ->
    ()
  | _ -> Alcotest.fail (Format.asprintf "unexpected plan: %a" Logical.pp plan)

let test_binder_ambiguity () =
  (* "a" exists in both R and S. *)
  match
    Binder.plan_of_sql catalog
      "SELECT a, COUNT(*) FROM R JOIN S ON id = r_id GROUP BY a"
  with
  | exception Binder.Error msg ->
    Alcotest.(check bool) "names ambiguity" true
      (Astring.String.is_infix ~affix:"ambiguous" msg)
  | _ -> Alcotest.fail "expected ambiguity error"

let test_binder_qualified_disambiguates () =
  match
    Binder.plan_of_sql catalog
      "SELECT S.a, COUNT(*) FROM R JOIN S ON id = r_id GROUP BY S.a"
  with
  | Logical.Group_by (_, "a", _) -> ()
  | _ -> Alcotest.fail "expected grouping on S.a"

let test_binder_join_direction_normalised () =
  (* ON clause written backwards must still connect the new table. *)
  let p1 =
    Binder.plan_of_sql catalog "SELECT R.a FROM R JOIN S ON id = r_id"
  in
  let p2 =
    Binder.plan_of_sql catalog "SELECT R.a FROM R JOIN S ON r_id = id"
  in
  Alcotest.(check bool) "same tree" true (p1 = p2)

let test_binder_semantic_errors () =
  let expect_err sql affix =
    match Binder.plan_of_sql catalog sql with
    | exception Binder.Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %S" affix)
        true
        (Astring.String.is_infix ~affix msg)
    | _ -> Alcotest.fail ("expected bind error: " ^ sql)
  in
  expect_err "SELECT a FROM T" "unknown table";
  expect_err "SELECT zz FROM R" "not found";
  expect_err "SELECT COUNT(*) FROM R" "GROUP BY";
  expect_err "SELECT id, COUNT(*) FROM R GROUP BY a" "not the GROUP BY key";
  expect_err "SELECT SUM(*) AS s FROM R GROUP BY a" "requires a column";
  expect_err "SELECT R.a FROM R JOIN R ON id = id" "twice";
  expect_err "SELECT T.a FROM R" "not in the FROM clause"

let () =
  Alcotest.run "dqo_sql"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "case-insensitive" `Quick
            test_lexer_case_insensitive_keywords;
          Alcotest.test_case "qualified" `Quick test_lexer_qualified_idents;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "errors" `Quick test_lexer_error;
          Alcotest.test_case "negative literals" `Quick test_lexer_negative_literals;
        ] );
      ( "parser",
        [
          Alcotest.test_case "full query" `Quick test_parser_full_query;
          Alcotest.test_case "multi join" `Quick test_parser_multi_join;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "pp roundtrip" `Quick test_parser_roundtrip_pp;
        ] );
      ( "binder",
        [
          Alcotest.test_case "expected tree" `Quick
            test_binder_builds_expected_tree;
          Alcotest.test_case "ambiguity" `Quick test_binder_ambiguity;
          Alcotest.test_case "qualified" `Quick
            test_binder_qualified_disambiguates;
          Alcotest.test_case "join direction" `Quick
            test_binder_join_direction_normalised;
          Alcotest.test_case "semantic errors" `Quick
            test_binder_semantic_errors;
        ] );
    ]
