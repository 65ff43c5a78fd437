(* The serving front end: concurrent sessions over one shared pool,
   bounded admission, stale-plan invalidation, and the wire protocol. *)

module Engine = Dqo_engine.Engine
module Server = Dqo_serve.Server
module Wire = Dqo_serve.Wire
module Metrics = Dqo_obs.Metrics
module Datagen = Dqo_data.Datagen
module Rng = Dqo_util.Rng

let demo_sql = "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id GROUP BY a"

let demo_db () =
  let rng = Rng.create ~seed:3 in
  let pair =
    Datagen.fk_pair ~rng ~r_rows:2_500 ~s_rows:9_000 ~r_groups:2_000
      ~r_sorted:false ~s_sorted:false ~dense:true
  in
  let db = Engine.create () in
  Engine.register db ~name:"R" pair.Datagen.r;
  Engine.register db ~name:"S" pair.Datagen.s;
  db

let with_server ?max_inflight ?workers ?(threads = 2) f =
  let db = demo_db () in
  let srv = Server.create ?max_inflight ?workers ~threads db in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> f db srv)

(* --- sessions & concurrent execution ---------------------------------- *)

(* N concurrent sessions execute the same prepared statement; every
   result is byte-identical to the direct sequential engine run. *)
let test_concurrent_sessions_identical () =
  with_server (fun db srv ->
      let reference = Engine.run_sql db demo_sql in
      let sessions = 6 in
      let results = Array.make sessions None in
      let client i =
        let s = Server.open_session srv in
        let stmt = Server.prepare s demo_sql in
        results.(i) <- Some (Server.execute s stmt);
        Server.close_session s
      in
      List.iter Thread.join
        (List.init sessions (fun i -> Thread.create client i));
      Array.iteri
        (fun i r ->
          match r with
          | None -> Alcotest.fail (Printf.sprintf "session %d got no result" i)
          | Some rel ->
            Alcotest.(check bool)
              (Printf.sprintf "session %d byte-identical" i)
              true (rel = reference))
        results;
      Alcotest.(check int) "all requests drained" 0 (Server.in_flight srv);
      Alcotest.(check bool) "requests counted" true
        (Metrics.counter (Server.metrics srv) "serve.requests" >= sessions))

let test_statement_cache_shared () =
  with_server (fun _db srv ->
      let s1 = Server.open_session srv in
      let s2 = Server.open_session srv in
      let a = Server.prepare s1 demo_sql in
      let b = Server.prepare s2 demo_sql in
      Alcotest.(check int) "same cache entry from any session"
        (Server.stmt_id a) (Server.stmt_id b);
      Alcotest.(check string) "sql preserved" demo_sql (Server.stmt_sql a);
      let m = Server.metrics srv in
      Alcotest.(check int) "one miss" 1 (Metrics.counter m "serve.cache_misses");
      Alcotest.(check int) "one hit" 1 (Metrics.counter m "serve.cache_hits"))

let test_closed_session_rejected () =
  with_server (fun _db srv ->
      let s = Server.open_session srv in
      let stmt = Server.prepare s demo_sql in
      Server.close_session s;
      Server.close_session s (* idempotent *);
      Alcotest.check_raises "submit on closed session" Server.Session_closed
        (fun () -> ignore (Server.submit s stmt));
      Alcotest.check_raises "prepare on closed session" Server.Session_closed
        (fun () -> ignore (Server.prepare s demo_sql)))

(* --- admission --------------------------------------------------------- *)

(* Fill the admission window exactly; the (N+1)th submission is rejected
   with Overloaded, and collecting results reopens the window. *)
let test_admission_bound () =
  let limit = 4 in
  with_server ~max_inflight:limit (fun _db srv ->
      let s = Server.open_session srv in
      let stmt = Server.prepare s demo_sql in
      let tickets = List.init limit (fun _ -> Server.submit s stmt) in
      Alcotest.(check int) "window full" limit (Server.in_flight srv);
      Alcotest.check_raises "over-admission rejected"
        (Server.Overloaded { limit }) (fun () ->
          ignore (Server.submit s stmt));
      Alcotest.(check int) "rejection counted" 1
        (Metrics.counter (Server.metrics srv) "serve.rejected");
      let results = List.map Server.await tickets in
      Alcotest.(check int) "window empty after await" 0 (Server.in_flight srv);
      (match results with
      | first :: rest ->
        List.iteri
          (fun i r ->
            Alcotest.(check bool)
              (Printf.sprintf "result %d identical" (i + 1))
              true (r = first))
          rest
      | [] -> Alcotest.fail "no results");
      (* The window reopens: submitting again succeeds. *)
      ignore (Server.await (Server.submit s stmt)))

let test_await_idempotent () =
  with_server (fun _db srv ->
      let s = Server.open_session srv in
      let stmt = Server.prepare s demo_sql in
      let t = Server.submit s stmt in
      let a = Server.await t in
      let b = Server.await t in
      Alcotest.(check bool) "same outcome on re-await" true (a == b);
      Alcotest.(check int) "slot released once" 0 (Server.in_flight srv))

(* --- stale-plan invalidation ------------------------------------------- *)

(* Engine level: install_av bumps the generation; execute_prepared
   raises Stale_plan unless ~reprepare:true. *)
let test_engine_stale_plan () =
  let db = demo_db () in
  let p = Engine.prepare db demo_sql in
  let before = Engine.run_sql db demo_sql in
  let gen0 = Engine.av_generation db in
  Alcotest.(check bool) "fresh after prepare" false (Engine.prepared_stale db p);
  (match Dqo_av.Avsp.default_candidates (Engine.catalog db) with
  | v :: _ -> Engine.install_av db v
  | [] -> Alcotest.fail "no AV candidates");
  Alcotest.(check bool) "generation bumped" true
    (Engine.av_generation db > gen0);
  Alcotest.(check bool) "plan now stale" true (Engine.prepared_stale db p);
  (try
     ignore (Engine.execute_prepared db p);
     Alcotest.fail "expected Stale_plan"
   with Engine.Stale_plan _ -> ());
  let after = Engine.execute_prepared db ~reprepare:true p in
  Alcotest.(check bool) "replanned result canonically equal" true
    (List.sort compare (Dqo_data.Relation.rows after)
    = List.sort compare (Dqo_data.Relation.rows before));
  Alcotest.(check bool) "fresh again after reprepare" false
    (Engine.prepared_stale db p)

(* Server level: the cache revalidates transparently and counts the
   replan. *)
let test_server_replans_after_install_av () =
  with_server (fun db srv ->
      let s = Server.open_session srv in
      let stmt = Server.prepare s demo_sql in
      let before = Server.execute s stmt in
      (match Dqo_av.Avsp.default_candidates (Engine.catalog db) with
      | v :: _ -> Engine.install_av db v
      | [] -> Alcotest.fail "no AV candidates");
      let after = Server.execute s stmt in
      Alcotest.(check bool) "replan counted" true
        (Metrics.counter (Server.metrics srv) "serve.replans" >= 1);
      Alcotest.(check bool) "result canonically unchanged" true
        (List.sort compare (Dqo_data.Relation.rows after)
        = List.sort compare (Dqo_data.Relation.rows before)))

(* --- opts record -------------------------------------------------------- *)

let test_engine_opts () =
  let db = demo_db () in
  Alcotest.(check bool) "defaults" true
    (Engine.opts db = Engine.default_opts);
  let seq = Engine.run_sql db demo_sql in
  Engine.set_opts db
    { Engine.default_opts with Engine.mode = Engine.DQO; threads = 2 };
  Alcotest.(check int) "threads stored" 2 (Engine.opts db).Engine.threads;
  Alcotest.(check bool) "feedback defaults off" false
    (Engine.opts db).Engine.feedback;
  Alcotest.(check bool) "opts-default threads byte-identical" true
    (Engine.run_sql db demo_sql = seq);
  (* Per-call optionals still override the handle. *)
  Alcotest.(check bool) "per-call override still works" true
    (Engine.run_sql db ~threads:1 demo_sql = seq);
  Alcotest.check_raises "bad opts rejected"
    (Invalid_argument "Engine.opts: threads < 1") (fun () ->
      Engine.set_opts db
        { Engine.default_opts with Engine.mode = Engine.DQO; threads = 0 });
  Alcotest.check_raises "bad threshold rejected"
    (Invalid_argument "Engine.opts: qerror_threshold < 1.0") (fun () ->
      Engine.set_opts db
        { Engine.default_opts with Engine.qerror_threshold = 0.5 })

(* A failed prepare consumes no statement id: the next good one gets the
   id right after the last good one. *)
let test_failed_prepare_keeps_ids () =
  with_server (fun _db srv ->
      let s = Server.open_session srv in
      let first = Server.prepare s demo_sql in
      Alcotest.(check int) "first id" 1 (Server.stmt_id first);
      List.iter
        (fun bad ->
          match Server.prepare s bad with
          | exception (Dqo_sql.Parser.Error _ | Dqo_sql.Binder.Error _) -> ()
          | _ -> Alcotest.fail ("prepare should fail: " ^ bad))
        [ "SELECT a FROM Unknown"; "SELECT a, FROM R" ];
      let next = Server.prepare s "SELECT a, COUNT(*) AS c FROM R GROUP BY a" in
      Alcotest.(check int) "next good prepare gets the next id" 2
        (Server.stmt_id next))

(* --- result digest and row text ------------------------------------------ *)

module Relation = Dqo_data.Relation
module Schema = Dqo_data.Schema
module Column = Dqo_data.Column
module Value = Dqo_data.Value

let int_rel rows =
  Relation.of_int_rows (Schema.of_names [ ("x", Schema.T_int); ("y", Schema.T_int) ]) rows

let prop_digest_permutation =
  QCheck.Test.make ~name:"digest invariant under row permutation" ~count:200
    QCheck.(pair (list (pair small_signed_int int)) int)
    (fun (rows, seed) ->
      let rows = List.map (fun (x, y) -> [ x; y ]) rows in
      let a = Array.of_list rows in
      let perm = Array.init (Array.length a) Fun.id in
      Dqo_util.Rng.shuffle (Dqo_util.Rng.create ~seed) perm;
      let permuted = Array.to_list (Array.map (fun i -> a.(i)) perm) in
      String.equal (Wire.digest (int_rel rows)) (Wire.digest (int_rel permuted)))

let test_digest_distinguishes () =
  let d rows = Wire.digest (int_rel rows) in
  let differ name a b =
    Alcotest.(check bool) name false (String.equal (d a) (d b))
  in
  differ "cells swapped across rows" [ [ 1; 2 ]; [ 3; 4 ] ] [ [ 1; 4 ]; [ 3; 2 ] ];
  differ "cells swapped within a row" [ [ 1; 2 ] ] [ [ 2; 1 ] ];
  differ "duplicate vs single row" [ [ 1; 2 ]; [ 1; 2 ] ] [ [ 1; 2 ] ];
  differ "duplicated rows count (no XOR cancellation)"
    [ [ 1; 2 ]; [ 1; 2 ] ] [ [ 3; 4 ]; [ 3; 4 ] ];
  differ "multiplicities" [ [ 1; 2 ]; [ 1; 2 ]; [ 3; 4 ] ] [ [ 1; 2 ]; [ 3; 4 ]; [ 3; 4 ] ];
  differ "empty vs one zero row" [] [ [ 0; 0 ] ];
  let one ty col = Relation.create (Schema.of_names [ ("v", ty) ]) [ col ] in
  Alcotest.(check bool) "Int vs Float of the same value" false
    (String.equal
       (Wire.digest (one Schema.T_int (Column.of_ints [| 1; 2 |])))
       (Wire.digest (one Schema.T_float (Column.Floats [| 1.0; 2.0 |]))));
  Alcotest.(check bool) "String cells hash" false
    (String.equal
       (Wire.digest (one Schema.T_string (Column.Strings [| "ab"; "c" |])))
       (Wire.digest (one Schema.T_string (Column.Strings [| "a"; "bc" |]))));
  Alcotest.(check bool) "backend does not matter" true
    (String.equal
       (d [ [ 5; 6 ]; [ 7; 8 ] ])
       (Wire.digest
          (Relation.create
             (Schema.of_names [ ("x", Schema.T_int); ("y", Schema.T_int) ])
             (List.map
                (fun a ->
                  Column.of_int_col
                    (Dqo_data.Int_col.init
                       ~backend:(Dqo_data.Int_col.Chunked Dqo_data.Int_col.W32)
                       ~chunk_rows:1 2 (fun i -> a.(i))))
                [ [| 5; 7 |]; [| 6; 8 |] ]))))

(* The row text is exactly what rendering every cell with
   [Value.to_string] gives. *)
let test_wire_row_text () =
  let ints = [| 0; -1; 7; -42; min_int; max_int; min_int + 1; 1_000_000 |] in
  let n = Array.length ints in
  let floats = [| 0.0; -0.0; 1.5; -2.25; 1e300; 1e-7; nan; infinity |] in
  let strings = [| ""; "plain"; "tab\there"; "quote\"s"; "new\nline"; "\\"; "é"; "x" |] in
  let rel =
    Relation.create
      (Schema.of_names
         [ ("i", Schema.T_int); ("f", Schema.T_float); ("s", Schema.T_string);
           ("j", Schema.T_int) ])
      [ Column.of_ints ints; Column.Floats floats; Column.Strings strings;
        Column.of_ints (Array.init n (fun i -> (i * 7919) - 30_000)) ]
  in
  let expected =
    String.concat ""
      (List.map
         (fun row -> String.concat "\t" (List.map Value.to_string row) ^ "\n")
         (Relation.rows rel))
  in
  let buf = Buffer.create 16 in
  Wire.add_rows buf rel;
  Alcotest.(check string) "byte-identical rows" expected (Buffer.contents buf)

let prop_wire_int_text =
  QCheck.Test.make ~name:"int cells render as string_of_int" ~count:500
    QCheck.(list int)
    (fun xs ->
      let rel =
        Relation.create (Schema.of_names [ ("v", Schema.T_int) ])
          [ Column.of_ints (Array.of_list xs) ]
      in
      let buf = Buffer.create 16 in
      Wire.add_rows buf rel;
      String.equal (Buffer.contents buf)
        (String.concat "" (List.map (fun x -> string_of_int x ^ "\n") xs)))

(* --- wire protocol ------------------------------------------------------ *)

let run_wire ?(threads = 2) script =
  let db = demo_db () in
  Engine.set_opts db
    { Engine.default_opts with Engine.mode = Engine.DQO; threads };
  let srv = Server.create ~max_inflight:4 db in
  let r_in, w_in = Unix.pipe () in
  let ic = Unix.in_channel_of_descr r_in in
  let oc_w = Unix.out_channel_of_descr w_in in
  output_string oc_w script;
  close_out oc_w;
  let buf_path = Filename.temp_file "dqo_wire" ".out" in
  let out = open_out buf_path in
  Fun.protect
    ~finally:(fun () -> Server.shutdown srv)
    (fun () -> Wire.serve srv ic out);
  close_out out;
  close_in ic;
  let chan = open_in buf_path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line chan :: !lines
     done
   with End_of_file -> ());
  close_in chan;
  Sys.remove buf_path;
  List.rev !lines

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let test_wire_session_and_exec () =
  let lines =
    run_wire
      "open\nopen\nprepare 1 SELECT a, COUNT(*) AS c FROM R GROUP BY a\n\
       prepare 2 SELECT a, COUNT(*) AS c FROM R GROUP BY a\nexec 1 1\n\
       exec 2 1\nclose 1\nclose 2\nquit\n"
  in
  (match lines with
  | "ok session 1" :: "ok session 2" :: "ok stmt 1" :: "ok stmt 1" :: rest ->
    (* Both execs return the identical single-row result. *)
    let results =
      List.filter (has_prefix "result ") rest
    in
    (match results with
    | [ a; b ] -> Alcotest.(check string) "identical exec results" a b
    | _ -> Alcotest.fail "expected two result headers")
  | _ -> Alcotest.fail ("unexpected prefix: " ^ String.concat " | " lines));
  Alcotest.(check bool) "says goodbye" true (List.mem "ok bye" lines)

let test_wire_submit_wait_and_overload () =
  let lines =
    run_wire
      "open\nprepare 1 SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id \
       GROUP BY a\nsubmit 1 1\nsubmit 1 1\nsubmit 1 1\nsubmit 1 1\n\
       submit 1 1\nwait 1\nwait 2\nwait 3\nwait 4\nstats\nquit\n"
  in
  Alcotest.(check bool) "fifth submit rejected" true
    (List.mem "error overloaded limit=4" lines);
  let sums =
    List.filter_map
      (fun l ->
        if has_prefix "result ticket=" l then
          Some (List.hd (List.rev (String.split_on_char ' ' l)))
        else None)
      lines
  in
  Alcotest.(check int) "four results" 4 (List.length sums);
  List.iter
    (fun s ->
      Alcotest.(check string) "all digests identical" (List.hd sums) s)
    sums;
  Alcotest.(check bool) "stats line present" true
    (List.exists (has_prefix "ok stats requests=4 rejected=1") lines)

let test_wire_errors_keep_serving () =
  let lines = run_wire "bogus\nexec 99 1\nopen\nquit\n" in
  (match lines with
  | e1 :: e2 :: rest ->
    Alcotest.(check bool) "unknown command reported" true
      (has_prefix "error " e1);
    Alcotest.(check bool) "unknown session reported" true
      (has_prefix "error " e2);
    Alcotest.(check bool) "still serving afterwards" true
      (List.mem "ok session 1" rest)
  | _ -> Alcotest.fail "expected two error lines");
  Alcotest.(check bool) "clean quit" true (List.mem "ok bye" lines)

let () =
  Alcotest.run "dqo_serve"
    [
      ( "sessions",
        [
          Alcotest.test_case "concurrent sessions identical" `Quick
            test_concurrent_sessions_identical;
          Alcotest.test_case "statement cache shared" `Quick
            test_statement_cache_shared;
          Alcotest.test_case "closed session rejected" `Quick
            test_closed_session_rejected;
          Alcotest.test_case "failed prepare keeps ids" `Quick
            test_failed_prepare_keeps_ids;
        ] );
      ( "digest",
        [
          QCheck_alcotest.to_alcotest prop_digest_permutation;
          Alcotest.test_case "distinguishes" `Quick test_digest_distinguishes;
          Alcotest.test_case "row text" `Quick test_wire_row_text;
          QCheck_alcotest.to_alcotest prop_wire_int_text;
        ] );
      ( "admission",
        [
          Alcotest.test_case "bound enforced" `Quick test_admission_bound;
          Alcotest.test_case "await idempotent" `Quick test_await_idempotent;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "engine stale plan" `Quick test_engine_stale_plan;
          Alcotest.test_case "server replans" `Quick
            test_server_replans_after_install_av;
        ] );
      ( "opts",
        [ Alcotest.test_case "engine opts record" `Quick test_engine_opts ] );
      ( "wire",
        [
          Alcotest.test_case "session & exec" `Quick test_wire_session_and_exec;
          Alcotest.test_case "submit, wait, overload" `Quick
            test_wire_submit_wait_and_overload;
          Alcotest.test_case "errors keep serving" `Quick
            test_wire_errors_keep_serving;
        ] );
    ]
