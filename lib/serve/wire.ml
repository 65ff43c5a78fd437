(* Line-oriented protocol driver for [dqo serve]; see wire.mli for the
   command grammar.  The loop itself is single-threaded — concurrency
   comes from [submit]/[wait], which hand requests to the server's
   executor threads and collect them later. *)

module Relation = Dqo_data.Relation
module Value = Dqo_data.Value
module Metrics = Dqo_obs.Metrics

(* djb2-xor over a canonical rendering of every cell: schema order
   within a row, rows sorted structurally first.  Sorting makes the
   digest a {e bag} fingerprint — physical-design changes (an advisor
   materialising or evicting an AV mid-run) may legitimately reorder
   result rows, and the digest's job is to certify the relation's
   content, not its storage order.  Stable across runs (no
   [Hashtbl.hash] — its output may differ between OCaml versions, and
   the digest lands in CI transcripts). *)
let digest rel =
  let h = ref 5381 in
  let mix_byte b = h := ((!h * 33) lxor b) land max_int in
  let mix_string s = String.iter (fun c -> mix_byte (Char.code c)) s in
  let mix_int i =
    for shift = 0 to 7 do
      mix_byte ((i lsr (8 * shift)) land 0xff)
    done
  in
  mix_int (Relation.cardinality rel);
  List.iter
    (fun row ->
      List.iter
        (fun v ->
          match v with
          | Value.Null -> mix_byte 0
          | Value.Int i ->
            mix_byte 1;
            mix_int i
          | Value.Float f ->
            mix_byte 2;
            mix_int (Int64.to_int (Int64.bits_of_float f))
          | Value.String s ->
            mix_byte 3;
            mix_string s)
        row)
    (List.sort compare (Relation.rows rel));
  Printf.sprintf "%016x" (!h land max_int)

let result_header ?ticket rel =
  let cols =
    List.length (Dqo_data.Schema.fields (Relation.schema rel))
  in
  let t =
    match ticket with
    | Some id -> Printf.sprintf " ticket=%d" id
    | None -> ""
  in
  Printf.sprintf "result%s rows=%d cols=%d sum=%s" t
    (Relation.cardinality rel) cols (digest rel)

let row_line row = String.concat "\t" (List.map Value.to_string row)

(* One line, no newlines smuggled in from exception payloads. *)
let error_line e =
  let s = Printexc.to_string e in
  let s = String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s in
  "error " ^ s

type state = {
  server : Server.t;
  sessions : (int, Server.session) Hashtbl.t;
  stmts : (int, Server.stmt) Hashtbl.t; (* wire view of the server cache *)
  tickets : (int, Server.ticket) Hashtbl.t;
  mutable next_ticket : int;
}

let find tbl what id =
  match Hashtbl.find_opt tbl id with
  | Some v -> v
  | None -> failwith (Printf.sprintf "unknown %s %d" what id)

let int_arg what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> failwith (Printf.sprintf "bad %s: %s" what s)

let stats_line st =
  let m = Server.metrics st.server in
  let q name p =
    match Metrics.find_hist m name with
    | Some h when Metrics.hist_count h > 0 -> Metrics.hist_quantile h p
    | Some _ | None -> 0.0
  in
  (* [last_max_q] is the worst per-node q-error of the latest execution
     the feedback loop learned from (1.00 when feedback is off or no
     analysed execution ran yet) — it lets a wire client watch estimate
     quality converge across repeated submits. *)
  (* New fields append at the end of the line: CI and clients grep the
     stats line by prefix. *)
  let engine = Server.engine st.server in
  Printf.sprintf
    "ok stats requests=%d rejected=%d replans=%d feedback_replans=%d \
     rows_out=%d p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f last_max_q=%.2f \
     advisor_installed=%d advisor_evicted=%d"
    (Metrics.counter m "serve.requests")
    (Metrics.counter m "serve.rejected")
    (Metrics.counter m "serve.replans")
    (Metrics.counter m "feedback.replans")
    (Metrics.counter m "serve.rows_out")
    (q "serve.latency_ms" 0.50)
    (q "serve.latency_ms" 0.95)
    (q "serve.latency_ms" 0.99)
    (Dqo_cost.Feedback.last_max_q (Dqo_engine.Engine.corrections engine))
    (Metrics.counter m "advisor.installed")
    (Metrics.counter m "advisor.evicted")

(* Split off the first [n] whitespace-separated tokens; the remainder
   (for [prepare]'s SQL) keeps its internal spacing. *)
let split_command line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
    ( String.sub line 0 i,
      String.trim (String.sub line i (String.length line - i)) )

let handle st line out =
  let emit s =
    output_string out s;
    output_char out '\n'
  in
  let keyword, rest = split_command (String.trim line) in
  match String.lowercase_ascii keyword with
  | "" -> ()
  | "open" ->
    let s = Server.open_session st.server in
    Hashtbl.replace st.sessions (Server.session_id s) s;
    emit (Printf.sprintf "ok session %d" (Server.session_id s))
  | "close" ->
    let sid = int_arg "session id" rest in
    Server.close_session (find st.sessions "session" sid);
    emit (Printf.sprintf "ok closed %d" sid)
  | "prepare" ->
    let sid_str, sql = split_command rest in
    let sid = int_arg "session id" sid_str in
    if String.length sql = 0 then failwith "prepare needs SQL";
    let stmt = Server.prepare (find st.sessions "session" sid) sql in
    Hashtbl.replace st.stmts (Server.stmt_id stmt) stmt;
    emit (Printf.sprintf "ok stmt %d" (Server.stmt_id stmt))
  | "exec" | "submit" -> (
    let sid_str, stmt_str = split_command rest in
    let sid = int_arg "session id" sid_str in
    let stmt_id = int_arg "statement id" stmt_str in
    let session = find st.sessions "session" sid in
    let stmt = find st.stmts "statement" stmt_id in
    match String.lowercase_ascii keyword with
    | "exec" ->
      let rel = Server.execute session stmt in
      emit (result_header rel);
      List.iter (fun row -> emit (row_line row)) (Relation.rows rel);
      emit "end"
    | _ -> (
      match Server.submit session stmt with
      | ticket ->
        st.next_ticket <- st.next_ticket + 1;
        Hashtbl.replace st.tickets st.next_ticket ticket;
        emit (Printf.sprintf "ok ticket %d" st.next_ticket)
      | exception Server.Overloaded { limit } ->
        emit (Printf.sprintf "error overloaded limit=%d" limit)))
  | "wait" ->
    let tid = int_arg "ticket id" rest in
    let rel = Server.await (find st.tickets "ticket" tid) in
    emit (result_header ~ticket:tid rel)
  | "advise" -> (
    match Server.advisor_tick st.server with
    | None -> failwith "advisor not enabled (start with --advisor)"
    | Some r ->
      emit
        (Printf.sprintf "ok advisor installed=%d evicted=%d bytes=%d"
           (List.length r.Dqo_advisor.Advisor.installed)
           (List.length r.Dqo_advisor.Advisor.evicted)
           r.Dqo_advisor.Advisor.av_bytes))
  | "stats" -> emit (stats_line st)
  | "quit" -> emit "ok bye"
  | other -> failwith ("unknown command " ^ other)

let serve server ic oc =
  let st =
    { server; sessions = Hashtbl.create 8; stmts = Hashtbl.create 8;
      tickets = Hashtbl.create 32; next_ticket = 0 }
  in
  let quit = ref false in
  while not !quit do
    match input_line ic with
    | exception End_of_file -> quit := true
    | line ->
      (if String.lowercase_ascii (fst (split_command (String.trim line))) = "quit"
       then quit := true);
      (try handle st line oc
       with e -> output_string oc (error_line e ^ "\n"));
      flush oc
  done
