(* Line-oriented protocol driver for [dqo serve]; see wire.mli for the
   command grammar.  The loop itself is single-threaded — concurrency
   comes from [submit]/[wait], which hand requests to the server's
   executor threads and collect them later. *)

module Relation = Dqo_data.Relation
module Column = Dqo_data.Column
module Int_col = Dqo_data.Int_col
module Metrics = Dqo_obs.Metrics

(* A multiply-xorshift avalanche: every step (xorshift, multiply by an
   odd constant) is a bijection on OCaml's 63-bit ints. *)
let avalanche x =
  let x = (x lxor (x lsr 31)) * 0x2545F4914F6CDD1D in
  let x = (x lxor (x lsr 29)) * 0x1B873593CC9E2D51 in
  x lxor (x lsr 32)

(* Fold one tagged cell into a row hash.  The fold is sequential, so a
   row's hash depends on which value sits in which column; for a fixed
   [h] it is a bijection of [v lxor tag]. *)
let mix h tag v = avalanche ((h * 0x100000001B3) + (v lxor tag))

let string_hash s =
  let h = ref (String.length s) in
  String.iter (fun c -> h := (!h * 0x100000001B3) lxor Char.code c) s;
  !h

(* Order-independent bag digest in O(rows x columns): every row is
   hashed across its columns, straight from the column storage with a
   type tag per cell, and the row hashes are summed.  A sum commutes,
   so physical-design changes that reorder result rows (an advisor
   materialising or evicting an AV mid-run) digest alike, and unlike a
   XOR it counts duplicate rows.  Row count and arity are mixed in last.
   Stable across runs and OCaml versions (no [Hashtbl.hash]): the
   digest lands in CI transcripts. *)
let digest rel =
  let n = Relation.cardinality rel in
  let arity = Dqo_data.Schema.arity (Relation.schema rel) in
  let acc = Array.make n 0x165667B19E3779F9 in
  for j = 0 to arity - 1 do
    match Relation.column_at rel j with
    | Column.Ints c ->
      Int_col.iter_seg c ~f:(fun pos buf off len ->
          for k = 0 to len - 1 do
            let i = pos + k in
            Array.unsafe_set acc i
              (mix (Array.unsafe_get acc i) 1 (Array.unsafe_get buf (off + k)))
          done)
    | Column.Floats a ->
      Array.iteri
        (fun i f ->
          let bits = Int64.bits_of_float f in
          let lo = Int64.to_int (Int64.logand bits 0xFFFF_FFFFL) in
          let hi = Int64.to_int (Int64.shift_right_logical bits 32) in
          acc.(i) <- mix (mix acc.(i) 2 lo) 2 hi)
        a
    | Column.Strings a ->
      Array.iteri (fun i s -> acc.(i) <- mix acc.(i) 3 (string_hash s)) a
  done;
  let sum = Array.fold_left ( + ) 0 acc in
  Printf.sprintf "%016x" (mix (mix sum 4 n) 5 arity land max_int)

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

(* [string_of_int] into [buf] without the allocation and format
   parsing, through the 20-byte scratch [digits]: digits are produced
   from the non-positive value, so [min_int] needs no special case. *)
let add_int buf digits i =
  let pos = ref 20 and n = ref (if i > 0 then -i else i) in
  if !n = 0 then (decr pos; Bytes.unsafe_set digits !pos '0');
  while !n <> 0 do
    decr pos;
    Bytes.unsafe_set digits !pos (Char.unsafe_chr (48 - (!n mod 10)));
    n := !n / 10
  done;
  if i < 0 then (decr pos; Bytes.unsafe_set digits !pos '-');
  Buffer.add_subbytes buf digits !pos (20 - !pos)

let add_rows buf rel =
  let cols = Array.init (Dqo_data.Schema.arity (Relation.schema rel)) (Relation.column_at rel) in
  let digits = Bytes.create 20 in
  for i = 0 to Relation.cardinality rel - 1 do
    Array.iteri
      (fun j c ->
        if j > 0 then Buffer.add_char buf '\t';
        match c with
        | Column.Ints c -> add_int buf digits (Int_col.get c i)
        | Column.Floats a -> Printf.bprintf buf "%g" a.(i)
        | Column.Strings a -> Printf.bprintf buf "%S" a.(i))
      cols;
    Buffer.add_char buf '\n'
  done

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
      let buf = Buffer.create 4096 in
      Buffer.add_string buf (result_header rel);
      Buffer.add_char buf '\n';
      add_rows buf rel;
      Buffer.add_string buf "end\n";
      Buffer.output_buffer out buf
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
