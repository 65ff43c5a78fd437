(* The served-request benchmark: real wire traffic into one
   [Dqo_serve.Server], closed loop, checked against [Oracle].  See
   README.md for the workloads, the metrics and how to read a traced
   run. *)

module Engine = Dqo_engine.Engine
module Server = Dqo_serve.Server

let now = Unix.gettimeofday

(* CPU seconds of every thread of this process.  Time the host takes
   from the guest's virtual CPUs (steal) is not in it, so a per-request
   CPU cost stays steady on a shared host where wall time does not. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Linear-interpolated quantile of an ascending array. *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let r = p *. Float.of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((r -. Float.of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = quantile (sorted l) 0.5

(* Peak resident set of this process, from [VmHWM] in /proc. *)
let max_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> Float.of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* --- one served database ------------------------------------------------ *)

type env = {
  srv : Server.t;
  engine : Engine.t;
  tables : Gen.table list;
  conn : Conn.t * string;  (* the client's connection and its session id *)
  probe : Server.session;  (* in-process session for plan lookups *)
  own_prepares : int Atomic.t;  (* cache hits that session caused *)
  served : int Atomic.t;  (* timed requests so far *)
  rss_mb : float option Atomic.t;  (* peak memory once [rss_after] were served *)
}

type config = {
  data : int -> Gen.table list;  (* the seed's tables *)
  opts : Engine.opts;
  workers : int;
  advisor : Dqo_advisor.Advisor.config option;
}

(* Data generation, [register], server start and connection set-up:
   everything [setup_s] times. *)
let setup cfg seed =
  let tables = cfg.data seed in
  let engine = Engine.create ~opts:cfg.opts () in
  List.iter (fun t -> Engine.register engine ~name:t.Gen.name (Gen.relation t)) tables;
  let srv = Server.create ~workers:cfg.workers ?advisor:cfg.advisor engine in
  let c = Conn.connect srv in
  { srv; engine; tables; conn = (c, Conn.open_session c); probe = Server.open_session srv;
    own_prepares = Atomic.make 0; served = Atomic.make 0; rss_mb = Atomic.make None }

let teardown env =
  Conn.close (fst env.conn);
  Server.shutdown env.srv

(* Set up [n] times and keep the last; the median CPU time is
   [setup_s]. *)
let setups = 9

let timed_setups n cfg seed =
  let rec go i times =
    let t0 = cpu_now () in
    let env = setup cfg seed in
    let times = (cpu_now () -. t0) :: times in
    if i = n then (median times, env)
    else (
      teardown env;
      Gc.full_major ();
      go (i + 1) times)
  in
  go 1 []

(* --- the client's tally ---------------------------------------------------- *)

type tally = {
  mutable lat_ms : float list;  (* wall time of each timed request *)
  mutable cpu_ms : float list;  (* process CPU time of each timed request *)
  mutable attempted : int;
  mutable errors : int;  (* [error] replies *)
  mutable kept : (Gen.stmt * string * string list) list;  (* replies to check *)
}

let tally () = { lat_ms = []; cpu_ms = []; attempted = 0; errors = 0; kept = [] }

(* Check the first reply of every statement and every
   [check_every]-th after it. *)
let check_every = 16

let failed_request t reply =
  t.attempted <- t.attempted + 1;
  t.errors <- t.errors + 1;
  Printf.eprintf "failed: %s\n%!" reply

let exec_request t (c, session) ~stmt_id ~(st : Gen.stmt) ~keep =
  match Conn.exec c ~session ~stmt:stmt_id ~keep with
  | Ok (header, rows) ->
    t.attempted <- t.attempted + 1;
    if keep then t.kept <- (st, header, rows) :: t.kept
  | Error reply -> failed_request t (Gen.sql st ^ "\n  " ^ reply)
  | exception Conn.Protocol reply -> failed_request t (Gen.sql st ^ "\n  " ^ reply)

(* The plan the server is serving for [sql], through the in-process
   session; counted so the workload's cache hits can be told apart. *)
let served_plan env sql =
  Atomic.incr env.own_prepares;
  Server.stmt_prepared (Server.prepare env.probe sql)

(* --- tracing probes -----------------------------------------------------
   Out-of-band layer measurements for one served request, taken after
   its round trip so they never sit inside a timed request. *)

let classify op =
  let has sub =
    let n = String.length sub and m = String.length op in
    let rec go i = i + n <= m && (String.sub op i n = sub || go (i + 1)) in
    go 0
  in
  if String.length op >= 7 && String.sub op 0 7 = "Filter(" then `Filter
  else if has "(key=" then `Group
  else if has " = " then `Join
  else `Other

(* Self time (node minus children) of each operator class the tree
   has, and the join nanoseconds per input row, from an
   [Explain.analyzed] tree. *)
let self_times (root : Dqo_opt.Explain.analyzed) =
  let acc = Hashtbl.create 4 in
  let add k v = Hashtbl.replace acc k (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc k)) in
  let rec walk (n : Dqo_opt.Explain.analyzed) =
    let kids_ns = List.fold_left (fun s (k : Dqo_opt.Explain.analyzed) -> s + k.wall_ns) 0 n.children in
    let self = Float.of_int (max 0 (n.wall_ns - kids_ns)) in
    (match classify n.op with
    | `Join ->
      add "join_ns" self;
      add "join_in_rows"
        (Float.of_int (List.fold_left (fun s (k : Dqo_opt.Explain.analyzed) -> s + k.actual_rows) 0 n.children))
    | `Group -> add "group_ns" self
    | `Filter -> add "filter_ns" self
    | `Other -> ());
    List.iter walk n.children
  in
  walk root;
  let ms k = Option.map (fun ns -> (k ^ "_ms", ns /. 1e6)) (Hashtbl.find_opt acc (k ^ "_ns")) in
  let per_row =
    match (Hashtbl.find_opt acc "join_ns", Hashtbl.find_opt acc "join_in_rows") with
    | Some ns, Some rows when rows > 0.0 -> Some ("join_ns_per_row", ns /. rows)
    | _ -> None
  in
  ("max_q", Dqo_opt.Explain.max_q_error root)
  :: List.filter_map Fun.id [ ms "join"; ms "group"; ms "filter"; per_row ]

let key_columns (st : Gen.stmt) =
  st.key :: List.concat_map (fun (_, l, r) -> [ l; r ]) st.joins

let column env name =
  List.find_map (fun t -> List.assoc_opt name t.Gen.cols) env.tables |> Option.get

(* Parse, bind and (for exhaustively planned statements) the DP search,
   each timed on its own. *)
let probe_planning tr env ~req ~(st : Gen.stmt) sql =
  Trace.span tr ~req "probe.plan" (fun parent ->
      let ast = Trace.span tr ~parent ~req "sql.parse" (fun _ -> Dqo_sql.Parser.parse sql) in
      let catalog = Engine.catalog env.engine in
      let logical = Trace.span tr ~parent ~req "sql.bind" (fun _ -> Dqo_sql.Binder.bind catalog ast) in
      if st.rels <= (Engine.opts env.engine).Engine.hier_threshold then
        ignore
          (Trace.span tr ~parent ~req "opt.plan"
             ~attrs:(fun (_, (s : Dqo_opt.Search.stats)) ->
               let generated = s.plans_considered + s.enforcers_added in
               [ ("plans_considered", Float.of_int s.plans_considered);
                 ("pareto_kept", Float.of_int s.pareto_kept);
                 ("kept_ratio",
                  Float.of_int (generated - s.candidates_pruned) /. Float.of_int (max 1 generated)) ])
             (fun _ -> Dqo_opt.Search.optimize_entries Dqo_opt.Search.Deep catalog logical)))

(* Execute, digest, analysed execution and column statistics of the
   plan the server is serving for [sql]. *)
let probe_execution tr env ~req ~(st : Gen.stmt) ~roundtrip_ms sql =
  let prepared = served_plan env sql in
  try
    Trace.span tr ~req "probe.exec"
      ~attrs:(fun (exec_ms, digest_ms) -> [ ("wire_ms", roundtrip_ms -. exec_ms -. digest_ms) ])
      (fun parent ->
        let t0 = now () in
        let rel = Trace.span tr ~parent ~req "serve.execute" (fun _ -> Engine.execute_prepared env.engine prepared) in
        let t1 = now () in
        ignore (Trace.span tr ~parent ~req "serve.digest" (fun _ -> Dqo_serve.Wire.digest rel));
        let t2 = now () in
        let plan = (Engine.prepared_entry prepared).Dqo_opt.Pareto.plan in
        ignore
          (Trace.span tr ~parent ~req "exec.analyzed"
             ~attrs:(fun (_, tree) -> self_times tree)
             (fun _ -> Engine.execute_analyzed env.engine plan));
        Trace.span tr ~parent ~req "data.col_stats" (fun _ ->
            List.iter
              (fun c -> ignore (Dqo_data.Col_stats.analyze (Dqo_data.Int_col.of_array (column env c))))
              (key_columns st));
        ((t1 -. t0) *. 1000.0, (t2 -. t1) *. 1000.0))
    |> ignore
  with Engine.Stale_plan _ -> ()  (* an advisor tick raced the lookup *)

(* --- workloads ---------------------------------------------------------- *)

type run = {
  env : env;
  tally : tally;
  wall_s : float;  (* the timed phase *)
  cpu_s : float;  (* process CPU during the timed phase *)
  cost_sqls : string list;  (* statements whose plan costs are reported *)
  tick : (float * int * int) option;  (* advise round trip ms, installed, bytes *)
}

let cost_of env sql = (Engine.prepared_entry (served_plan env sql)).Dqo_opt.Pareto.cost

(* [f] under a span when tracing. *)
let spanned tr ~req name f =
  match tr with Some tr -> Trace.span tr ~req name (fun _ -> f ()) | None -> f ()

(* Peak memory is read once a run has served this many timed requests,
   so a build that serves more of them in the same time is not charged
   for the extra ones.  On plan-wide that is before the first
   17-relation statement (the 80th): planning it alone raised the peak
   by 10-17 MB, by its seed-drawn filters, and spread the peak across
   seeds by 0.11 (quartile distance over median) against 0.04 before
   it. *)
let rss_after = 75

(* Time one request, wall and CPU, into [t]; the same clocks traced or
   not.  Returns the wall time in ms. *)
let timed env tr t ~req f =
  let t0 = now () and c0 = cpu_now () in
  spanned tr ~req "request" f;
  let ms = (now () -. t0) *. 1000.0 in
  t.cpu_ms <- ((cpu_now () -. c0) *. 1000.0) :: t.cpu_ms;
  t.lat_ms <- ms :: t.lat_ms;
  if Atomic.fetch_and_add env.served 1 = rss_after - 1 then Atomic.set env.rss_mb (Some (max_rss_mb ()));
  ms

let req_counter = Atomic.make 0

(* sec43-serve: one client, one prepared §4.3 statement, executed over
   and over. *)
let sec43 env ~seconds ~tr =
  let conn = env.conn in
  let st = Gen.sec43_stmt and sql = Gen.sql Gen.sec43_stmt in
  let t = tally () in
  Option.iter (fun tr -> probe_planning tr env ~req:0 ~st sql) tr;
  let stmt_id =
    spanned tr ~req:0 "serve.prepare_miss" (fun () -> Conn.prepare (fst conn) ~session:(snd conn) sql)
  in
  (* Two untimed warm-up executions; the first is checked. *)
  for i = 0 to 1 do
    exec_request t conn ~stmt_id ~st ~keep:(i = 0)
  done;
  let t0 = now () and c0 = cpu_now () in
  let deadline = t0 +. seconds in
  let i = ref 0 in
  while now () < deadline do
    let req = Atomic.fetch_and_add req_counter 1 in
    let keep = !i mod check_every = 0 in
    let ms = timed env tr t ~req (fun () -> exec_request t conn ~stmt_id ~st ~keep) in
    (match tr with
    | Some tr when !i mod 4 = 0 -> probe_execution tr env ~req ~st ~roundtrip_ms:ms sql
    | _ -> ());
    incr i
  done;
  { env; tally = t; wall_s = now () -. t0; cpu_s = cpu_now () -. c0; cost_sqls = [ sql ]; tick = None }

(* plan-wide: one client, every statement new: prepare (a cache miss)
   then exec once; the pair is one request. *)
let plan_wide env ~seed ~seconds ~tr =
  let conn = env.conn in
  let next = Gen.wide_stream seed in
  let t = tally () in
  let t0 = now () and c0 = cpu_now () in
  let deadline = t0 +. seconds in
  while now () < deadline do
    let st, sql = next () in
    let req = Atomic.fetch_and_add req_counter 1 in
    let exec_ms = ref 0.0 in
    ignore
      (timed env tr t ~req (fun () ->
           match
             spanned tr ~req "serve.prepare_miss" (fun () ->
                 Conn.prepare (fst conn) ~session:(snd conn) sql)
           with
           | stmt_id ->
             let t0 = now () in
             exec_request t conn ~stmt_id ~st ~keep:true;
             exec_ms := (now () -. t0) *. 1000.0
           | exception Conn.Protocol reply -> failed_request t reply));
    Option.iter
      (fun tr ->
        probe_planning tr env ~req ~st sql;
        probe_execution tr env ~req ~st ~roundtrip_ms:!exec_ms sql)
      tr
  done;
  (* The plan-cost guard covers one whole rotation of shapes: the same
     statements on every run of a seed, however many a run serves. *)
  let wall_s = now () -. t0 and cpu_s = cpu_now () -. c0 in
  let fresh = Gen.wide_stream seed in
  { env; tally = t; wall_s; cpu_s;
    cost_sqls = List.map (fun _ -> snd (fresh ())) Gen.wide_rotation; tick = None }

(* skew-adaptive: one client round-robins three statements over the
   feedback- and advisor-enabled server, and forces one advisor tick
   after its [advise_at]-th request. *)
let advise_at = 30

let skew env ~seconds ~tr =
  let stmts = Array.of_list Gen.skew_stmts in
  let sqls = Array.map Gen.sql stmts in
  let c, session = env.conn in
  let ids =
    Array.mapi
      (fun k sql ->
        Option.iter (fun tr -> probe_planning tr env ~req:0 ~st:stmts.(k) sql) tr;
        spanned tr ~req:0 "serve.prepare_miss" (fun () -> Conn.prepare c ~session sql))
      sqls
  in
  let t = tally () in
  let tick = ref None in
  let t0 = now () and c0 = cpu_now () in
  let deadline = t0 +. seconds in
  let i = ref 0 in
  while now () < deadline do
    let k = !i mod Array.length stmts in
    let req = Atomic.fetch_and_add req_counter 1 in
    let keep = !i / Array.length stmts mod check_every = 0 in
    let ms = timed env tr t ~req (fun () -> exec_request t env.conn ~stmt_id:ids.(k) ~st:stmts.(k) ~keep) in
    (match tr with
    | Some tr when !i mod 8 = 0 -> probe_execution tr env ~req ~st:stmts.(k) ~roundtrip_ms:ms sqls.(k)
    | _ -> ());
    incr i;
    if !i = advise_at then begin
      let a0 = now () in
      match spanned tr ~req "advisor.tick" (fun () -> Conn.command c ~expect:"advisor" "advise") with
      | reply ->
        let ms = (now () -. a0) *. 1000.0 in
        Scanf.sscanf reply "installed=%d evicted=%_d bytes=%d" (fun inst bytes ->
            tick := Some (ms, inst, bytes))
      | exception Conn.Protocol reply -> failed_request t reply
    end
  done;
  { env; tally = t; wall_s = now () -. t0; cpu_s = cpu_now () -. c0; cost_sqls = Array.to_list sqls;
    tick = !tick }

(* Every workload is one closed-loop client on one server worker with
   a one-domain executor.  On a two-vCPU host a second client, worker
   or executor domain runs more domains than there are CPUs; latency
   then measures the host's scheduler more than the program, and two
   clients queueing for one worker make the latency distribution
   bimodal, with its median between the modes. *)
let workloads =
  let base = { Engine.default_opts with Engine.mode = Engine.DQO; threads = 1 } in
  [ ( "sec43-serve",
      ( { data = Gen.sec43_tables; opts = base; workers = 1; advisor = None },
        fun env ~seed:_ -> sec43 env ) );
    ( "plan-wide",
      ( { data = Gen.wide_tables; opts = base; workers = 1; advisor = None },
        fun env ~seed -> plan_wide env ~seed ) );
    ( "skew-adaptive",
      ( { data = Gen.skew_tables;
          opts = { base with feedback = true };
          workers = 1;
          advisor = Some Dqo_advisor.Advisor.default_config },
        fun env ~seed:_ -> skew env ) ) ]

(* --- checking and reporting --------------------------------------------- *)

(* Run the oracle over every kept reply: the number of mismatches, and
   the replies checked per statement shape. *)
let verify run =
  let memo = Hashtbl.create 16 in
  let coverage = Hashtbl.create 8 in
  let wrong = ref 0 in
  List.iter
    (fun ((st : Gen.stmt), header, rows) ->
      let expected =
        match Hashtbl.find_opt memo st with
        | Some e -> e
        | None ->
          let e = Oracle.eval run.env.tables st in
          Hashtbl.add memo st e;
          e
      in
      Hashtbl.replace coverage st.shape (1 + Option.value ~default:0 (Hashtbl.find_opt coverage st.shape));
      if not (Oracle.check ~expected ~cols:(1 + List.length st.aggs) ~header ~rows) then begin
        incr wrong;
        Printf.eprintf "oracle mismatch (%d rows expected): %s\n  got %s\n%!" (List.length expected) (Gen.sql st)
          header
      end)
    run.tally.kept;
  (!wrong, List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) coverage []))

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

let cpu_latencies run = sorted run.tally.cpu_ms

(* Wall-clock latency and rate.  On a shared host they move with the
   time the host takes from the guest, so they are printed for reading
   but are not result metrics. *)
let wall_line run =
  let lat = sorted run.tally.lat_ms in
  Printf.sprintf "wall clock: p50 %.4f ms, p95 %.4f ms, %.4f req/s" (quantile lat 0.5) (quantile lat 0.95)
    (Float.of_int (Array.length lat) /. run.wall_s)

let end_to_end run ~setup_s ~attempted ~failed ~plan_costs =
  let cpu = cpu_latencies run in
  let geomean l = exp (List.fold_left (fun s c -> s +. log c) 0.0 l /. Float.of_int (List.length l)) in
  [ m "cpu_p50_ms" (quantile cpu 0.5) "ms";
    m "cpu_p95_ms" (quantile cpu 0.95) "ms";
    m "cpu_ms_per_req" (run.cpu_s *. 1000.0 /. Float.of_int (Array.length cpu)) "ms";
    m "ok_frac" (Float.of_int (attempted - failed) /. Float.of_int attempted) "ratio";
    m "setup_s" setup_s "s";
    m "max_rss_mb" (Option.value (Atomic.get run.env.rss_mb) ~default:(max_rss_mb ())) "MB";
    m "plan_cost_geomean" (geomean plan_costs) "cost" ]

(* The server's registry as the workload left it: read before the
   plan-cost lookups, whose cache hits the workload never asked for. *)
let server_counters env =
  let reg = Server.metrics env.srv in
  let c name = Float.of_int (Dqo_obs.Metrics.counter reg name) in
  let qwait p =
    match Dqo_obs.Metrics.find_hist reg "serve.queue_wait_ms" with
    | Some h when Dqo_obs.Metrics.hist_count h > 0 -> Dqo_obs.Metrics.hist_quantile h p
    | _ -> 0.0
  in
  (* Lookups by the probes are not the workload's hits either. *)
  let hits = c "serve.cache_hits" -. Float.of_int (Atomic.get env.own_prepares) in
  let misses = c "serve.cache_misses" in
  [ m "serve.queue_wait_p50_ms" (qwait 0.5) "ms";
    m "serve.queue_wait_p95_ms" (qwait 0.95) "ms";
    m "serve.rejected" (c "serve.rejected") "count";
    m "serve.cache_hits" hits "count";
    m "serve.cache_misses" misses "count";
    m "serve.cache_hit_ratio" (hits /. Float.max 1.0 (hits +. misses)) "ratio";
    m "serve.replans" (c "serve.replans") "count";
    m "feedback.replans" (c "feedback.replans") "count" ]

(* Per-layer metrics of a traced run; [overhead_ms] is its CPU-time p50
   minus that of the untraced run made just before it. *)
let per_layer run tr ~counters ~overhead_ms =
  let spans name = Trace.named tr name in
  let med_ms name = median (List.map Trace.ms (spans name)) in
  let attrs name k = List.filter_map (fun s -> List.assoc_opt k s.Trace.attrs) (spans name) in
  let med_attr name k = median (attrs name k) in
  (* With feedback on, the server saw every execution's q-errors,
     including misestimates corrected before any probe ran. *)
  let feedback_q =
    match Dqo_obs.Metrics.find_hist (Server.metrics run.env.srv) "feedback.qerror" with
    | Some h when Dqo_obs.Metrics.hist_count h > 0 -> [ Dqo_obs.Metrics.hist_quantile h 1.0 ]
    | _ -> []
  in
  let tick_ms, installed, bytes =
    match run.tick with
    | Some (ms, i, b) -> (ms, Float.of_int i, Float.of_int b)
    | None -> (0.0, 0.0, 0.0)
  in
  [ m "sql.parse_ms" (med_ms "sql.parse") "ms";
    m "sql.bind_ms" (med_ms "sql.bind") "ms";
    m "opt.plan_ms" (med_ms "opt.plan") "ms";
    m "opt.plans_considered" (med_attr "opt.plan" "plans_considered") "count";
    m "opt.pareto_kept" (med_attr "opt.plan" "pareto_kept") "count";
    m "opt.kept_ratio" (med_attr "opt.plan" "kept_ratio") "ratio";
    m "serve.prepare_miss_ms" (med_ms "serve.prepare_miss") "ms";
    m "data.col_stats_ms" (med_ms "data.col_stats") "ms";
    m "exec.join_self_ms" (med_attr "exec.analyzed" "join_ms") "ms";
    m "exec.group_self_ms" (med_attr "exec.analyzed" "group_ms") "ms";
    m "exec.filter_self_ms" (med_attr "exec.analyzed" "filter_ms") "ms";
    m "exec.join_ns_per_row" (med_attr "exec.analyzed" "join_ns_per_row") "ns/row";
    m "serve.execute_ms" (med_ms "serve.execute") "ms";
    m "serve.digest_ms" (med_ms "serve.digest") "ms";
    m "serve.wire_ms" (med_attr "probe.exec" "wire_ms") "ms" ]
  @ counters
  @ [ m "cost.max_qerror" (List.fold_left Float.max 1.0 (feedback_q @ attrs "exec.analyzed" "max_q")) "ratio";
      m "advisor.tick_ms" tick_ms "ms";
      m "advisor.installed" installed "count";
      m "advisor.av_bytes" bytes "bytes";
      m "trace.overhead_ms" overhead_ms "ms" ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let report ~workload ~correct ~attempted ~failed ~coverage ~wall ~samples metrics =
  Printf.printf "== %s ==\n" workload;
  List.iter (fun x -> Printf.printf "  %-26s %16.4f %s\n" x.name x.value x.unit_) metrics;
  Printf.printf "  %s\n" wall;
  Printf.printf "  timed requests %d (%d above p95); attempted %d, failed %d; oracle checks:%s\n"
    samples (samples / 20) attempted failed
    (String.concat "" (List.map (fun (s, n) -> Printf.sprintf " %s=%d" s n) coverage));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
          metrics))

type served = {
  run : run;
  setup_s : float;
  attempted : int;
  failed : int;
  coverage : (string * int) list;
  counters : metric list;
  plan_costs : float list;
}

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  sec43-serve | plan-wide | skew-adaptive");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed phase (default 30)");
      ("--trace", Arg.Set_int trace, "0|1  1: traced run, per-layer metrics") ]
    (fun a -> raise (Arg.Bad a))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let cfg, body =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let serve ~setups ~seconds ~tr =
    let setup_s, env = timed_setups setups cfg !seed in
    let run = body env ~seed:!seed ~seconds ~tr in
    let counters = server_counters env in
    let plan_costs = List.map (cost_of env) run.cost_sqls in
    let wrong, coverage = verify run in
    teardown env;
    let attempted = run.tally.attempted in
    let failed = wrong + run.tally.errors in
    { run; setup_s; attempted; failed; coverage; counters; plan_costs }
  in
  let p50 s = quantile (cpu_latencies s.run) 0.5 in
  let final, attempted, failed, metrics =
    if !trace = 0 then
      let s = serve ~setups ~seconds:!seconds ~tr:None in
      ( s, s.attempted, s.failed,
        end_to_end s.run ~setup_s:s.setup_s ~attempted:s.attempted ~failed:s.failed ~plan_costs:s.plan_costs )
    else begin
      (* Untraced, then traced, each on a fresh server over the same
         inputs and for half the time. *)
      let half = !seconds /. 2.0 in
      let plain = serve ~setups:1 ~seconds:half ~tr:None in
      let tr = Trace.create () in
      let s = serve ~setups:1 ~seconds:half ~tr:(Some tr) in
      (try Sys.mkdir "perfbench/traces" 0o755 with Sys_error _ -> ());
      Trace.write tr (Printf.sprintf "perfbench/traces/%s-seed%d.jsonl" !workload !seed);
      ( s, plain.attempted + s.attempted, plain.failed + s.failed,
        per_layer s.run tr ~counters:s.counters ~overhead_ms:(p50 s -. p50 plain) )
    end
  in
  let correct = failed = 0 in
  report ~workload:!workload ~correct ~attempted ~failed ~coverage:final.coverage
    ~wall:(wall_line final.run) ~samples:(Array.length (cpu_latencies final.run)) metrics;
  if not correct then exit 1
