(* The serving front end: one long-lived pool, a bounded request queue,
   and a pool of executor threads multiplexing prepared-statement
   executions onto it.  See server.mli for the full contract.

   Concurrency shape: executor threads and client threads are
   systhreads sharing the main domain; the real parallelism lives in
   the pool's worker domains.  An executor thread entering a parallel
   region participates as the pool's worker 0 and blocks until the
   barrier, at which point the runtime schedules another systhread —
   so queueing, admission, and result collection stay responsive while
   a region runs.  All server state below is guarded by [mutex]; the
   executor drops the lock around the actual execution. *)

module Engine = Dqo_engine.Engine
module Metrics = Dqo_obs.Metrics
module Pool = Dqo_par.Pool
module Advisor = Dqo_advisor.Advisor

exception Session_closed
exception Overloaded of { limit : int }

type stmt = {
  id : int;
  sql : string;
  mode : Engine.mode;
  prepared : Engine.prepared;
}

type outcome = Pending | Done of Dqo_data.Relation.t | Failed of exn

type ticket = {
  server : server;
  mutable outcome : outcome;
  mutable collected : bool; (* admission slot already released *)
}

and request = { r_stmt : stmt; r_ticket : ticket; submitted_ns : int }

and session = { s_id : int; s_server : server; mutable closed : bool }

and server = {
  eng : Engine.t;
  pool : Pool.t;
  limit : int;
  mutex : Mutex.t;
  have_work : Condition.t; (* queue non-empty, resume after pause, or stop *)
  done_cond : Condition.t; (* some ticket completed *)
  idle_cond : Condition.t; (* executing dropped to 0, or a pause ended *)
  queue : request Queue.t;
  cache : (string * Engine.mode, stmt) Hashtbl.t;
  m : Metrics.t;
  advisor : Advisor.t option;
  mutable inflight : int;
  mutable executing : int; (* requests currently inside an execution *)
  mutable paused : bool; (* advisor quiesce: workers must not start new work *)
  mutable next_session : int;
  mutable next_stmt : int;
  mutable stop : bool;
  mutable threads_joined : bool;
  mutable exec_threads : Thread.t list;
  mutable advisor_thread : Thread.t option;
}

type t = server

let ms_of_ns ns = Float.of_int ns /. 1e6

(* Executor thread: pull a request, revalidate its plan against the
   engine generation (under the lock — re-prepares are rare and must
   not race each other), run it on the shared pool (lock dropped), then
   publish the outcome and record the request's metrics. *)
let rec worker_loop srv =
  Mutex.lock srv.mutex;
  (* [paused] keeps workers from starting new executions while the
     advisor changes the physical design; shutdown still drains. *)
  while (Queue.is_empty srv.queue || srv.paused) && not srv.stop do
    Condition.wait srv.have_work srv.mutex
  done;
  if Queue.is_empty srv.queue then (* stop, and the queue is drained *)
    Mutex.unlock srv.mutex
  else begin
    let req = Queue.pop srv.queue in
    let dequeued_ns = Metrics.now_ns () in
    Metrics.observe
      (Metrics.hist srv.m "serve.queue_wait_ms")
      (ms_of_ns (dequeued_ns - req.submitted_ns));
    let stale = Engine.prepared_stale srv.eng req.r_stmt.prepared in
    let drifted =
      (not stale) && Engine.prepared_drifted srv.eng req.r_stmt.prepared
    in
    if stale || drifted then begin
      (* The replan's DP search fans out over the shared pool, like the
         execution that follows.  A drifted plan replans against the
         correction store updated by the execution that crossed the
         threshold — the feedback loop closing without any client
         intervention. *)
      Engine.reprepare_on srv.eng ~pool:srv.pool req.r_stmt.prepared;
      Metrics.incr srv.m "serve.replans";
      if drifted then Metrics.incr srv.m "feedback.replans"
    end;
    srv.executing <- srv.executing + 1;
    Mutex.unlock srv.mutex;
    (* Feedback metrics (q-error histogram, observation counts) land in
       a private registry merged under the lock below: [srv.m] is only
       ever touched with the mutex held. *)
    let fbm = Metrics.create () in
    let outcome =
      match
        Engine.execute_prepared_on srv.eng ~pool:srv.pool ~metrics:fbm
          req.r_stmt.prepared
      with
      | rel -> Done rel
      | exception e -> Failed e
    in
    let latency_ms = ms_of_ns (Metrics.now_ns () - req.submitted_ns) in
    (* Feed the advisor's workload log outside the server lock (the log
       is a leaf lock of its own); only successful executions count as
       observed workload. *)
    (match (srv.advisor, outcome) with
    | Some adv, Done _ ->
      Advisor.observe adv ~sql:req.r_stmt.sql ~mode:req.r_stmt.mode
        ~latency_ms
    | (Some _ | None), _ -> ());
    Mutex.lock srv.mutex;
    srv.executing <- srv.executing - 1;
    if srv.executing = 0 then Condition.broadcast srv.idle_cond;
    Metrics.merge ~into:srv.m fbm;
    Metrics.incr srv.m "serve.requests";
    Metrics.observe (Metrics.hist srv.m "serve.latency_ms") latency_ms;
    (match outcome with
    | Done rel ->
      Metrics.incr srv.m ~by:(Dqo_data.Relation.cardinality rel)
        "serve.rows_out"
    | Failed _ -> Metrics.incr srv.m "serve.failed"
    | Pending -> assert false);
    req.r_ticket.outcome <- outcome;
    Condition.broadcast srv.done_cond;
    Mutex.unlock srv.mutex;
    worker_loop srv
  end

(* Quiesce the executors, run one advisor round against the engine, and
   resume.  Holding [mutex] across the whole engine mutation is what
   makes DDL safe: workers are parked on [have_work] (paused), nothing
   is mid-execution ([executing] = 0), and prepares block on the same
   mutex. *)
let advisor_tick srv =
  match srv.advisor with
  | None -> None
  | Some adv ->
    Mutex.lock srv.mutex;
    (* One tick at a time. *)
    while srv.paused && not srv.stop do
      Condition.wait srv.idle_cond srv.mutex
    done;
    if srv.stop then begin
      Mutex.unlock srv.mutex;
      None
    end
    else begin
      srv.paused <- true;
      while srv.executing > 0 && not srv.stop do
        Condition.wait srv.idle_cond srv.mutex
      done;
      let report =
        if srv.stop then None
        else
          match Advisor.tick adv with
          | r -> Some r
          | exception e ->
            srv.paused <- false;
            Condition.broadcast srv.have_work;
            Condition.broadcast srv.idle_cond;
            Mutex.unlock srv.mutex;
            raise e
      in
      (match report with
      | Some r ->
        Metrics.incr srv.m "advisor.ticks";
        Metrics.incr srv.m
          ~by:(List.length r.Advisor.installed)
          "advisor.installed";
        Metrics.incr srv.m ~by:(List.length r.Advisor.evicted)
          "advisor.evicted"
      | None -> ());
      srv.paused <- false;
      Condition.broadcast srv.have_work;
      Condition.broadcast srv.idle_cond;
      Mutex.unlock srv.mutex;
      report
    end

(* Background advisor: tick every [interval] seconds until shutdown.
   The sleep is chunked so a long interval never delays shutdown by
   more than ~50ms. *)
let advisor_loop srv interval =
  let stopped () =
    Mutex.lock srv.mutex;
    let s = srv.stop in
    Mutex.unlock srv.mutex;
    s
  in
  let rec loop () =
    if not (stopped ()) then begin
      let slept = ref 0.0 in
      while !slept < interval && not (stopped ()) do
        let chunk = Float.min 0.05 (interval -. !slept) in
        Thread.delay chunk;
        slept := !slept +. chunk
      done;
      if not (stopped ()) then begin
        ignore (advisor_tick srv);
        loop ()
      end
    end
  in
  loop ()

let create ?(max_inflight = 64) ?(workers = 4) ?threads ?advisor
    ?(advisor_interval = 0.0) eng =
  if max_inflight < 1 then invalid_arg "Server.create: max_inflight < 1";
  if workers < 1 then invalid_arg "Server.create: workers < 1";
  if advisor_interval < 0.0 then
    invalid_arg "Server.create: advisor_interval < 0";
  let domains =
    match threads with Some n -> n | None -> (Engine.opts eng).Engine.threads
  in
  let srv =
    {
      eng;
      pool = Pool.create ~domains ();
      limit = max_inflight;
      mutex = Mutex.create ();
      have_work = Condition.create ();
      done_cond = Condition.create ();
      idle_cond = Condition.create ();
      queue = Queue.create ();
      cache = Hashtbl.create 32;
      m = Metrics.create ();
      advisor = Option.map (fun config -> Advisor.create ~config eng) advisor;
      inflight = 0;
      executing = 0;
      paused = false;
      next_session = 0;
      next_stmt = 0;
      stop = false;
      threads_joined = false;
      exec_threads = [];
      advisor_thread = None;
    }
  in
  srv.exec_threads <-
    List.init workers (fun _ -> Thread.create worker_loop srv);
  (match srv.advisor with
  | Some _ when advisor_interval > 0.0 ->
    srv.advisor_thread <-
      Some (Thread.create (fun () -> advisor_loop srv advisor_interval) ())
  | Some _ | None -> ());
  srv

let shutdown srv =
  Mutex.lock srv.mutex;
  srv.stop <- true;
  Condition.broadcast srv.have_work;
  Condition.broadcast srv.idle_cond;
  let join = not srv.threads_joined in
  srv.threads_joined <- true;
  Mutex.unlock srv.mutex;
  if join then begin
    List.iter Thread.join srv.exec_threads;
    srv.exec_threads <- [];
    (match srv.advisor_thread with
    | Some th ->
      Thread.join th;
      srv.advisor_thread <- None
    | None -> ());
    Pool.shutdown srv.pool
  end

let engine srv = srv.eng
let pool_size srv = Pool.size srv.pool
let max_inflight srv = srv.limit
let advisor srv = srv.advisor

let in_flight srv =
  Mutex.lock srv.mutex;
  let n = srv.inflight in
  Mutex.unlock srv.mutex;
  n

let metrics srv = srv.m

(* --- sessions ------------------------------------------------------- *)

let open_session srv =
  Mutex.lock srv.mutex;
  srv.next_session <- srv.next_session + 1;
  let s = { s_id = srv.next_session; s_server = srv; closed = false } in
  Metrics.incr srv.m "serve.sessions";
  Mutex.unlock srv.mutex;
  s

let session_id s = s.s_id

let close_session s =
  let srv = s.s_server in
  Mutex.lock srv.mutex;
  s.closed <- true;
  Mutex.unlock srv.mutex

let check_open s = if s.closed then raise Session_closed

(* --- prepared-statement cache ---------------------------------------- *)

let prepare s ?mode sql =
  let srv = s.s_server in
  Mutex.lock srv.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock srv.mutex)
    (fun () ->
      check_open s;
      let mode =
        match mode with Some m -> m | None -> (Engine.opts srv.eng).Engine.mode
      in
      match Hashtbl.find_opt srv.cache (sql, mode) with
      | Some st ->
        Metrics.incr srv.m "serve.cache_hits";
        (* Revalidate eagerly so prepare-time errors surface here and
           the hot submit path usually finds a fresh plan. *)
        if Engine.prepared_stale srv.eng st.prepared then begin
          Engine.reprepare_on srv.eng ~pool:srv.pool st.prepared;
          Metrics.incr srv.m "serve.replans"
        end;
        st
      | None ->
        Metrics.incr srv.m "serve.cache_misses";
        (* Plan on the shared pool: the lock order (session mutex, then
           the pool's submission lock) matches the executor threads,
           which never take the session mutex while inside a region.
           The id is taken only once planning succeeded, so a failed
           prepare consumes none. *)
        let prepared = Engine.prepare_on srv.eng ~pool:srv.pool ~mode sql in
        srv.next_stmt <- srv.next_stmt + 1;
        let st = { id = srv.next_stmt; sql; mode; prepared } in
        Hashtbl.add srv.cache (sql, mode) st;
        st)

let stmt_id st = st.id
let stmt_sql st = st.sql
let stmt_prepared st = st.prepared

(* --- execution -------------------------------------------------------- *)

let submit s st =
  let srv = s.s_server in
  Mutex.lock srv.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock srv.mutex)
    (fun () ->
      check_open s;
      if srv.stop then invalid_arg "Server.submit: server is shut down";
      if srv.inflight >= srv.limit then begin
        Metrics.incr srv.m "serve.rejected";
        raise (Overloaded { limit = srv.limit })
      end;
      srv.inflight <- srv.inflight + 1;
      let ticket = { server = srv; outcome = Pending; collected = false } in
      Queue.push
        { r_stmt = st; r_ticket = ticket; submitted_ns = Metrics.now_ns () }
        srv.queue;
      Condition.signal srv.have_work;
      ticket)

let pending ticket =
  match ticket.outcome with Pending -> true | Done _ | Failed _ -> false

let await ticket =
  let srv = ticket.server in
  Mutex.lock srv.mutex;
  while pending ticket do
    Condition.wait srv.done_cond srv.mutex
  done;
  if not ticket.collected then begin
    ticket.collected <- true;
    srv.inflight <- srv.inflight - 1
  end;
  let outcome = ticket.outcome in
  Mutex.unlock srv.mutex;
  match outcome with
  | Done rel -> rel
  | Failed e -> raise e
  | Pending -> assert false

let execute s st = await (submit s st)
