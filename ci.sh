#!/bin/sh
# CI entry point: build, run the full test matrix, then smoke-check the
# bench harness's machine-readable output at a tiny scale.
set -eu

cd "$(dirname "$0")"

echo "== dune build =="
dune build @all

echo "== dune runtest =="
dune runtest

echo "== bench --json smoke =="
out="$(mktemp -t bench_smoke_XXXXXX.json)"
trap 'rm -f "$out"' EXIT
dune exec bench/main.exe -- --rows 20000 --figure 4 --figure 5 --scaling \
  --opt-scaling --serve --clients 2 --requests 3 --threads 2 --feedback \
  --advisor --json "$out" > /dev/null

test -s "$out" || { echo "ci: $out is empty" >&2; exit 1; }
grep -q '"schema_version": 10' "$out" || { echo "ci: missing schema_version 10" >&2; exit 1; }
grep -q '"threads": 2' "$out" || { echo "ci: missing threads" >&2; exit 1; }
grep -q '"figure4"' "$out" || { echo "ci: missing figure4" >&2; exit 1; }
grep -q '"figure5"' "$out" || { echo "ci: missing figure5" >&2; exit 1; }
grep -q '"median_ms"' "$out" || { echo "ci: figure4 has no measurements" >&2; exit 1; }
grep -q '"factor_dense"' "$out" || { echo "ci: figure5 has no factors" >&2; exit 1; }
grep -q '"parallel_scaling"' "$out" || { echo "ci: missing parallel_scaling" >&2; exit 1; }
grep -q '"speedup_vs_1"' "$out" || { echo "ci: scaling sweep has no speedups" >&2; exit 1; }
grep -q '"optimizer_scaling"' "$out" || { echo "ci: missing optimizer_scaling" >&2; exit 1; }
grep -q '"plans_considered"' "$out" || { echo "ci: optimiser sweep has no search stats" >&2; exit 1; }
grep -q '"plan_identical": true' "$out" || { echo "ci: optimiser sweep recorded no identity checks" >&2; exit 1; }
if grep -q '"plan_identical": false' "$out"; then
  echo "ci: parallel DP search diverged" >&2; exit 1
fi
grep -q '"subproblems"' "$out" || { echo "ci: optimiser sweep has no per-level stats" >&2; exit 1; }
grep -q '"serving"' "$out" || { echo "ci: missing serving sweep" >&2; exit 1; }
grep -q '"p95_ms"' "$out" || { echo "ci: serving sweep has no latencies" >&2; exit 1; }
grep -q '"feedback"' "$out" || { echo "ci: missing feedback sweep" >&2; exit 1; }
grep -q '"q_before"' "$out" || { echo "ci: feedback sweep has no q-errors" >&2; exit 1; }
if grep -q '"converged": false' "$out"; then
  echo "ci: feedback loop failed to converge" >&2; exit 1
fi
grep -q '"advisor"' "$out" || { echo "ci: missing advisor sweep" >&2; exit 1; }
grep -q '"p95_improvement"' "$out" || { echo "ci: advisor sweep has no improvement factor" >&2; exit 1; }
if grep -q '"installed": 0' "$out"; then
  echo "ci: advisor tick installed nothing" >&2; exit 1
fi
if grep -q '"digests_identical": false' "$out"; then
  echo "ci: advisor changed results" >&2; exit 1
fi
if grep -q '"within_budget": false' "$out"; then
  echo "ci: advisor blew the byte budget" >&2; exit 1
fi
# The first materialisation tick must improve the served p95 >= 1.5x
# versus the advisor-off arm.
sed 's/.*"p95_improvement": \([0-9.eE+-]*\).*/\1/;t;d' "$out" \
  | awk '{exit !($1 >= 1.5)}' \
  || { echo "ci: advisor p95 improvement below 1.5x" >&2; exit 1; }
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$out" > /dev/null || { echo "ci: invalid JSON" >&2; exit 1; }
fi

echo "== bench --hier smoke =="
# Hierarchical planning: the one-partition run must be byte-identical
# to the exhaustive search (plans, execution digests, pooled parity),
# a forced multi-partition split must still execute to the same
# digest, and the 40-relation snowflake must plan in bounded time
# (the exhaustive arm is capped at the 10-relation identity schema).
hr_out="$(mktemp -t bench_hier_XXXXXX.json)"
trap 'rm -f "$out" "$hr_out"' EXIT
dune exec bench/main.exe -- --hier --hier-exhaustive-cap 10 \
  --hier-max-relations 40 --json "$hr_out" > /dev/null

grep -q '"hierarchical_planning"' "$hr_out" \
  || { echo "ci: missing hierarchical_planning records" >&2; exit 1; }
grep -q '"kind": "identity"' "$hr_out" \
  || { echo "ci: hier sweep has no identity record" >&2; exit 1; }
grep -q '"plan_identical": true' "$hr_out" \
  || { echo "ci: hier one-partition identity not confirmed" >&2; exit 1; }
if grep -q '"plan_identical": false' "$hr_out"; then
  echo "ci: one-partition hierarchical plan diverged from exhaustive" >&2; exit 1
fi
if grep -q '"digests_identical": false' "$hr_out"; then
  echo "ci: hierarchical and exhaustive plans produced different results" >&2; exit 1
fi
if grep -q '"pooled_identical": false' "$hr_out"; then
  echo "ci: hierarchical search diverged across pool sizes" >&2; exit 1
fi
if grep -q '"split_digest_identical": false' "$hr_out"; then
  echo "ci: multi-partition hierarchical plan changed the result" >&2; exit 1
fi
grep -q '"relations": 40' "$hr_out" \
  || { echo "ci: hier sweep is missing the 40-relation snowflake" >&2; exit 1; }
# The 40-relation hierarchical plan must land in bounded time (< 60 s;
# exhaustive DP would not finish at all).
awk '/"relations": 40/{f=1} f && /"hier_ms":/{gsub(/[",]/,""); print $2; exit}' "$hr_out" \
  | awk 'NR==1{exit !($1 < 60000)} END{if (NR==0) exit 1}' \
  || { echo "ci: 40-relation hierarchical planning took over 60s (or no timing)" >&2; exit 1; }

echo "== bench --paper-scale smoke =="
# The paper-scale sweep at a reduced row count: flat and chunked
# Bigarray backends must produce byte-identical digests across the
# grouping and join sweeps, including the parallel grouping arm.
ps_out="$(mktemp -t bench_paper_XXXXXX.json)"
ps_log="$(mktemp -t bench_paper_XXXXXX.log)"
trap 'rm -f "$out" "$hr_out" "$ps_out" "$ps_log"' EXIT
dune exec bench/main.exe -- --paper-scale --rows 2000000 --threads 2 \
  --json "$ps_out" > "$ps_log"
grep -q 'digest parity: OK' "$ps_log" \
  || { echo "ci: paper-scale digest parity not confirmed" >&2; exit 1; }
grep -q '"schema_version": 10' "$ps_out" \
  || { echo "ci: paper-scale JSON missing schema_version 10" >&2; exit 1; }
grep -q '"paper_scale"' "$ps_out" \
  || { echo "ci: paper-scale JSON missing paper_scale records" >&2; exit 1; }
grep -q '"backend": "chunked32"' "$ps_out" \
  || { echo "ci: paper-scale sweep has no chunked records" >&2; exit 1; }

echo "== dqo run --threads 2 smoke =="
dune exec bin/dqo.exe -- run --threads 2 --r-rows 2000 --s-rows 6000 \
  --groups 1500 > /dev/null

echo "== dqo explain --threads 2 smoke =="
# The parallel plan search must produce byte-identical reports.
ex1="$(dune exec bin/dqo.exe -- explain --threads 1 --r-rows 2000 \
  --s-rows 6000 --groups 1500)"
ex2="$(dune exec bin/dqo.exe -- explain --threads 2 --r-rows 2000 \
  --s-rows 6000 --groups 1500)"
test -n "$ex1" || { echo "ci: explain produced no output" >&2; exit 1; }
test "$ex1" = "$ex2" \
  || { echo "ci: explain differs between --threads 1 and --threads 2" >&2; exit 1; }

echo "== dqo serve --threads 2 smoke =="
serve_out="$(mktemp -t serve_smoke_XXXXXX.txt)"
trap 'rm -f "$out" "$hr_out" "$ps_out" "$ps_log" "$serve_out"' EXIT
printf 'open\nopen\nprepare 1 SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id GROUP BY a\nprepare 2 SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id GROUP BY a\nsubmit 1 1\nsubmit 2 1\nsubmit 1 1\nsubmit 2 1\nwait 1\nwait 2\nwait 3\nwait 4\nstats\nclose 1\nclose 2\nquit\n' \
  | dune exec bin/dqo.exe -- serve --threads 2 --r-rows 2000 --s-rows 6000 \
      --groups 1500 > "$serve_out"

grep -q '^ready pool=2' "$serve_out" || { echo "ci: serve did not start a 2-domain pool" >&2; exit 1; }
grep -q '^ok session 2$' "$serve_out" || { echo "ci: serve sessions failed" >&2; exit 1; }
# Both sessions must get the same cached statement id.
test "$(grep -c '^ok stmt 1$' "$serve_out")" = 2 || { echo "ci: statement cache not shared" >&2; exit 1; }
test "$(grep -c '^result ticket=' "$serve_out")" = 4 || { echo "ci: expected 4 results" >&2; exit 1; }
# Determinism: all four concurrent executions carry one distinct digest.
test "$(grep '^result ticket=' "$serve_out" | sed 's/.*sum=//' | sort -u | wc -l)" = 1 \
  || { echo "ci: concurrent results differ" >&2; exit 1; }
grep -q '^ok stats requests=4' "$serve_out" || { echo "ci: serve stats missing" >&2; exit 1; }
grep -q '^ok bye$' "$serve_out" || { echo "ci: serve did not quit cleanly" >&2; exit 1; }

echo "== dqo serve --feedback smoke =="
# A zipf-skewed S.b makes [b <= 9] badly misestimated: the first
# execution learns corrections, the second finds the cached statement
# drifted and replans it server-side before running.
fb_out="$(mktemp -t serve_feedback_XXXXXX.txt)"
trap 'rm -f "$out" "$hr_out" "$ps_out" "$ps_log" "$serve_out" "$fb_out"' EXIT
printf 'open\nprepare 1 SELECT b, COUNT(*) AS c FROM S WHERE b <= 9 GROUP BY b\nexec 1 1\nstats\nexec 1 1\nstats\nclose 1\nquit\n' \
  | dune exec bin/dqo.exe -- serve --feedback --skew 1.0 --r-rows 2000 \
      --s-rows 6000 --groups 1500 > "$fb_out"

grep -q 'feedback_replans=1' "$fb_out" || { echo "ci: no feedback replan" >&2; exit 1; }
# Replanning must not change the result.
test "$(grep '^result rows=' "$fb_out" | sed 's/.*sum=//' | sort -u | wc -l)" = 1 \
  || { echo "ci: feedback replan changed the result" >&2; exit 1; }
# The worst per-node q-error must improve at least 2x across the replan.
grep '^ok stats' "$fb_out" | sed 's/.*last_max_q=//' \
  | awk 'NR==1{q1=$1} NR==2{q2=$1} END{exit !(q1 >= 2.0 && q1 / q2 >= 2.0)}' \
  || { echo "ci: feedback did not improve the q-error 2x" >&2; exit 1; }

echo "== dqo serve --advisor smoke =="
# Four executions of a skewed GROUP BY feed the workload log; [advise]
# forces one self-tuning round which must materialise at least one AV,
# and the execution after it must replan transparently and digest
# byte-identically to the ones before.
adv_out="$(mktemp -t serve_advisor_XXXXXX.txt)"
trap 'rm -f "$out" "$hr_out" "$ps_out" "$ps_log" "$serve_out" "$fb_out" "$adv_out"' EXIT
printf 'open\nprepare 1 SELECT b, COUNT(*) AS c FROM S GROUP BY b\nexec 1 1\nexec 1 1\nexec 1 1\nexec 1 1\nadvise\nexec 1 1\nstats\nclose 1\nquit\n' \
  | dune exec bin/dqo.exe -- serve --advisor --skew 1.0 --r-rows 2000 \
      --s-rows 6000 --groups 1500 > "$adv_out"

grep -q 'advisor=on' "$adv_out" || { echo "ci: serve did not enable the advisor" >&2; exit 1; }
grep -q '^ok advisor installed=[1-9]' "$adv_out" \
  || { echo "ci: advise materialised no AV" >&2; exit 1; }
# The post-tick execution must digest identically to the pre-tick ones.
test "$(grep '^result rows=' "$adv_out" | sed 's/.*sum=//' | sort -u | wc -l)" = 1 \
  || { echo "ci: advisor tick changed the result digest" >&2; exit 1; }
grep '^ok stats' "$adv_out" | grep -q 'advisor_installed=[1-9]' \
  || { echo "ci: stats does not report the install" >&2; exit 1; }

echo "== perfbench sec43-serve smoke =="
# The served section-4.3 request over the wire, checked reply by reply
# against the benchmark's reference evaluator.  Gates only on
# correctness and failures, never on times.
pb_out="$(mktemp -t perfbench_smoke_XXXXXX.txt)"
trap 'rm -f "$out" "$hr_out" "$ps_out" "$ps_log" "$serve_out" "$fb_out" "$adv_out" "$pb_out"' EXIT
python3 perfbench/run.py --workload sec43-serve --seconds 3 > "$pb_out" \
  || { echo "ci: perfbench sec43-serve run failed" >&2; exit 1; }
tail -n 1 "$pb_out" | grep -q '"correct": true' \
  || { echo "ci: perfbench sec43-serve results not correct" >&2; exit 1; }
tail -n 1 "$pb_out" | grep -q '"failed": 0,' \
  || { echo "ci: perfbench sec43-serve had failed requests" >&2; exit 1; }

echo "ci: OK"
