"""parabkit benchmark: three closed-loop workloads with one client each.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is in README.md):

* ``cold-cli``: a fresh ``parabkit`` process per operation, cycling through
  ``verify prop2 --json``, ``pn --n 5 --check-parity --json`` and
  ``classify --c <seeded algebraic> --json`` in seeded order;
* ``warm-verify``: one process; an operation is prop1 + prop2 + a JSON round
  trip of both reports;
* ``warm-classify``: one process; an operation is one in-process
  ``classify --c <p> --json`` call on a seeded parameter stream.

``--trace 0`` measures with no instrumentation and prints the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced operations, wraps
every public function of the five modules while traced, and prints the
per-layer metrics.  Every output is checked against ``oracle.py`` in both
modes.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
from calibrate import calibration, scale  # noqa: E402

WORKLOADS = ("cold-cli", "warm-verify", "warm-classify")
MODULES = ("polyring", "cyclotomic", "algebraic", "dynamics", "classify")
CLI = "from parabkit.classify import main; main()"
# a bare import in a fresh interpreter, then the calibration in the same process
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import parabkit; t = time.perf_counter() - t; "
    "sys.path.insert(0, {bench!r}); from calibrate import calibration; print(t, calibration(3))"
)

COLD_BLOCKS = 40  # 120 commands; the stream repeats if a run gets through them
CLASSIFY_BLOCKS = 160  # 2560 parameters; more than a 60 s run uses today
COLD_IMPORT_PROBES = (4, 3)  # fresh-interpreter imports before and after the loop
WARM_SETUP_PROBES = (2, 2)  # set-up-only workers before and after the measured one
RUN_DEADLINE_S = 175

# Layers reported by the traced run, and the layer each workload is predicted
# to spend most of its operation time in (inclusive time of that span).
LAYER_FUNCTIONS = (
    "polyring.resultant_in_z",
    "polyring.discriminant_in_z",
    "polyring.IntegerPoly.__mul__",
    "polyring.IntegerPoly.divide_exact",
    "polyring.sturm_count",
    "polyring.squarefree_part",
    "polyring.isolate_real_roots",
    "algebraic.sign_at",
    "algebraic.RealAlgebraic.refined",
    "algebraic.make_real_algebraic",
    "dynamics.find_attracting_cycle_numeric",
    "dynamics.discriminant_Pn",
    "dynamics.is_parabolic_up_to",
    "dynamics.parity_certificate",
    "dynamics.verify_cycle",
    "cyclotomic.trace_polynomial",
    "cyclotomic.admissible_orders",
    "classify.prop1_pipeline",
    "classify.prop2_pipeline",
    "classify.report_to_json",
    "classify.report_from_json",
    "classify.parse_parameter",
    "classify.cli_main",
)
PREDICTED_LAYER = {
    "cold-cli": "polyring.resultant_in_z",
    "warm-verify": "dynamics.find_attracting_cycle_numeric",
    "warm-classify": "algebraic.sign_at",
}
PRS_FIELDS = ("result_degree", "result_coeff_bits", "peak_coeff_bits", "mul_calls")
# Lower bound on the true |multiplier| of the attracting 4-cycle at
# c = (-13 + sqrt 5)/8, which a rigorous modulus_bound cannot undercut.
TRUE_MODULUS_LOWER = "0.5996555461777341315"


class BenchError(Exception):
    pass


def _alarm(_signum, _frame):
    raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")


# ---------------------------------------------------------------------------
# processes


class Runner:
    """Starts one child at a time and waits for it; records wall time and RSS."""

    def __init__(self, root: str, scratch: str):
        self.scratch = scratch
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.count = 0

    def spawn(self, argv, extra_env=None):
        """Run ``python3 argv``; returns (wall_s, exit_code, maxrss_kb, stdout, stderr)."""
        self.count += 1
        out_path = os.path.join(self.scratch, f"{self.count}.out")
        err_path = os.path.join(self.scratch, f"{self.count}.err")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
        ]
        env = dict(self.env, **(extra_env or {}))
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable] + list(argv), env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        os.remove(out_path)
        os.remove(err_path)
        return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss, stdout, stderr

    def worker(self, job: dict) -> tuple:
        """Run worker.py on a job; returns (result dict, maxrss_kb)."""
        self.count += 1
        job = dict(job, out=os.path.join(self.scratch, f"{self.count}.result.json"))
        job_path = os.path.join(self.scratch, f"{self.count}.job.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        _, code, rss, _, stderr = self.spawn([os.path.join(BENCH_DIR, "worker.py"), job_path])
        os.remove(job_path)
        if code != 0:
            raise BenchError(f"worker failed ({code}): {stderr.strip()[-2000:]}")
        with open(job["out"]) as fh:
            result = json.load(fh)
        os.remove(job["out"])
        return result, rss


# ---------------------------------------------------------------------------
# output checks


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


class Checker:
    """Counts attempted and failed operations against the oracle."""

    def __init__(self, answers):
        self.oracle = answers
        self.attempted = 0
        self.failed = 0
        self.verdicts = 0
        self.unresolved = 0
        self.examples: list = []
        self.modulus_bound = None  # first prop2 modulus_bound seen, for known_defects
        self._reports: dict = {}

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append(what[:300])

    def reports(self, payloads: list, propositions) -> bool:
        """Check round-tripped reports; identical payloads are checked once."""
        key = json.dumps(payloads, sort_keys=True)
        if key not in self._reports:
            problems = []
            if len(payloads) != len(propositions):
                problems.append(f"{len(payloads)} reports")
            for payload, prop in zip(payloads, propositions):
                try:
                    problems += oracle.check_report(payload, prop)
                except (KeyError, TypeError, ValueError) as exc:  # a report of the wrong shape
                    problems.append(repr(exc))
                    continue
                for cert in payload["certificates"]:
                    if cert.get("modulus_bound") and self.modulus_bound is None:
                        self.modulus_bound = Fraction(cert["modulus_bound"])
            self._reports[key] = problems
        return not self._reports[key]

    def cli_output(self, argv, code, stdout, stderr) -> None:
        """One CLI operation: exit code, traceback and output."""
        self.attempted += 1
        label = " ".join(argv)
        if "Traceback" in stderr:
            return self._fail(f"{label}: traceback {stderr.strip().splitlines()[-1]}")
        command = argv[0]
        if command == "classify" and argv[2] in inputs.MALFORMED:
            if code != 2 or stdout or not stderr.startswith("error:"):
                return self._fail(f"{label}: exit {code}, expected usage error 2")
            return None
        payload = _json_or_none(stdout)
        if code != 0 or not isinstance(payload, dict):
            return self._fail(f"{label}: exit {code}, output {stdout[:80]!r}")
        try:
            ok = self._payload_ok(argv, payload)
        except (KeyError, TypeError, ValueError) as exc:  # output of the wrong shape
            ok = False
            stdout = f"{exc!r} in {stdout}"
        if not ok:
            self._fail(f"{label}: oracle rejected {stdout[:200]!r}")
        return None

    def _payload_ok(self, argv, payload) -> bool:
        command = argv[0]
        if command == "verify":
            return self.reports([payload], [argv[1]])
        if command == "pn":
            n = int(argv[2])
            parity = payload["parity"]
            return (
                payload["n"] == n
                and self.oracle.check_pn(n, payload["pn"])
                and all(parity[k] == 1 for k in ("value_at_0_mod2", "value_at_minus6_mod2", "cross_check_disc_z2n"))
            )
        self.verdicts += 1
        verdict = payload.get("parabolic") or payload.get("tag", "")
        self.unresolved += verdict.startswith("NotUpToBound") or verdict == "CoreBoundedUnresolved"
        return self.oracle.classify_answers(argv[2])(payload)

    def verify_record(self, record) -> None:
        self.attempted += 1
        if isinstance(record, dict) and "traceback" in record:
            return self._fail(f"warm-verify: traceback {record['traceback'].strip().splitlines()[-1]}")
        if not self.reports(record, ("prop1", "prop2")):
            self._fail(f"warm-verify: oracle rejected {self._reports[json.dumps(record, sort_keys=True)]}")
        return None

    def classify_record(self, record) -> None:
        argv = ["classify", "--c", record["input"], "--json"]
        if "traceback" in record:
            self.attempted += 1
            return self._fail(f"{' '.join(argv)}: traceback {record['traceback'].strip().splitlines()[-1]}")
        return self.cli_output(argv, record["code"], record["stdout"], record["stderr"])


# ---------------------------------------------------------------------------
# statistics


def tail(latencies):
    """Value at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, n


def end_to_end(latencies, setups, rss_kb) -> dict:
    """Metrics from (wall, calibration) pairs; times at reference speed."""
    times = [wall * scale(cal) for wall, cal in latencies]
    setup_times = [wall * scale(cal) for wall, cal in setups]
    value, pct, n = tail(times)
    raw = statistics.median(wall for wall, _ in latencies)
    return {
        "latency_p50_s": (statistics.median(times), "s", f"wall-clock median {raw:.4g} s"),
        "latency_tail_s": (value, "s", f"p{pct:.1f}, {n - math.ceil(n * pct / 100)} of {n} samples beyond"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "setup_s": (
            statistics.median(setup_times),
            "s",
            f"median of {len(setups)} set-ups; wall-clock median {statistics.median(w for w, _ in setups):.4g} s",
        ),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(workload, summary, op_seconds, overhead, unresolved, prs, lines) -> dict:
    ops = max(summary["ops"], 1)
    totals = summary["totals"]
    counters = summary["counters"]
    out = {}
    for name in LAYER_FUNCTIONS:
        calls, _, self_s = totals.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls / ops, "count/op")
        out[f"{name}.self_s"] = (self_s / ops, "s/op")
    sign_calls = totals.get("algebraic.sign_at", (0,))[0]
    out["algebraic.sign_at.sturm_per_decision"] = (
        counters.get("sturm_in_sign_at", 0) / sign_calls if sign_calls else 0.0,
        "ratio",
    )
    pn_calls = counters.get("pn_calls", 0)
    out["dynamics.pn_cache_hit_ratio"] = (
        1 - counters.get("pn_misses", 0) / pn_calls if pn_calls else 0.0,
        "ratio",
    )
    out["classify.unresolved_ratio"] = (unresolved, "ratio")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    predicted = PREDICTED_LAYER[workload]
    share = totals.get(predicted, (0, 0.0, 0.0))[1] / op_seconds if op_seconds else 0.0
    out["trace.predicted_layer_share"] = (share, "ratio")
    out["trace.predicted_layer_held"] = (1 if share >= 0.5 else 0, "count")
    for n, fields in prs.items():
        for field in PRS_FIELDS:
            unit = "bits" if field.endswith("bits") else "count"
            out[f"polyring.prs.{field}.n{n}"] = (fields[field], unit)
    for module, count in lines.items():
        out[f"src.lines.{module}"] = (count, "lines")
    return out


# ---------------------------------------------------------------------------
# workloads


def _cold_cli(runner, args, check) -> dict:
    stream = inputs.cold_stream(args.seed, COLD_BLOCKS)
    setups = []

    def import_probe():
        _, code, _, stdout, stderr = runner.spawn(["-c", IMPORT_PROBE.format(bench=BENCH_DIR)])
        if code != 0:
            raise BenchError(f"import failed: {stderr.strip()[-500:]}")
        wall, cal = (float(x) for x in stdout.split())
        setups.append((wall, cal))

    for _ in range(COLD_IMPORT_PROBES[0]):
        import_probe()
    rss, sides, summaries = 0, {"untraced": [], "traced": []}, []
    trace_path = os.path.join(runner.scratch, "spans.json")
    before = calibration(3)
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        argv = stream[i % len(stream)]
        # each command runs untraced; traced runs add a traced twin, first side alternating
        sides_now = ((False, True) if i % 2 == 0 else (True, False)) if args.trace else (False,)
        for traced in sides_now:
            if traced:
                cmd = [os.path.join(BENCH_DIR, "traced_cli.py")] + argv
                wall, code, _, stdout, stderr = runner.spawn(cmd, {"PERFBENCH_TRACE_OUT": trace_path})
                with open(trace_path) as fh:
                    summary = json.load(fh)
                os.remove(trace_path)
            else:
                wall, code, child_rss, stdout, stderr = runner.spawn(["-c", CLI] + argv)
                rss = max(rss, child_rss)
            after = calibration(3)
            cal, before = (before + after) / 2, after
            if traced:
                summaries.append((summary, scale(cal)))
            sides["traced" if traced else "untraced"].append((wall, cal))
            check.cli_output(argv, code, stdout, stderr)
        i += 1
        # stop on a whole block, so each command kind runs equally often
        if i % 3 == 0 and time.perf_counter() >= deadline:
            break
    for _ in range(COLD_IMPORT_PROBES[1]):
        import_probe()
    return {
        "latencies": sides["untraced"],
        "setups": setups,
        "rss_kb": rss,
        "sides": sides,
        "trace": tracer.merge(summaries) if summaries else None,
    }


def _warm(runner, args, check, workload) -> dict:
    items = inputs.classify_stream(args.seed, CLASSIFY_BLOCKS) if workload == "warm-classify" else []
    setups = []

    def setup_probe():
        result = runner.worker({"workload": workload, "mode": "setup"})[0]
        setups.append((result["setup_s"], result["setup_cal"]))

    for _ in range(WARM_SETUP_PROBES[0]):
        setup_probe()
    job = {"workload": workload, "mode": "run", "seconds": args.seconds, "trace": bool(args.trace), "inputs": items}
    result, rss = runner.worker(job)
    setups.append((result["setup_s"], result["setup_cal"]))
    for _ in range(WARM_SETUP_PROBES[1]):
        setup_probe()
    for record in result["records"]:
        if workload == "warm-verify":
            check.verify_record(record)
        else:
            check.classify_record(record)
    return {
        "latencies": list(zip(result.get("latencies", []), result.get("calibrations", []))),
        "setups": setups,
        "rss_kb": rss,
        "sides": result.get("sides"),
        "trace": result.get("trace"),
    }


# ---------------------------------------------------------------------------
# context and known defects


def known_defects(runner, modulus_bound) -> list:
    """Inputs that broke the program's contract when the benchmark was written.

    They run once per run, after the timed loop, and are reported but not
    counted as operations; see README.md.
    """
    lines = []
    for argv in inputs.KNOWN_DEFECTS:
        _, code, _, _, stderr = runner.spawn(["-c", CLI] + list(argv))
        broken = "Traceback" in stderr or code not in (0, 1, 2)
        detail = stderr.strip().splitlines()[-1] if broken and stderr.strip() else f"exit {code}"
        lines.append(f"parabkit {' '.join(argv)}: {'still present' if broken else 'fixed'} ({detail})")
    if modulus_bound is not None:
        state = "still present" if modulus_bound < Fraction(TRUE_MODULUS_LOWER) else "fixed"
        lines.append(
            f"prop2 modulus_bound {modulus_bound} = {float(modulus_bound):.19f}..., below the "
            f"true |multiplier| {TRUE_MODULUS_LOWER}...: {state}"
        )
    return lines


def source_lines(root: str) -> dict:
    counts = {}
    for module in ("__init__",) + MODULES:
        with open(os.path.join(root, "src", "parabkit", f"{module}.py")) as fh:
            counts[module.strip("_")] = sum(1 for _ in fh)
    counts["total"] = sum(counts.values())
    return counts


def machine_note() -> str:
    import mpmath

    return (
        f"nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"mpmath {mpmath.__version__} (backend {mpmath.libmp.BACKEND})"
    )


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> dict:
    root = os.getcwd()
    package = os.path.join(root, "src", "parabkit")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise BenchError(f"no parabkit sources under {os.path.join(root, 'src')}; run from a checkout root")
    if not compileall.compile_dir(package, quiet=1):
        raise BenchError("parabkit sources do not compile")
    out_dir = os.path.join(BENCH_DIR, "out")
    scratch = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    runner = Runner(root, scratch)
    try:
        answers = oracle.Oracle(need_discriminants=args.workload != "warm-verify")
        check = Checker(answers)
        if args.workload == "cold-cli":
            outcome = _cold_cli(runner, args, check)
        else:
            outcome = _warm(runner, args, check, args.workload)
        defects = known_defects(runner, check.modulus_bound)
        prs = None
        if args.trace:
            prs, _ = runner.worker({"mode": "count-prs"})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    unresolved = check.unresolved / check.verdicts if check.verdicts else 0.0
    if args.trace:
        untraced, traced = (
            [wall * scale(cal) for wall, cal in outcome["sides"][side]] for side in ("untraced", "traced")
        )
        overhead = statistics.mean(traced) / statistics.mean(untraced)
        metrics = per_layer(args.workload, outcome["trace"], sum(traced), overhead, unresolved, prs, source_lines(root))
    else:
        metrics = end_to_end(outcome["latencies"], outcome["setups"], outcome["rss_kb"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metrics": metrics,
        "attempted": check.attempted,
        "failed": check.failed,
        "failures": check.examples,
        "known_defects": defects,
        "machine": machine_note(),
    }
    if args.trace:
        report["trace_samples"] = outcome["trace"]["samples"]
        report["prs"] = prs
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_report(report) -> None:
    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {report['workload']}, seed {report['seed']}, trace {report['trace']}: "
          f"closed loop, 1 client, {attempted} operations checked")
    for name, (value, unit, *note) in report["metrics"].items():
        extra = f"  ({note[0]})" if note else ""
        print(f"  {name:<48} {value:<14.6g} {unit}{extra}")
    print(f"  {'fail_ratio':<48} {failed / attempted if attempted else 0.0:<14.6g} ratio  ({failed} of {attempted})")
    for example in report["failures"]:
        print(f"  failure: {example}")
    if report["trace"]:
        name = PREDICTED_LAYER[report["workload"]]
        share = report["metrics"]["trace.predicted_layer_share"][0]
        held = "held" if share >= 0.5 else "did not hold"
        print(f"  prediction: {name} takes most of the operation time -> {held} ({share:.1%} of traced time)")
    print("known defects, run once outside the timed loop and not counted above:")
    for line in report["known_defects"]:
        print(f"  {line}")
    print(f"machine: {report['machine']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # One client at a time: keep it, its children and the calibration loop on
    # one CPU, so the calibration measures the speed the operations ran at.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(RUN_DEADLINE_S)
    try:
        report = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    print_report(report)
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in report["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
