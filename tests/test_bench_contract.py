"""What the benchmark in perfbench/ needs from the package.

perfbench/ drives parabkit from outside.  Its tracer wraps every name that
the five layers list in ``__all__``, plus IntegerPoly and RealAlgebraic
methods looked up in the class ``__dict__``; its count-prs mode counts each
P_n build through the module attribute ``polyring.resultant_in_z``.  If one
of these breaks, a benchmark run crashes or reports no PRS metrics, so the
test runs them in a fresh process.  The probe then builds both metric dicts
with run.py's own functions, from its tracer summary, the PRS counts, the
source line counts and a few synthetic samples, so that a run whose result
line would name other metrics than BENCHMARK.json, or hold a value JSON
cannot carry (NaN, infinity), fails here.  The PRS counts are checked by
value too: each P_n's degree and coefficient bits, and positive product and
division counts, which read 0 if the PRS stopped calling the counted
methods.  It reads perfbench/ and changes nothing there.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import contextlib, importlib, io, json, sys
sys.path.insert(0, "perfbench")
import run, tracer, worker

missing = [
    f"{layer}.{name}"
    for layer in tracer.LAYERS
    for name in importlib.import_module(f"parabkit.{layer}").__all__
    if not hasattr(importlib.import_module(f"parabkit.{layer}"), name)
]
from parabkit import classify
original = classify.cli_main
spans = tracer.Tracer()
spans.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = classify.cli_main(["classify", "--c", "16x^2+52x+41@[-3/2,-1]", "--json"])
spans.uninstall()
spans.fold()
prs = worker.count_prs()
lines = run.source_lines(".")
samples = [(0.0011, 0.0040), (0.0009, 0.0042), (0.0030, 0.0039)] * 5
metrics = {
    "per_layer": run.per_layer("warm-classify", spans.summary(), 0.002, 1.1, 0.25, prs, lines),
    "end_to_end": run.end_to_end(samples, [(0.8, 0.0041), (0.75, 0.0040)], 69000),
}
# the result line of run.main, which must hold finite values only
result = {
    mode: {name: {"value": v[0], "unit": v[1]} for name, v in found.items()}
    for mode, found in metrics.items()
}
print(json.dumps({
    "missing": missing,
    "code": code,
    "traced": sorted(spans.summary()["totals"]),
    "restored": classify.cli_main is original,
    "prs": prs,
    "fields": list(run.PRS_FIELDS),
    "metrics": result,
}, allow_nan=False))
"""


def _no_constant(name):
    raise ValueError(f"non-finite value {name} in a result line")


def test_perfbench_runs_against_the_package():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.strip().splitlines()[-1], parse_constant=_no_constant)
    assert out["missing"] == []
    assert out["code"] == 0 and out["restored"]
    assert {"classify.cli_main", "dynamics.is_parabolic_up_to", "algebraic.make_real_algebraic"} <= set(
        out["traced"]
    )
    assert sorted(out["prs"]) == ["1", "2", "3", "4", "5"]
    for n, fields in out["prs"].items():
        assert set(out["fields"]) <= set(fields), n
    # the P_n the counts describe, and work that went through the counted
    # methods: a kernel that bypassed them would zero these metrics silently
    result_bits = {"1": 3, "2": 10, "3": 29, "4": 80, "5": 204}
    peak_bits = {"1": 3, "2": 18, "3": 71, "4": 217, "5": 583}
    for n, fields in out["prs"].items():
        assert fields["result_degree"] == int(n) * 2 ** (int(n) - 1), n
        assert fields["result_coeff_bits"] == result_bits[n], n
        assert fields["peak_coeff_bits"] == peak_bits[n], n
        if int(n) >= 2:
            assert fields["mul_calls"] > 0 and fields["divide_exact_calls"] > 0, n
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    for mode in ("per_layer", "end_to_end"):
        assert set(out["metrics"][mode]) == {m["name"] for m in declared[mode]}, mode
