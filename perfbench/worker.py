"""One warm parabkit process: set-up, then a closed loop of operations.

Usage: ``python3 perfbench/worker.py JOB.json``.  The job names the workload,
the mode and the inputs; the result is written to ``job["out"]``.

Modes:

* ``setup`` runs only the set-up and reports its time (import included);
* ``run`` runs the set-up, then operations back to back for ``seconds``;
  with ``trace`` the loop alternates untraced and traced blocks so the two
  rates are measured side by side;
* ``count-prs`` builds P_1..P_5 with counting (not timing) wrappers and
  reports the exact per-n work of the subresultant PRS.

The worker calls parabkit through module attributes (``classify.cli_main``),
so functions the tracer patches are the ones called.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
import traceback
import types

BLOCKS_WHEN_TRACED = 6


def _verify_setup(mods):
    mods.classify.prop1_pipeline()
    mods.classify.prop2_pipeline()


def _verify_op(mods, _item):
    classify = mods.classify
    reports = (classify.prop1_pipeline(), classify.prop2_pipeline())
    return [classify.report_from_json(classify.report_to_json(r)) for r in reports]


def _verify_record(_item, reports):
    out = []
    for r in reports:
        out.append(
            {
                "proposition": r.proposition,
                "parameters": [str(p) for p in r.parameters],
                "certificates": [
                    {
                        "candidate": str(c.candidate),
                        "verdict": c.verdict,
                        "checked_up_to": c.checked_up_to,
                        "modulus_bound": None if c.modulus_bound is None else str(c.modulus_bound),
                    }
                    for c in r.certificates
                ],
            }
        )
    return out


def _classify_setup(mods):
    for n in range(1, 6):
        mods.dynamics.discriminant_Pn(n)


def _classify_op(mods, text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods.classify.cli_main(["classify", "--c", text, "--json"])
    return code, out.getvalue(), err.getvalue()


def _classify_record(text, result):
    code, out, err = result
    return {"input": text, "code": code, "stdout": out, "stderr": err}


WORKLOADS = {
    "warm-verify": (_verify_setup, _verify_op, _verify_record),
    "warm-classify": (_classify_setup, _classify_op, _classify_record),
}


def _kind(item) -> str:
    if item is None:
        return "verify"
    return "algebraic" if "@" in item else "other"


def _loop(mods, op, record, items, start_index, seconds, tracer):
    """Closed loop for ``seconds``.

    Returns (records, latencies, calibrations, next index).  The calibration
    loop runs between operations, outside their timing; an operation's
    calibration is the mean of the runs just before and just after it.
    """
    from calibrate import calibration, scale

    records, latencies, calibrations = [], [], []
    i = start_index
    before = calibration()
    deadline = time.perf_counter() + seconds
    while True:
        item = items[i % len(items)] if items else None
        i += 1
        t0 = time.perf_counter()
        try:
            result = op(mods, item)
            error = None
        except Exception:  # a traceback is a failed operation, not a crash
            result, error = None, traceback.format_exc()
        t1 = time.perf_counter()
        after = calibration()
        cal, before = (before + after) / 2, after
        latencies.append(t1 - t0)
        calibrations.append(cal)
        if tracer is not None:
            tracer.fold(_kind(item), scale(cal))
        entry = record(item, result) if error is None else {"input": item, "traceback": error}
        records.append(entry)
        if t1 >= deadline:
            return records, latencies, calibrations, i


def run(job) -> dict:
    start = time.perf_counter()
    setup, op, record = WORKLOADS[job["workload"]]
    mods = types.SimpleNamespace(
        classify=importlib.import_module("parabkit.classify"),
        dynamics=importlib.import_module("parabkit.dynamics"),
    )
    setup(mods)
    setup_s = time.perf_counter() - start
    from calibrate import calibration  # after the set-up: it imports fractions

    out = {"setup_s": setup_s, "setup_cal": calibration(3)}
    if job["mode"] == "setup":
        return out
    items = job.get("inputs") or []
    if not job.get("trace"):
        out["records"], out["latencies"], out["calibrations"], _ = _loop(
            mods, op, record, items, 0, job["seconds"], None
        )
        return out

    from tracer import Tracer

    tracer = Tracer()
    out["records"] = []
    out["sides"] = {"untraced": [], "traced": []}
    index = 0
    for block in range(BLOCKS_WHEN_TRACED):
        traced = block % 2 == 1
        if traced:
            tracer.install()
        records, latencies, calibrations, index = _loop(
            mods, op, record, items, index, job["seconds"] / BLOCKS_WHEN_TRACED, tracer if traced else None
        )
        tracer.uninstall()
        out["records"].extend(records)
        out["sides"]["traced" if traced else "untraced"].extend(zip(latencies, calibrations))
    out["trace"] = tracer.summary()
    return out


def count_prs() -> dict:
    """Exact work of each P_n build: result degree and bits, peak bits, calls."""
    polyring = importlib.import_module("parabkit.polyring")
    dynamics = importlib.import_module("parabkit.dynamics")
    cls = polyring.IntegerPoly
    state = {"n": None}
    per_n = {}
    originals = {name: cls.__dict__[name] for name in ("__mul__", "__rmul__", "divide_exact")}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            n = state["n"]
            if n is not None and isinstance(out, cls):
                entry = per_n[n]
                entry[name] += 1
                if out.coeffs:
                    bits = max(abs(c) for c in out.coeffs).bit_length()
                    entry["peak_coeff_bits"] = max(entry["peak_coeff_bits"], bits)
            return out

        return wrapper

    resultant_in_z = polyring.resultant_in_z

    def counted_resultant(P, Q):
        n = P.degree_in_z.bit_length() - 1  # deg_z(f^n(z) - z) = 2^n
        per_n[n] = {"mul_calls": 0, "divide_exact_calls": 0, "peak_coeff_bits": 0}
        state["n"] = n
        try:
            out = resultant_in_z(P, Q)
        finally:
            state["n"] = None
        per_n[n]["result_degree"] = out.degree
        per_n[n]["result_coeff_bits"] = max(abs(c) for c in out.coeffs).bit_length()
        return out

    for name, fn in originals.items():
        key = "divide_exact_calls" if name == "divide_exact" else "mul_calls"
        setattr(cls, name, counting(key, fn))
    polyring.resultant_in_z = counted_resultant
    try:
        for n in range(1, 6):
            dynamics.discriminant_Pn(n)
    finally:
        for name, fn in originals.items():
            setattr(cls, name, fn)
        polyring.resultant_in_z = resultant_in_z
    return {str(n): v for n, v in sorted(per_n.items())}


def main() -> None:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    result = count_prs() if job["mode"] == "count-prs" else run(job)
    with open(job["out"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
