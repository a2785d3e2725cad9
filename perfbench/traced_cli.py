"""Run the parabkit CLI with the benchmark's tracer installed.

Usage: ``PERFBENCH_TRACE_OUT=spans.json python3 perfbench/traced_cli.py ARGS``.
The spans stay in memory while the command runs; the summary is written to
the file named by ``PERFBENCH_TRACE_OUT`` when the interpreter exits.
"""

import atexit
import json
import os
import sys

from tracer import Tracer

_tracer = Tracer()
_tracer.install()


def _write() -> None:
    _tracer.uninstall()
    _tracer.fold(sys.argv[1] if len(sys.argv) > 1 else "cli")
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
        json.dump(_tracer.summary(), fh)


atexit.register(_write)

from parabkit.classify import main  # noqa: E402

main()
