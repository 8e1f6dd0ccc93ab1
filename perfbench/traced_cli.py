"""Run ``python -m vibdict.cli <args>`` with timing wrappers installed.

Usage: PERFBENCH_TRACE_OUT=trace.json python perfbench/traced_cli.py <cli args>

The CLI module runs as ``__main__`` exactly as under ``python -m``; the
wrappers sit in the vibdict modules it calls into. The trace is written to
``$PERFBENCH_TRACE_OUT`` when the stage ends, whatever its exit code.
"""

import os
import runpy
import sys

import tracer


def main() -> int:
    out_path = os.environ["PERFBENCH_TRACE_OUT"]
    spans = tracer.Tracer()
    tracer.install(spans)
    code = 0
    try:
        runpy.run_module("vibdict.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        spans.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
