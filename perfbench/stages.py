"""Run one CLI stage as its own process and account for it with wait4.

Each stage is ``python -m vibdict.cli <args>`` (or, in a traced run, the
same arguments through ``traced_cli.py``) started from the checkout root
with ``PYTHONPATH=src``. Wall time is taken around spawn and reap; CPU time
and peak resident set size come from the child's rusage.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A single stage is killed after this many seconds so a hang cannot
# outlive the benchmark's own deadline.
STAGE_TIMEOUT_S = 150.0

# Every stage gets one BLAS thread. By default OpenBLAS starts one thread
# per core and spins them between calls, so a single-threaded stage kept
# both cores of a 2-vCPU host busy and ``monitor --jobs 2`` ran four
# threads on two cores: the run then measured the scheduler and the
# neighbours' load rather than the program.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
STAGE_THREAD_ENV = {name: "1" for name in BLAS_ENV_VARS}


@dataclass(frozen=True)
class StageResult:
    """Outcome and cost of one stage process."""

    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes

    @property
    def ok(self) -> bool:
        return self.returncode == 0


def stage_env(extra: dict | None = None) -> dict:
    """Environment for a stage: the caller's, with PYTHONPATH set to src
    and one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.update(STAGE_THREAD_ENV)
    env.update(extra or {})
    return env


def run_process(name: str, argv: list[str], log_dir: str, env: dict | None = None) -> StageResult:
    """Start ``argv`` from the checkout root, reap it with wait4, and time it.

    Standard output and error go to files under ``log_dir`` so that no
    pipe is left for Popen to drain; the files are read back afterwards.
    """
    os.makedirs(log_dir, exist_ok=True)
    out_path = os.path.join(log_dir, f"{name}.stdout")
    err_path = os.path.join(log_dir, f"{name}.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env if env is not None else stage_env(),
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return StageResult(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        # Linux reports ru_maxrss in KiB.
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        stderr=stderr,
    )


def cli_argv(args: list[str]) -> list[str]:
    """The untraced command line of a stage, exactly as a user types it."""
    return [sys.executable, "-m", "vibdict.cli", *args]


def traced_argv(args: list[str]) -> list[str]:
    """The same stage run through the tracing bootstrap."""
    return [sys.executable, os.path.join(HERE, "traced_cli.py"), *args]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info() -> dict:
    """Facts about the host recorded next to every result."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "stage_blas_env": STAGE_THREAD_ENV,
    }
