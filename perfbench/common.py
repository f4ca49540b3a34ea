"""Paths, statistics and provenance shared by the benchmark's processes."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import select
import subprocess
import sys
import time
from typing import Any, Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Traces, results, generated programs and state dirs; ignored by git.
OUT = os.path.join(ROOT, ".perfbench-out")


#: Times are reported as if :func:`calibrate` took this long.  On the
#: 2-vCPU machine the bounds were set on (Python 3.11.7) it took 8-14 ms.
CAL_REFERENCE_S = 0.010


class HarnessError(Exception):
    """The benchmark cannot run or measure; no result is printed."""


def use_source() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise HarnessError(f"no program source at {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise HarnessError(f"imported repro from {repro.__file__}, not {SRC}")


def out_dir(*parts: str) -> str:
    path = os.path.join(OUT, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def calibrate() -> float:
    """Time a fixed pure-Python loop that never touches the program.

    The benchmark shares its machine, whose speed for identical work was
    measured to swing by 2x within seconds and to drift between runs.
    Dividing a time by the loop time measured next to it removes most of
    that drift.  The loop hashes tuple keys and allocates small objects,
    as the engine's tables do, in about 1 MB, so it does not set the peak
    RSS of a workload it runs beside.  Over five 15 s runs of
    ``eqsat-extract`` the quartile spread of median ``run_s`` was 0.089
    raw, 0.045 scaled by a loop over small-int dict updates, and 0.019
    scaled by this one.
    """
    begin = time.perf_counter()
    rows: Dict[Tuple[int, int], Tuple[int, str]] = {}
    for i in range(4000):
        rows[(i % 997, i)] = (i, str(i))
    odd = 0
    for _ in range(15):
        for (a, b), (value, _text) in rows.items():
            if (a, b + 1) in rows:
                odd += value & 1
    return time.perf_counter() - begin


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``."""
    return count - max(1, math.ceil(q / 100 * count))


def peak_rss_mb(pid: Any = "self") -> float:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise HarnessError("no VmHWM in /proc status")


def _git_commit() -> Any:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over every file under ``src`` (path and bytes), for checkouts
    that are not git repositories."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def provenance(seed: int) -> Dict[str, Any]:
    from repro._version import package_version

    return {
        "python": platform.python_version(),
        "package_version": package_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def mismatches(samples: List[Dict[str, Any]]) -> List[str]:
    """Keys whose exact counts differ between samples of the same work."""
    if not samples:
        return []
    first = samples[0]
    return sorted(
        key for key in first if any(sample.get(key) != first[key] for sample in samples[1:])
    )


def calibrate_until_eof(period_s: float) -> None:
    """Print one :func:`calibrate` time a line every ``period_s`` until
    stdin closes; run as a helper process next to the service workload."""
    while not select.select([sys.stdin], [], [], period_s)[0]:
        print(calibrate(), flush=True)


if __name__ == "__main__":
    calibrate_until_eof(float(sys.argv[1]))
