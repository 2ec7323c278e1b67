"""Environment fingerprint carried in every result artefact.

The benchmark sets no BLAS thread count and no arena or link size; the
fingerprint records what the host and environment gave it, so a number
can be read against the core count and BLAS threading it ran under.
"""

from __future__ import annotations

import os
import platform
from typing import Dict, Optional

import numpy as np

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _blas() -> Dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown"}
    return {
        "name": deps.get("name"),
        "version": deps.get("version"),
        "config": deps.get("openblas configuration"),
    }


def fingerprint(backend: Optional[str]) -> Dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "backend": backend or "none",
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }
