"""Host-noise record: steal time, load average, CPU and library versions.

Reads ``/proc`` only; on a host without it the steal fields are null.
Library versions come from package metadata, so nothing heavy is imported.
"""

from __future__ import annotations

import os
import platform
from importlib import metadata


def steal_seconds() -> float | None:
    """Cumulative steal time of all CPUs, from the first line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def loadavg() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def describe() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }
