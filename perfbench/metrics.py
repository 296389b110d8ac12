"""The benchmark's declared workloads and metrics, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the checkout root is the one declaration; this module
only exposes its tables to the rest of the benchmark.

Every workload reports every metric. End-to-end metrics are defined per
workload on that workload's unit of work (an Algorithm 1 step, a request).
A per-layer metric of a layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import json
from pathlib import Path

DECLARATION = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"
    )
)

#: Seconds one run measures for (serve's load phases scale with it).
RUN_SECONDS = DECLARATION["run_seconds"]
WORKLOADS = [workload["name"] for workload in DECLARATION["workloads"]]
#: (name, unit) of each metric, in declared order.
END_TO_END = [(metric["name"], metric["unit"]) for metric in DECLARATION["end_to_end"]]
PER_LAYER = [(metric["name"], metric["unit"]) for metric in DECLARATION["per_layer"]]
