#!/usr/bin/env python3
"""Fold perf reports into one performance trend.

Thin wrapper over ``python -m repro trend`` (the logic lives in
:mod:`repro.perf.trend`) so CI and scripts can call it without spelling
the package path::

    python tools/bench_trend.py BENCH_kernel.json bench-current.json \
        --out BENCH_trend.json

Every value in a report was scaled to the reference host speed when its
sample was measured, so reports recorded on different machines line up
as they are; ratios anchor to each benchmark's first appearance (oldest
report first).  CI runs this over the committed ``BENCH_kernel.json`` and its
own run and uploads the ``BENCH_trend.json`` artifact.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.api.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["trend", *sys.argv[1:]]))
