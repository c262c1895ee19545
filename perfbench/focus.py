#!/usr/bin/env python3
"""Focused traced run: spans on a few chosen seams only.

The full traced run (``run.py --trace 1``) wraps every seam, which roughly
doubles the run time and inflates layers made of many tiny calls.  Wrapping
a handful of seams keeps the overhead small, so their time can be read as
a share of the plain run.  Example, from the root of a checkout::

    python3 perfbench/focus.py --workload saturated_bound \\
        --seam prefill=repro.traffic.generators:PrefillSource._burst \\
        --seam trace=repro.sim.trace:TraceRecorder.record_fields

A seam is ``category=module:target`` with the target syntax of
``layers.SEAMS``; add ``:returns`` to wrap what a factory returns.  Each
category's total span time (self time plus time in the other chosen
seams it calls) is printed with its share of the plain repetition's run
phase.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from layers import SpanRecorder, Tracer  # noqa: E402


def parse_seam(text: str):
    category, _, where = text.partition("=")
    module, _, target = where.partition(":")
    target, _, kind = target.partition(":")
    if not (category and module and target):
        raise argparse.ArgumentTypeError(f"bad seam {text!r}")
    return category, module, target, kind or "call"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seam", type=parse_seam, action="append",
                    required=True)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)
    bench.import_program()
    workload = workloads.WORKLOADS[args.workload]
    categories = list(dict.fromkeys(s[0] for s in args.seam))
    plain_run, traced_run = [], []
    totals = {c: [] for c in categories}
    counts = {}
    for _ in range(args.repeat):
        plain = bench.plain_repetition(workload, args.seed)
        recorder = SpanRecorder(categories)
        with Tracer(recorder, seams=args.seam):
            traced = workload.repetition(args.seed)
        if traced.digest != plain.digest:
            print("traced digest differs from plain", file=sys.stderr)
            return 1
        plain_run.append(plain.run_s)
        traced_run.append(traced.run_s)
        spans = [recorder.log[i:i + 5]
                 for i in range(0, len(recorder.log), 5)]
        category_of = {int(s[0]): int(s[1]) for s in spans}
        for c_idx, category in enumerate(categories):
            # the category's outermost spans: nested ones are inside them
            totals[category].append(sum(
                s[3] - s[2] for s in spans if int(s[1]) == c_idx
                and category_of.get(int(s[4])) != c_idx))
        counts = recorder.snapshot()[1]
    run_s = statistics.median(plain_run)
    print(f"{args.workload} seed={args.seed}: plain run phase "
          f"{run_s:.4f} s, focused-traced {statistics.median(traced_run):.4f}"
          f" s (medians of {args.repeat})")
    for category in categories:
        t = statistics.median(totals[category])
        print(f"  {category:16s} {t:10.4f} s  {100 * t / run_s:6.2f}% of run")
    for label, n in sorted(counts.items()):
        print(f"  calls {label}: {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
