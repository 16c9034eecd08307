"""Benchmark trend gate: fail CI when a tracked metric regresses too far.

Compares a freshly generated benchmark JSON against the committed baseline
(the file as it was at checkout) and exits non-zero when any tracked
higher-is-better metric drops by more than the allowed fraction::

    python benchmarks/check_bench_trend.py \
        --baseline /tmp/bench_baseline_dispatch.json \
        --current BENCH_scheduler_dispatch.json \
        --metric indexed_jobs_per_s --max-regression 0.20

A metric may carry its own allowed drop as ``NAME:FRACTION`` — wall-clock
metrics (events/s, requests/s) need a wider band than normalized ratios::

    python benchmarks/check_bench_trend.py \
        --baseline /tmp/bench_baseline_replay.json \
        --current BENCH_journal_replay.json \
        --metric events_per_s:0.5

A lower-is-better metric that repeats (bytes, counts) is banded the other
way round — ``NAME:FRACTION`` is how far it may *rise* over the baseline::

    python benchmarks/check_bench_trend.py \
        --baseline /tmp/bench_baseline_replay.json \
        --current BENCH_journal_replay.json \
        --lower journal_bytes_per_job:0.02

A lower-is-better metric whose old values are no baseline worth keeping
(a latency that just fell 100×) is held to an absolute ceiling instead::

    python benchmarks/check_bench_trend.py \
        --baseline /tmp/bench_baseline_agent.json \
        --current BENCH_agent_pull.json \
        --ceiling offer_wake_ms_p50:10

CI copies the committed ``BENCH_*.json`` aside before the benchmark run
overwrites it, so "baseline" is always the last accepted measurement.
Stdlib-only on purpose: the gate must run before any dependency install.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SystemExit(f"benchmark file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"benchmark file {path} is not valid JSON: {exc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="committed benchmark JSON")
    parser.add_argument("--current", required=True, help="freshly generated benchmark JSON")
    parser.add_argument(
        "--metric",
        action="append",
        default=[],
        help="higher-is-better metric to track (repeatable); append "
        "':FRACTION' for a metric-specific allowed drop, e.g. events_per_s:0.5",
    )
    parser.add_argument(
        "--lower",
        action="append",
        default=[],
        metavar="NAME:FRACTION",
        help="lower-is-better metric that may rise at most FRACTION over the "
        "baseline (repeatable), e.g. journal_bytes_per_job:0.02",
    )
    parser.add_argument(
        "--ceiling",
        action="append",
        default=[],
        metavar="NAME:VALUE",
        help="lower-is-better metric that must not exceed VALUE in the "
        "current file, whatever the baseline says (repeatable)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="allowed fractional drop before failing (default: 0.20)",
    )
    args = parser.parse_args(argv)
    if not args.metric and not args.lower and not args.ceiling:
        parser.error("nothing to check: give --metric, --lower and/or --ceiling")

    baseline = load(args.baseline)
    current = load(args.current)
    failures = []
    # (spec, +1 higher-is-better / -1 lower-is-better): one banded comparison.
    banded = [(spec, 1) for spec in args.metric] + [(spec, -1) for spec in args.lower]
    for metric_spec, direction in banded:
        metric, _, allowance = metric_spec.partition(":")
        try:
            max_regression = float(allowance) if allowance else args.max_regression
        except ValueError:
            raise SystemExit(f"bad metric spec {metric_spec!r}: FRACTION must be a number")
        if metric not in baseline:
            print(f"[trend] {metric}: no baseline value yet, skipping")
            continue
        if metric not in current:
            failures.append(f"{metric}: missing from {args.current}")
            continue
        base_value = float(baseline[metric])
        new_value = float(current[metric])
        bound = base_value * (1.0 - direction * max_regression)
        change = (new_value - base_value) / base_value if base_value else float("inf")
        regressed = (new_value - bound) * direction < 0
        print(
            f"[trend] {metric}: baseline={base_value:.1f} current={new_value:.1f} "
            f"({change:+.1%}, {'floor' if direction > 0 else 'ceiling'}={bound:.1f}) "
            f"{'REGRESSION' if regressed else 'OK'}"
        )
        if regressed:
            failures.append(
                f"{metric} regressed {-direction * change:.1%} (baseline {base_value:.1f} -> "
                f"{new_value:.1f}; allowed {'drop' if direction > 0 else 'rise'} "
                f"{max_regression:.0%})"
            )
    for ceiling_spec in args.ceiling:
        metric, _, limit = ceiling_spec.partition(":")
        try:
            ceiling = float(limit)
        except ValueError:
            raise SystemExit(f"bad ceiling spec {ceiling_spec!r}: want NAME:VALUE")
        if metric not in current:
            failures.append(f"{metric}: missing from {args.current}")
            continue
        new_value = float(current[metric])
        status = "OK" if new_value <= ceiling else "OVER"
        print(f"[trend] {metric}: current={new_value:.3f} (ceiling={ceiling:.3f}) {status}")
        if new_value > ceiling:
            failures.append(f"{metric} is {new_value:.3f}; ceiling is {ceiling:.3f}")
    if failures:
        print("benchmark trend check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("benchmark trend check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
