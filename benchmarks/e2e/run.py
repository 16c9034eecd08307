#!/usr/bin/env python3
"""End-to-end job-path benchmark over the real ``repro`` processes.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --seed N [--workload W] [--trace] [--smoke]
    python3 benchmarks/e2e/run.py --aa K

The first form is the ``BENCHMARK.json`` contract: the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without ``--workload`` every workload
runs.  Any miss of the correctness gate makes the exit code non-zero.
See ``README.md`` beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(os.path.dirname(HERE))
#: Scratch state of a run (removed on exit) and the traced runs' ``spans.json``.
WORK_DIR = os.path.join(HERE, ".work")
OUT_DIR = os.path.join(HERE, ".out")

#: Cold bring-ups and restarts of a full run; ``setup_s`` and ``recover_s``
#: are their medians.  A smoke or traced run makes one of each.
BRING_UPS = 3
RESTARTS = 3


def _require_program() -> None:
    """The benchmark measures ``src/repro``; without it there is nothing to run."""
    if not os.path.isdir(os.path.join(CHECKOUT, "src", "repro")):
        print(f"error: no src/repro under {CHECKOUT}; nothing to benchmark", file=sys.stderr)
        raise SystemExit(2)
    if shutil.which("openssl") is None:
        print("error: the openssl binary is needed to mint the TLS material", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, os.path.join(CHECKOUT, "src"))


def load_manifest() -> dict:
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def layer_counts(untraced) -> Dict[str, float]:
    """The per-layer rows that are ``obs.metrics`` deltas over the untraced window."""
    from e2e_stats import ratio

    obs = untraced.obs
    jobs = max(1, untraced.workload.jobs)
    appends, _ = obs.histogram("journal_append_seconds")
    wave_count, wave_sum = obs.histogram("dispatch_wave_size")
    return {
        "api.gateway.requests_inline": obs.counter("gateway_requests_total", mode="inline"),
        "api.gateway.requests_worker": obs.counter("gateway_requests_total", mode="worker"),
        "api.gateway.push_drops": obs.counter("gateway_push_drops_total"),
        "api.gateway.read_pauses": obs.counter("gateway_read_pauses_total"),
        "api.gateway.tls_handshakes": obs.counter("gateway_tls_handshakes_total", outcome="ok"),
        "api.router.requests": obs.counter("api_requests_total"),
        "accessserver.dispatch.waves": obs.counter("dispatch_waves_total"),
        "accessserver.dispatch.wave_size_mean": ratio(wave_sum, wave_count),
        "accessserver.persistence.appends_per_job": ratio(appends, jobs),
        "accessserver.persistence.fsyncs_per_job": ratio(obs.gauge("journal_fsyncs_total"), jobs),
        "analytics.records_per_job": ratio(untraced.records_folded, jobs),
        "obs.series": float(obs.series()),
        "federation.router.requests_passthrough": obs.counter(
            "federation_requests_total", mode="routed"
        ) + obs.counter("federation_requests_total", mode="passthrough"),
        "federation.router.requests_scatter": obs.counter(
            "federation_requests_total", mode="scatter"
        ),
        "accessserver.agents.polls": obs.counter("agent_polls_total"),
        "accessserver.agents.claims": obs.counter("agent_claims_total"),
        "accessserver.agents.reports": obs.counter("agent_reports_total"),
        "accessserver.agents.lease_expirations": obs.counter("agent_lease_expirations_total"),
    }


def print_metrics(title: str, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    from repro.analysis.tables import format_table

    rows = [
        {"metric": name, "value": f"{value:.4f}", "unit": units[name]}
        for name, value in metrics.items()
    ]
    print(format_table(rows, title=title))


def contract_line(correct: bool, attempted: int, failed: int, metrics: Dict[str, float], units: Dict[str, str]) -> dict:
    return {
        "correct": bool(correct),
        "attempted": max(1, int(attempted)),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def run_workload(manifest: dict, name: str, seed: int, factor: float, trace: bool, quick: bool):
    """One workload, one run: prints its tables.

    Returns the contract object and every client-side measurement of the
    untraced run.  ``manifest`` (``BENCHMARK.json``) is the one place that
    says which measurements are end-to-end, which are ``client.*`` per-layer
    rows, and the unit of each.
    """
    from repro.accessserver.certificates import ensure_tls_material

    import e2e_harness as harness
    from e2e_procs import Sandbox
    from e2e_workloads import WORKLOADS

    gated = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    workload = WORKLOADS[name].scaled(factor)
    bring_ups, restarts = (1, 1) if (quick or trace) else (BRING_UPS, RESTARTS)
    with Sandbox(CHECKOUT, WORK_DIR) as sandbox:
        # Minted before any timing: an RSA keygen takes a random time.
        cert_dir = sandbox.new_dir("certs")
        ensure_tls_material(cert_dir)
        try:
            untraced = harness.run_untraced(
                sandbox, workload, seed, cert_dir, bring_ups=bring_ups, restarts=restarts
            )
        except Exception:
            print(sandbox.stderr_tail(), file=sys.stderr)
            raise
        problems = list(untraced.problems)
        measured = untraced.measured
        ungated = {
            "client." + metric: value for metric, value in measured.items() if metric not in gated
        }
        if not trace:
            units = gated
            metrics = {metric: measured[metric] for metric in gated}
            print_metrics(f"== {name}: end to end (seed {seed})", metrics, units)
            print_metrics(f"== {name}: reported, not gated", ungated, layer_units)
        else:
            import e2e_trace

            spans_path = os.path.join(OUT_DIR, name, "spans.json")
            traced, index = e2e_trace.run_traced(workload, seed, cert_dir, sandbox, spans_path)
            problems.extend(traced.problems)
            path_rows, path_total, samples = e2e_trace.settle_path_table(traced, index)
            loop_rows = e2e_trace.host_loop_table(traced, index)
            traced_window = traced.window[1] - traced.window[0]
            rows = {
                **e2e_trace.layer_metrics(traced, index),
                **layer_counts(untraced),
                **ungated,
                "trace.overhead_share": traced_window / untraced.window_s - 1.0
                if untraced.window_s else 0.0,
                "trace.unattributed_share": (
                    path_rows.get(e2e_trace.UNATTRIBUTED, 0.0) / path_total if path_total else 0.0
                ),
            }
            units = layer_units
            metrics = {metric: rows[metric] for metric in layer_units}
            print_metrics(f"== {name}: per layer (seed {seed})", metrics, units)
            print(e2e_trace.layer_table(
                f"== {name}: blocking path of the median settle "
                f"(mean of the {samples} settles between p40 and p60, traced run)",
                path_rows, path_total, 1000.0, "ms",
            ))
            print(e2e_trace.layer_table(
                f"== {name}: host-loop thread over the traced window",
                loop_rows, traced_window, 1.0, "s",
            ))
            print(f"   spans written to {os.path.relpath(spans_path, CHECKOUT)}")
    for problem in problems:
        print(f"!! {name}: {problem}", file=sys.stderr)
    for metric, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{metric} is {value}")
    line = contract_line(not problems, untraced.attempted, untraced.failed, metrics, units)
    return line, measured


# -- A/A ------------------------------------------------------------------------------


def run_aa(manifest: dict, k: int, names: List[str], seed: int, factor: float) -> int:
    """Two interleaved sets of ``k`` full runs of this tree, compared.

    Progress goes to standard error; standard output is the markdown that is
    committed as ``AA.md``.  Every run uses another seed, so the pooled
    spread over all ``2k`` runs is the statistic the benchmark's acceptance
    uses (interquartile range as a share of the median).
    """
    import contextlib

    from e2e_stats import quartile_spread

    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    better = {m["name"]: m["better"] for m in manifest["end_to_end"]}
    ungated = [
        m["name"][len("client."):] for m in manifest["per_layer"]
        if m["name"].startswith("client.") and m["unit"] in ("ms", "s")
    ]
    columns = list(bounds) + ungated
    sets: List[Dict[str, Dict[str, List[float]]]] = [
        {name: {metric: [] for metric in columns} for name in names} for _ in range(2)
    ]
    run_number = 0
    started = time.time()
    for round_index in range(k):
        # A B / B A / A B ...: neither set always runs on the warmer machine.
        for which in ((0, 1) if round_index % 2 == 0 else (1, 0)):
            for name in names:
                run_number += 1
                with contextlib.redirect_stdout(sys.stderr):
                    result, measured = run_workload(
                        manifest, name, seed + run_number, factor, False, False
                    )
                if not result["correct"]:
                    print(f"!! {name}: correctness gate failed in A/A run {run_number}")
                    return 1
                for metric in columns:
                    sets[which][name][metric].append(measured[metric])

    def compare(name: str, metric: str):
        a, b = sets[0][name][metric], sets[1][name][metric]
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = (med_a - med_b) if better.get(metric) == "higher" else (med_b - med_a)
        gap = worse / med_a if med_a else 0.0
        spreads = [quartile_spread(values) or 0.0 for values in (a, b, a + b)]
        return med_a, med_b, gap, spreads

    header = "| workload | metric | median A | median B | gap | spread A | spread B | spread all |"
    print(f"# A/A: two interleaved sets of {k} runs of the same tree")
    print()
    print(
        f"`python3 benchmarks/e2e/run.py --aa {k} --seed {seed}`: {run_number} runs, "
        f"each with its own seed, in {time.time() - started:.0f} s.  *gap* is how much "
        "worse set B's median is than set A's; *spread* is the interquartile range as a "
        f"share of the median, over one set and over all {2 * k} runs of the workload."
    )
    print()
    print("## End-to-end metrics (gated)")
    print()
    print(
        "A row passes when the gap and the pooled spread are within the metric's bound "
        "(`setup_s` is held to its gap only)."
    )
    print()
    print(header + " bound | verdict |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---:|---|")
    failed = 0
    for name in names:
        for metric, bound in bounds.items():
            med_a, med_b, gap, spreads = compare(name, metric)
            ok = abs(gap) <= bound and (metric == "setup_s" or spreads[2] <= bound)
            failed += not ok
            print(
                f"| {name} | {metric} | {med_a:.4f} | {med_b:.4f} | {gap:+.1%} | "
                f"{spreads[0]:.1%} | {spreads[1]:.1%} | {spreads[2]:.1%} | {bound:.2f} | "
                f"{'pass' if ok else 'FAIL'} |"
            )
    print()
    print(f"{failed} of {len(names) * len(bounds)} rows outside their bound.")
    print()
    print("## Timings reported but not gated")
    print()
    print(
        "The same comparison for the CPU-bound timings that are measured on every "
        "run and kept out of the gate (README, *Noise rules*)."
    )
    print()
    print(header)
    print("|---|---|---:|---:|---:|---:|---:|---:|")
    for name in names:
        for row in ungated:
            med_a, med_b, gap, spreads = compare(name, row)
            print(
                f"| {name} | client.{row} | {med_a:.4f} | {med_b:.4f} | {gap:+.1%} | "
                f"{spreads[0]:.1%} | {spreads[1]:.1%} | {spreads[2]:.1%} |"
            )
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="scales every operation count; default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="1: also run traced in-process and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 size, one bring-up and one restart per workload")
    parser.add_argument("--aa", type=int, default=0, metavar="K",
                        help="two interleaved sets of K full runs; prints the A/A table")
    args = parser.parse_args(argv)

    _require_program()
    from e2e_workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    manifest = load_manifest()
    factor = (args.seconds / manifest["run_seconds"]) if args.seconds else 1.0
    if args.smoke:
        factor /= 20.0
    if args.aa:
        return run_aa(manifest, args.aa, names, args.seed, factor)

    started = time.time()
    results = {
        name: run_workload(manifest, name, args.seed, factor, bool(args.trace), args.smoke)[0]
        for name in names
    }
    print(f"-- {len(names)} workload(s) in {time.time() - started:.1f}s", flush=True)
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({"workloads": results}))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
