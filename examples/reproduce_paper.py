#!/usr/bin/env python3
"""Regenerate every table and figure of the paper and write EXPERIMENTS.md.

This is the "one command" reproduction entry point: it runs each experiment
driver at a moderate scale (larger than ``tests/test_experiments.py``'s,
smaller than the paper's multi-hour runs), prints the reproduced rows, and
records a paper-vs-measured comparison in ``EXPERIMENTS.md`` at the
repository root, below the command catalogue: everything from the
:data:`HEADING` line down is rewritten, everything above it is kept.

Run it with ``PYTHONPATH=src python examples/reproduce_paper.py`` (~15 s).
The output depends only on the seed, so a second run leaves the file
byte-identical.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis.tables import format_table, rows_to_markdown
from repro.experiments.accuracy import run_accuracy_experiment
from repro.experiments.browser_study import run_browser_study
from repro.experiments.controller_load import run_controller_load_experiment
from repro.experiments.system_perf import run_system_performance
from repro.experiments.vpn_study import run_vpn_energy_study, run_vpn_speedtests

SEED = 7
OUTPUT = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
HEADING = "## Paper vs. reproduction"


def main() -> None:
    started = time.time()
    sections = []

    print("Figure 2 (accuracy) ...")
    accuracy = run_accuracy_experiment(duration_s=120.0, sample_rate_hz=500.0, seed=SEED)
    fig2_rows = accuracy.rows()
    print(format_table(fig2_rows, title="Figure 2"))
    sections.append(
        (
            "Figure 2 — CDF of current drawn (direct / relay / mirroring)",
            "Negligible difference between the direct and relay wiring; device "
            "mirroring raises the median current from ~160 mA to ~220 mA during mp4 playback.",
            rows_to_markdown(fig2_rows),
            f"Measured: relay adds {accuracy.relay_overhead_ma():.1f} mA at the median; "
            f"mirroring adds {accuracy.mirroring_overhead_ma():.1f} mA "
            f"({accuracy.scenario('relay').median_current_ma():.0f} -> "
            f"{accuracy.scenario('relay-mirroring').median_current_ma():.0f} mA).",
        )
    )

    print("\nFigures 3 and 4 (browser study) ...")
    browsers = run_browser_study(
        repetitions=3, scrolls_per_page=12, scroll_interval_s=1.5, sample_rate_hz=50.0, seed=SEED
    )
    fig3_rows = browsers.discharge_rows()
    fig4_rows = browsers.device_cpu_rows()
    print(format_table(fig3_rows, title="Figure 3"))
    print(format_table(fig4_rows, title="Figure 4"))
    ranking = ", ".join(browsers.discharge_ranking(mirroring=False))
    overhead = browsers.mirroring_overhead_mah("chrome")
    sections.append(
        (
            "Figure 3 — per-browser battery discharge",
            "Brave consumes the least, Firefox the most, and mirroring adds a "
            "constant ~20 mAh (full-length ~7 min runs) regardless of the browser.",
            rows_to_markdown(fig3_rows),
            f"Measured ranking (no mirroring): {ranking}.  Mirroring overhead is "
            f"{overhead:.1f} mAh per (shortened) run and browser-independent to within a few "
            "tenths of a mAh; it scales with run length toward the paper's ~20 mAh.",
        )
    )
    brave_median = browsers.device_cpu_cdf("brave", False).median()
    chrome_median = browsers.device_cpu_cdf("chrome", False).median()
    chrome_mirror = browsers.device_cpu_cdf("chrome", True).median()
    sections.append(
        (
            "Figure 4 — CDF of device CPU utilisation (Brave vs Chrome)",
            "Median CPU ~12% for Brave vs ~20% for Chrome; device mirroring adds ~5% to both.",
            rows_to_markdown(fig4_rows),
            f"Measured medians: Brave {brave_median:.1f}%, Chrome {chrome_median:.1f}%, "
            f"Chrome+mirroring {chrome_mirror:.1f}% (mirroring adds "
            f"{chrome_mirror - chrome_median:.1f} points).",
        )
    )

    print("\nFigure 5 (controller load) ...")
    controller = run_controller_load_experiment(
        repetitions=2, scrolls_per_page=12, scroll_interval_s=1.5, sample_rate_hz=100.0, seed=SEED
    )
    fig5_rows = controller.rows()
    print(format_table(fig5_rows, title="Figure 5"))
    sections.append(
        (
            "Figure 5 — CDF of controller (Raspberry Pi) CPU utilisation",
            "Constant ~25% without mirroring (Monsoon polling); median ~75% with "
            "mirroring and >95% in about 10% of the samples.",
            rows_to_markdown(fig5_rows),
            f"Measured: median {controller.median(False):.1f}% without mirroring, "
            f"{controller.median(True):.1f}% with mirroring, "
            f"{100 * controller.fraction_above(95.0, True):.0f}% of samples above 95%.",
        )
    )

    print("\nTable 2 (ProtonVPN statistics) ...")
    table2_rows = run_vpn_speedtests(probes_per_location=5, seed=SEED)
    print(format_table(table2_rows, title="Table 2"))
    sections.append(
        (
            "Table 2 — ProtonVPN statistics",
            "D/U Mbps and RTT ms: Johannesburg 6.26/9.77/222.04, Hong Kong 7.64/7.77/286.32, "
            "Bunkyo 9.68/7.76/239.38, Sao Paulo 9.75/8.82/235.05, Santa Clara 10.63/14.87/215.16.",
            rows_to_markdown(table2_rows),
            "Measured through the emulated tunnels; values match the paper within the speedtest "
            "noise model and preserve the slowest-to-fastest ordering.",
        )
    )

    print("\nFigure 6 (VPN energy study) ...")
    vpn = run_vpn_energy_study(
        repetitions=2, scrolls_per_page=10, scroll_interval_s=1.5, sample_rate_hz=50.0, seed=SEED
    )
    fig6_rows = vpn.rows()
    print(format_table(fig6_rows, title="Figure 6"))
    drop = vpn.chrome_bandwidth_drop_japan()
    chrome_by_location = {
        location: vpn.discharge_summary(location, "chrome").mean for location in vpn.locations()
    }
    sections.append(
        (
            "Figure 6 — Brave and Chrome energy through VPN tunnels",
            "Network location barely changes the measurements, except Chrome through the "
            "Japanese exit, whose energy drops because ads there are ~20% smaller; Brave is flat.",
            rows_to_markdown(fig6_rows),
            f"Measured: Chrome's minimum is at {min(chrome_by_location, key=chrome_by_location.get)!r}; "
            f"its transferred bytes drop by {100 * (drop or 0):.0f}% at the Japanese exit; Brave varies "
            "by well under 10% across locations.",
        )
    )

    print("\nSection 4.2 system performance ...")
    perf = run_system_performance(
        scrolls_per_page=16, scroll_interval_s=1.5, sample_rate_hz=100.0, seed=SEED
    )
    perf_rows = perf.rows()
    print(format_table(perf_rows, title="System performance"))
    upload_per_seven = perf.upload_mb * (420.0 / perf.test_duration_s)
    sections.append(
        (
            "Section 4.2 — system performance",
            "Mirroring costs an extra ~50% controller CPU on average and ~6% memory "
            "(total <20% of 1 GB); ~32 MB of upload per ~7-minute test; mirroring latency "
            "1.44 ± 0.12 s over 40 trials at 1 ms network RTT.",
            rows_to_markdown(perf_rows),
            f"Measured: +{perf.cpu_extra_percent:.0f} CPU points, +{perf.memory_extra_percent:.1f} "
            f"memory points (total {perf.memory_percent_mirroring:.1f}%), "
            f"{upload_per_seven:.0f} MB upload per 7 minutes, latency "
            f"{perf.latency.mean_s:.2f} ± {perf.latency.std_s:.2f} s.",
        )
    )

    print("\nPlatform API v1 round-trip (JSON-lines gateway) ...")
    _api_roundtrip_demo()

    _write_markdown(sections)
    print(f"\nWrote {OUTPUT} in {time.time() - started:.0f} s")


def _api_roundtrip_demo() -> None:
    """Submit and inspect one job over the remote (socket) transport.

    Everything above ran the experiment drivers locally; this is the
    deployment shape the paper promises — an experimenter reaching the
    access server over a real wire, through the versioned client SDK.
    """
    from repro import build_default_platform
    from repro.api import BatteryLabClient, JsonLinesTransport

    platform = build_default_platform(seed=SEED, browsers=("chrome",))
    gateway = platform.serve_gateway()
    host, port = gateway.address
    with BatteryLabClient(
        JsonLinesTransport(host, port), "experimenter", "experimenter-token"
    ) as client:
        view = client.submit_job("repro-smoke", "noop")
        platform.run_queue()
        results = client.job_results(view.job_id)
        status = client.server_status()
        print(
            f"  gateway at {host}:{port} — job #{view.job_id} {results.status}, "
            f"server api_version {status.api_version}, "
            f"{len(status.vantage_points)} vantage point(s)"
        )
    gateway.stop()


def _write_markdown(sections) -> None:
    catalogue = OUTPUT.read_text(encoding="utf-8").split(HEADING, 1)[0].rstrip("\n")
    lines = [
        catalogue,
        "",
        HEADING,
        "",
        "Every table and figure of the paper's evaluation (Section 4), regenerated by",
        "`PYTHONPATH=src python examples/reproduce_paper.py` on the software-emulated",
        f"platform (seed {SEED}); the script rewrites this section and keeps the",
        "catalogue above it. The reproduction targets *shape fidelity* — orderings,",
        "gaps and crossovers — rather than the absolute numbers of the authors'",
        "hardware testbed; see DESIGN.md for the hardware-substitution table and",
        "calibration targets.",
        "",
        "The same drivers run at a reduced scale in `tests/test_experiments.py`, which",
        "checks their shapes and compares every row exactly against",
        "`tests/data/paper_rows_seed17.json` (seed 17).",
        "",
    ]
    for title, paper, table, measured in sections:
        lines.extend(
            [
                f"### {title}",
                "",
                f"**Paper.** {paper}",
                "",
                "**Reproduction.**",
                "",
                table,
                "",
                f"**Comparison.** {measured}",
                "",
            ]
        )
    OUTPUT.write_text("\n".join(lines), encoding="utf-8")


if __name__ == "__main__":
    main()
