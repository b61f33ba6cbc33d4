"""Record the benchmark's reference digests, or check them against the campaign.

Usage (from the repository root)::

    python3 perfbench/record_reference.py            # rewrite perfbench/reference.json
    python3 perfbench/record_reference.py --campaign # full-size cells vs the baseline manifest

The default mode runs every workload at every recorded input seed on the
scalar path (block and vector execution off) and writes per-unit and
per-cell digests.  ``--campaign`` runs each workload at its full campaign
size and default seed in the default execution mode and compares the
folded cell rows with ``benchmarks/results/baseline_manifest.json``: it
shows that the benchmark's units assemble the campaign cells exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(CHECKOUT, "src"))

import units  # noqa: E402

BASELINE = os.path.join(CHECKOUT, "benchmarks", "results", "baseline_manifest.json")


def record() -> int:
    digests = {}
    for name in units.WORKLOADS:
        digests[name] = {}
        for seed in range(units.RECORDED_SEEDS):
            work = units.make_workload(name, seed)
            result = units.run_workload(work, block=False, vector=False)
            if result.errors or result.cell_rows is None:
                sys.stderr.write("".join(result.errors))
                print(f"{name} seed {seed}: FAILED")
                return 1
            digests[name][str(seed)] = units.digests_of(work, result)
            print(f"{name} seed {seed}: {len(work.units)} units, {result.wall_s:.2f} s scalar", flush=True)
    reference = {
        "recorded_by": "scalar path: repro.runner.tasks.execute(..., block=False, vector=False)",
        "sizes": units.SIZES,
        "digests": digests,
    }
    with open(units.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def campaign() -> int:
    with open(BASELINE, "r", encoding="utf-8") as handle:
        cells = {cell["task_id"]: cell for cell in json.load(handle)["cells"]}
    status = 0
    for name in units.WORKLOADS:
        work = units.make_workload(name, units.DEFAULT_SEEDS[name], units.campaign_size(name))
        result = units.run_workload(work)
        got = units.digests_of(work, result)["cell"]
        want = cells[units.CAMPAIGN_CELLS[name]]["rows_sha256"]
        verdict = "OK" if got == want else "MISMATCH"
        status |= got != want
        print(f"{units.CAMPAIGN_CELLS[name]}: {verdict} ({result.wall_s:.1f} s, rows {str(got)[:12]})", flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--campaign", action="store_true", help="check full-size cells against the baseline")
    args = parser.parse_args(argv)
    return campaign() if args.campaign else record()


if __name__ == "__main__":
    sys.exit(main())
