#!/usr/bin/env python3
"""Strong-scaling study of one Inncabs benchmark (the paper's Section VI
workflow): execution times for HPX vs the C++11 Standard model across
core counts, with speedups and the Table-V-style scaling label.

Run:  python examples/inncabs_scaling.py [benchmark] [--cores 1,2,4,...]

Try `strassen` (fine grain: HPX wins big), `alignment` (coarse: both
scale), or `uts` (very fine: the Standard version aborts).
"""

import argparse

from repro.campaign import CampaignSpec, run_campaign
from repro.inncabs.suite import available_benchmarks


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmark", nargs="?", default="strassen", choices=available_benchmarks())
    parser.add_argument("--cores", default="1,2,4,8,10,16,20")
    parser.add_argument("--samples", type=int, default=1)
    args = parser.parse_args()

    core_counts = tuple(int(c) for c in args.cores.split(","))
    spec = CampaignSpec(benchmarks=(args.benchmark,), core_counts=core_counts, samples=args.samples)

    print(f"strong scaling: {args.benchmark} "
          f"(cores {core_counts}, {args.samples} sample(s), medians)\n")
    artifact = run_campaign(spec).artifact
    curves = {
        "HPX": artifact.curve(args.benchmark, "hpx"),
        "C++11 std": artifact.curve(args.benchmark, "std"),
    }

    header = f"{'cores':>5s}"
    for label in curves:
        header += f"  {label + ' ms':>14s} {'x':>6s}"
    print(header)
    for i, cores in enumerate(core_counts):
        row = f"{cores:5d}"
        for curve in curves.values():
            point = curve.points[i]
            if point.aborted:
                row += f"  {'Abort':>14s} {'-':>6s}"
            else:
                speedup = curve.speedup(cores)
                row += f"  {point.median_exec_ms:14.3f} {speedup:6.2f}"
        print(row)

    print()
    for label, curve in curves.items():
        print(f"{label:10s} scaling: {curve.scales_to()}")


if __name__ == "__main__":
    main()
