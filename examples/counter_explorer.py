#!/usr/bin/env python3
"""The performance-counter framework, hands on (paper Section IV).

Demonstrates the full counter workflow on a live application:

1. discover counter types and expand wildcard instances;
2. attach an in-band periodic query (the ``--hpx:print-counter``
   convenience layer) that samples while the benchmark runs;
3. evaluate-and-reset around the run, exactly like the paper's
   per-sample protocol;
4. build a derived bandwidth counter with ``/arithmetics``.

Run:  python examples/counter_explorer.py
"""

from repro.cli import format_counter_values
from repro.counters.base import CounterEnvironment
from repro.counters.providers import build_registry
from repro.counters.query import PeriodicQuery
from repro.inncabs.suite import get_benchmark
from repro.papi.hw import PapiSubstrate
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.clock import us
from repro.simcore.events import Engine
from repro.simcore.machine import Machine
from repro.telemetry import TelemetryPipeline


def main() -> None:
    engine = Engine()
    machine = Machine()
    runtime = HpxRuntime(engine, machine, num_workers=4)
    env = CounterEnvironment(
        engine=engine, runtime=runtime, machine=machine, papi=PapiSubstrate(machine)
    )
    registry = build_registry(env)

    print("== discovery ==")
    for entry in registry.counter_types("/threads/time/*"):
        print(f"  {entry.info.type_name:40s} {entry.info.help_text}")
    wildcard = "/threads{locality#0/worker-thread#*}/count/cumulative"
    print(f"\n  expanding {wildcard}:")
    for name in registry.discover_counters(wildcard):
        print(f"    {name}")

    print("\n== periodic in-band query (every 2 ms of simulated time) ==")
    pipeline = TelemetryPipeline(
        registry,
        [
            "/threads{locality#0/total}/count/cumulative",
            "/threads{locality#0/total}/idle-rate",
        ],
    )
    def show(values):
        print("  " + format_counter_values(values).replace("\n", "\n  ") + "\n")

    query = PeriodicQuery(
        pipeline,
        engine=engine,
        runtime=runtime,
        interval_ns=us(2000),
        in_band=True,
        sink=show,
    )
    query.start()

    bench = get_benchmark("sort")
    params = bench.params_with_defaults(None)
    root_fn, root_args = bench.make_root(params)
    future = runtime.submit(root_fn, *root_args)
    engine.run()
    result = future.value()
    print(f"sort finished at t={engine.now/1e6:.2f} ms, "
          f"verified={bench.verify(result, params)}")

    print("\n== evaluate + reset (per-sample protocol) ==")
    sample = TelemetryPipeline(
        registry,
        [
            "/threads{locality#0/total}/time/average",
            "/threads{locality#0/total}/time/average-overhead",
        ],
    )
    for row in sample.sample(reset=True):
        print(f"  {row.name} = {row.value:.1f} ns")

    print("\n== derived counter: the paper's bandwidth formula ==")
    bandwidth_requests = registry.create_counter(
        "/arithmetics/add@"
        "/papi{locality#0/total}/OFFCORE_REQUESTS:ALL_DATA_RD,"
        "/papi{locality#0/total}/OFFCORE_REQUESTS:DEMAND_CODE_RD,"
        "/papi{locality#0/total}/OFFCORE_REQUESTS:DEMAND_RFO"
    )
    requests = bandwidth_requests.read()
    gbs = requests * 64 / (engine.now / 1e9) / 1e9
    print(f"  offcore requests: {requests:.0f}  ->  {gbs:.2f} GB/s")


if __name__ == "__main__":
    main()
