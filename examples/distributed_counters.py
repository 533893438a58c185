#!/usr/bin/env python3
"""Remote performance-counter access across localities.

The paper (Section IV): "any Performance Counter can be accessed
remotely (from a different location) or locally (from the same
locality)".  This example builds a three-locality cluster, runs work on
every node, then queries each node's thread-manager counters *from
locality 0* over parcels — plus AGAS symbolic names and the parcel
counters that account for the monitoring traffic itself.

Run:  python examples/distributed_counters.py
"""

from repro.distributed import DistributedSystem
from repro.simcore.events import Engine


def workload(ctx, pieces: int):
    """A small fork-join burst, different size per locality."""

    def piece(pctx, k):
        yield pctx.compute(20_000, membytes=2048)
        return k

    futures = []
    for k in range(pieces):
        futures.append((yield ctx.async_(piece, k)))
    values = yield ctx.wait_all(futures)
    return sum(values)


def main() -> None:
    engine = Engine()
    system = DistributedSystem(engine, localities=3, cores_per_locality=4,
                               platform="ivybridge-2x10")

    print("== run different-sized workloads on each locality ==")
    futures = []
    for loc in range(3):
        futures.append(system.async_remote(0, loc, workload, 40 * (loc + 1)))
    # Register each locality's application component in AGAS while the
    # work is in flight.
    for loc in range(3):
        system.register_name(loc, f"app/worker#{loc}", payload={"pieces": 40 * (loc + 1)})
    system.run()
    for loc, fut in enumerate(futures):
        print(f"  locality {loc}: workload result {fut.value()}")

    print("\n== query every locality's counters from locality 0 ==")
    specs = [
        "/threads{locality#0/total}/count/cumulative",
        "/threads{locality#0/total}/time/average",
        "/threads{locality#0/total}/idle-rate",
    ]
    queries = {
        (loc, spec): system.query_counter(0, loc, spec)
        for loc in range(3)
        for spec in specs
    }
    system.run()
    for loc in range(3):
        print(f"  locality {loc}:")
        for spec in specs:
            print(f"    {spec.split('/')[-1]:20s} {queries[(loc, spec)].value():12.1f}")

    print("\n== AGAS resolution (cold, then cached) ==")
    cold = system.resolve_name(2, "app/worker#1")
    system.run()
    print(f"  resolved app/worker#1 -> locality {cold.value().locality}, "
          f"payload {cold.value().payload}")
    t_before = engine.now
    warm = system.resolve_name(2, "app/worker#1")
    system.run()
    print(f"  cached re-resolution took {(engine.now - t_before)} ns "
          f"(hits={system.agas.stats.cache_hits})")

    print("\n== the monitoring traffic, measured by the parcel counters ==")
    for loc in range(3):
        registry = system.localities[loc].registry
        sent = registry.create_counter(f"/parcels{{locality#{loc}/total}}/count/sent").read()
        recv = registry.create_counter(f"/parcels{{locality#{loc}/total}}/count/received").read()
        print(f"  locality {loc}: parcels sent {sent:4.0f}  received {recv:4.0f}")


if __name__ == "__main__":
    main()
