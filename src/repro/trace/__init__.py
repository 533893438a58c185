"""Post-mortem tracing and profiling.

The paper contrasts the HPX counter framework with *post-mortem* tools
(HPCToolkit, TAU): those collect full event streams and aggregate after
the run, which is expensive, fragile at high thread counts, and useless
for runtime adaptation.  This package implements exactly that style of
measurement *inside* the simulation — a per-task event recorder with a
gprof-like aggregator and a Chrome-trace exporter — so the two
approaches can be compared on equal footing (see
``tests/trace/test_trace.py``: the trace sees the same totals the
counters report, but only after the run and at a much higher event
cost).

The recorder and the gprof-style profile grew into the causal
profiling subsystem and live in :mod:`repro.profiler`, whose
:mod:`repro.profiler.analysis` computes work/span and the critical
path.  This package keeps the Chrome-trace exporter.
"""

from repro.trace.export import to_chrome_trace

__all__ = ["to_chrome_trace"]
