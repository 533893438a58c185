"""External-tool models (Table I)."""


from repro.api import Session, TelemetryConfig, WorkloadSpec
from repro.tools import HPCTOOLKIT, TAU, ToolOutcome, run_with_tool
from repro.tools.tau import tau_with_table

#: Runs without counter instrumentation.
NO_COUNTERS = TelemetryConfig(counters=())


def test_tau_thread_table_default():
    assert TAU.max_threads == 128


def test_tau_segv_when_table_exhausted():
    """Any benchmark spawning more threads than TAU's table dies."""
    result = run_with_tool("sort", TAU, cores=4, params={"n": 4096, "cutoff": 64})
    assert result.outcome is ToolOutcome.SEGV


def test_tau_completes_within_table():
    result = run_with_tool("fib", TAU, cores=4, params={"n": 8})  # 67 tasks
    assert result.outcome is ToolOutcome.COMPLETED
    assert result.threads_created <= 128


def test_tau_overhead_is_large():
    base = Session(runtime="std", cores=4).run(
        WorkloadSpec.parse("fib"), params={"n": 8}, telemetry=NO_COUNTERS
    )
    instrumented = run_with_tool("fib", TAU, cores=4, params={"n": 8})
    overhead = instrumented.overhead_percent(base.exec_time_ns)
    assert overhead is not None
    assert overhead > 300  # hundreds of percent at minimum


def test_tau_with_larger_table_crashes_on_memory():
    """The paper: even a 64k table just converts SegV into a crash —
    per-thread measurement memory exhausts the budget instead."""
    big_tau = tau_with_table(64_000)
    result = run_with_tool("fib", big_tau, cores=4, params={"n": 16})
    assert result.outcome in (ToolOutcome.SEGV, ToolOutcome.ABORT)


def test_hpctoolkit_no_table_limit():
    assert HPCTOOLKIT.max_threads is None


def test_hpctoolkit_huge_overhead():
    base = Session(runtime="std", cores=4).run(
        WorkloadSpec.parse("strassen"), params={"n": 64, "cutoff": 16}, telemetry=NO_COUNTERS
    )
    result = run_with_tool("strassen", HPCTOOLKIT, cores=4, params={"n": 64, "cutoff": 16})
    assert result.outcome is ToolOutcome.COMPLETED
    overhead = result.overhead_percent(base.exec_time_ns)
    assert overhead is not None and overhead > 1000


def test_hpctoolkit_crashes_on_thread_explosion():
    """Per-thread measurement memory lowers the effective budget."""
    result = run_with_tool("fib", HPCTOOLKIT, cores=4, params={"n": 16})
    assert result.outcome in (ToolOutcome.SEGV, ToolOutcome.ABORT)


def test_overhead_percent_none_when_crashed():
    result = run_with_tool("fib", TAU, cores=4, params={"n": 14})
    assert result.outcome is not ToolOutcome.COMPLETED
    assert result.overhead_percent(10**6) is None


def test_hpx_counters_beat_tools_on_same_metrics():
    """The paper's core argument: the runtime's own counters collect the
    data the tools crash trying to collect, at ~1% perturbation."""
    session = Session(runtime="hpx", cores=4)
    plain = session.run(WorkloadSpec.parse("fib"), params={"n": 14}, telemetry=NO_COUNTERS)
    counted = session.run(WorkloadSpec.parse("fib"), params={"n": 14})
    perturbation = (counted.exec_time_ns - plain.exec_time_ns) / plain.exec_time_ns
    assert perturbation < 0.35  # vs TAU/HPCT: crash or >300%
    assert counted.counters  # and we actually got the measurements


def test_tool_timeout_outcome():
    """A tool whose budget is shorter than the instrumented run times out."""
    from dataclasses import replace

    slow_tolerance = replace(HPCTOOLKIT, timeout_ns=1_000_000)  # 1 ms budget
    result = run_with_tool("round", slow_tolerance, cores=4)
    assert result.outcome is ToolOutcome.TIMEOUT
    assert result.exec_time_ns <= slow_tolerance.timeout_ns * 2
