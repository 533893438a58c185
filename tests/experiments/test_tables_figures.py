"""Table and figure generators (small configurations)."""

import pytest

from repro.campaign.engine import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.experiments.figures import (
    BANDWIDTH_FIGURES,
    EXEC_TIME_FIGURES,
    OVERHEAD_FIGURES,
    bandwidth_figure,
    execution_time_figure,
    overhead_figure,
)
from repro.experiments.report import (
    render_bandwidth_figure,
    render_execution_time_figure,
    render_overhead_figure,
    render_table,
    render_table1,
    render_table5,
)
from repro.experiments.tables import classify_granularity, table1, table5


def tiny_artifact(benchmarks, params=None, runtimes=("hpx", "std"), **fields):
    """A campaign over *benchmarks*: one sample per point on one and two cores."""
    spec = CampaignSpec(
        benchmarks=benchmarks,
        runtimes=runtimes,
        core_counts=(1, 2),
        samples=1,
        params=params or {},
        **fields,
    )
    return run_campaign(spec).artifact


@pytest.fixture(scope="module")
def strassen():
    return tiny_artifact(("strassen",), {"n": 64, "cutoff": 16})


def test_figure_maps_cover_the_paper():
    assert len(EXEC_TIME_FIGURES) == 7  # Figs 1-7
    assert len(OVERHEAD_FIGURES) == 5  # Figs 8-12
    assert len(BANDWIDTH_FIGURES) == 2  # Figs 13-14
    assert EXEC_TIME_FIGURES["fig2"] == "pyramids"
    assert OVERHEAD_FIGURES["fig12"] == "uts"
    assert BANDWIDTH_FIGURES["fig13"] == "alignment"


def test_classify_granularity_bands():
    assert classify_granularity(2748) == "coarse"
    assert classify_granularity(988) == "coarse"
    assert classify_granularity(246) == "moderate"
    assert classify_granularity(107) == "fine"
    assert classify_granularity(52.1) == "fine"
    assert classify_granularity(28.1) == "fine"
    assert classify_granularity(4.6) == "very fine"
    assert classify_granularity(1.02) == "very fine"


def test_execution_time_figure_small(strassen):
    fig = execution_time_figure("fig3", strassen)
    rows = fig.rows()
    assert [r[0] for r in rows] == [1, 2]
    assert all(r[1] is not None for r in rows)  # hpx completed
    text = render_execution_time_figure(fig)
    assert "strassen" in text and "cores" in text


def test_execution_time_figure_unknown(strassen):
    with pytest.raises(KeyError, match="fig1"):
        execution_time_figure("fig99", strassen)


def test_overhead_figure_small():
    artifact = tiny_artifact(("alignment",), {"nseq": 5, "seqlen": 60}, ("hpx",))
    fig = overhead_figure("fig8", artifact)
    assert fig.cores == [1, 2]
    # On one core the ideal equals the measured by construction.
    assert fig.ideal_scaling_ms[0] == pytest.approx(fig.exec_time_ms[0])
    assert fig.ideal_task_time_ms[0] == pytest.approx(fig.task_time_per_core_ms[0])
    assert all(v > 0 for v in fig.sched_overhead_per_core_ms)
    render_overhead_figure(fig)


def test_bandwidth_figure_small():
    params = {"width": 2048, "steps": 16, "chunk": 8, "block": 512}
    fig = bandwidth_figure("fig14", tiny_artifact(("pyramids",), params, ("hpx",)))
    assert fig.cores == [1, 2]
    assert all(b > 0 for b in fig.bandwidth_gbs)
    assert fig.bandwidth_gbs[1] > fig.bandwidth_gbs[0]  # more cores, more BW
    render_bandwidth_figure(fig)


def test_table5_row_fields():
    rows = table5(tiny_artifact(("fib",), {"n": 12}))
    (row,) = rows
    assert row.benchmark == "fib"
    assert row.structure == "recursive-balanced"
    assert row.granularity == "very fine"
    assert row.paper_scaling_std == "fail"
    text = render_table5(rows)
    assert "fib" in text and "very fine" in text


def test_table5_rows_follow_the_spec():
    """One row per benchmark of the artifact's spec, in the spec's order."""
    rows = table5(tiny_artifact(("sort", "fib:n=10"), preset="small"))
    assert [row.benchmark for row in rows] == ["sort", "fib:n=10"]
    assert rows[1].structure == "recursive-balanced"


def test_table1_small():
    rows = table1(benchmarks=["strassen"], cores=4)
    (row,) = rows
    assert row.benchmark == "strassen"
    assert row.baseline_ms is not None
    assert row.tau.outcome.value in ("SegV", "Abort", "timeout", "completed")
    text = render_table1(rows)
    assert "strassen" in text and "TAU" in text


def test_table1_baseline_is_the_uninstrumented_std_run():
    """The committed Table I rows: the baseline runs without counters,
    like the tool runs it is compared with."""
    floorplan, strassen = table1(benchmarks=["floorplan", "strassen"], cores=20)
    assert floorplan.baseline_tasks == 404
    assert floorplan.cell(floorplan.hpctoolkit) == "870 (79720%)"
    assert strassen.cell(strassen.hpctoolkit) == "801 (19539%)"


def test_render_table_generic():
    text = render_table(["a", "b"], [[1, 2.5], ["x", None]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "2.50" in text and "-" in text
