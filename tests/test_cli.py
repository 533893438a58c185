"""Command-line interface."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.campaign.artifact import ARTIFACT_SCHEMA
from repro.cli import main
from repro.exec.errors import TaskFailed
from repro.inncabs.base import Benchmark, BenchmarkInfo
from repro.workloads import registry as workload_registry
from repro.workloads.registry import WorkloadEntry, available_workloads

#: A committed artifact holding fib and sort cells only.
SMOKE_BASELINE = Path(__file__).resolve().parent.parent / "results" / "baseline_smoke.json"


def _exit_code(argv):
    """``main(argv)``'s exit status, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_list_benchmarks(capsys):
    """The 14 Inncabs rows of ``workloads list`` carry their Table V granularity."""
    from repro.inncabs.suite import available_benchmarks, get_benchmark

    assert main(["workloads", "list"]) == 0
    rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert "fib" in rows and "alignment" in rows
    for name in available_benchmarks():
        granularity = get_benchmark(name).info.paper_granularity
        assert f" inncabs   {granularity:18s} presets=" in rows[name]


def test_list_counters(capsys):
    assert main(["counters", "list"]) == 0
    out = capsys.readouterr().out
    assert "/threads/time/average" in out
    assert "/papi/OFFCORE_REQUESTS:ALL_DATA_RD" in out


def test_list_counters_pattern(capsys):
    assert main(["counters", "list", "--pattern", "/runtime/*"]) == 0
    out = capsys.readouterr().out
    assert "/runtime/uptime" in out
    assert "/threads" not in out


def test_list_counters_verbose(capsys):
    assert main(["counters", "list", "--pattern", "/threads/idle-rate", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "worker-thread#0" in out
    assert "idle rate" in out.lower()


def test_run_hpx(capsys):
    code = main(["run", "fib", "--cores", "2", "--param", "n=10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified=True" in out
    assert "/threads{locality#0/total}/time/average" in out


def test_run_std(capsys):
    code = main(["run", "fib", "--runtime", "std", "--cores", "2", "--param", "n=10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified=True" in out


def test_run_abort_reports(capsys):
    code = main(["run", "fib", "--runtime", "std", "--cores", "4", "--param", "n=19"])
    out = capsys.readouterr().out
    assert code == 1
    assert "ABORT" in out


def test_run_explicit_counter(capsys):
    main(
        [
            "run",
            "fib",
            "--param",
            "n=9",
            "--print-counter",
            "/threads{locality#0/total}/count/cumulative",
        ]
    )
    out = capsys.readouterr().out
    assert "/threads{locality#0/total}/count/cumulative" in out
    assert "idle-rate" not in out


def test_run_std_prints_only_the_named_counter(capsys):
    name = "/threads{locality#0/total}/idle-rate"
    argv = ["run", "fib", "--runtime", "std", "--cores", "2", "--param", "n=10"]
    assert main([*argv, "--print-counter", name]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == [name]


def test_run_no_counters(capsys):
    main(["run", "fib", "--param", "n=9", "--no-counters"])
    out = capsys.readouterr().out
    assert "counter,count,time,value" not in out


def test_bad_param_format():
    with pytest.raises(SystemExit):
        main(["run", "fib", "--param", "n:10"])


def test_unknown_benchmark_rejected(capsys):
    assert _exit_code(["run", "linpack"]) == 2
    assert "error: unknown workload 'linpack'" in capsys.readouterr().err


def test_figure_unknown(capsys):
    assert _exit_code(["figure", "fig99"]) == 2
    assert "unknown figure 'fig99'" in capsys.readouterr().err


def test_figure_small(capsys):
    assert main(["figure", "fig3", "--samples", "1", "--cores-list", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "strassen" in out


def test_table5_single(capsys):
    assert (main(["table5", "--benchmarks", "fib", "--samples", "1", "--cores-list", "1,2"]) == 0)
    out = capsys.readouterr().out
    assert "fib" in out and "very fine" in out


def test_run_with_preset(capsys):
    code = main(["run", "sort", "--preset", "small", "--no-counters"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified=True" in out


def test_run_preset_with_param_override(capsys):
    code = main(["run", "fib", "--preset", "small", "--param", "n=9", "--no-counters"])
    assert code == 0


def test_run_with_interval_query(capsys):
    code = main(
        [
            "run",
            "fib",
            "--param",
            "n=13",
            "--print-counter",
            "/threads{locality#0/total}/count/cumulative",
            "--print-counter-interval",
            "0.5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    # Interval samples appear before the final summary line.
    assert out.count("/threads{locality#0/total}/count/cumulative") > 2


def test_run_with_interval_destination(tmp_path, capsys):
    dest = tmp_path / "counters.csv"
    code = main(
        [
            "run",
            "fib",
            "--param",
            "n=13",
            "--print-counter",
            "/threads{locality#0/total}/count/cumulative",
            "--print-counter-interval",
            "0.5",
            "--print-counter-destination",
            str(dest),
        ]
    )
    assert code == 0
    lines = dest.read_text().strip().splitlines()
    assert len(lines) >= 2
    assert all(line.startswith("/threads") for line in lines)


def test_campaign_and_compare_roundtrip(tmp_path, capsys):
    artifact = tmp_path / "campaign.json"
    argv = [
        "campaign",
        "--benchmarks",
        "fib",
        "--runtimes",
        "hpx",
        "--cores-list",
        "1,2",
        "--samples",
        "2",
        "--preset",
        "small",
        "--jobs",
        "2",
        "--cache-dir",
        str(tmp_path / "cache"),
        "--out",
        str(artifact),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "4 cells" in out and "executed 4" in out
    assert artifact.exists()

    # Same campaign again: everything is served from the cache.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "cache hits 4 (100%)" in out and "executed 0" in out

    assert main(["compare", str(artifact), str(artifact), "--threshold", "0.10"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_compare_exits_nonzero_on_regression(tmp_path, capsys):
    import json

    artifact = tmp_path / "campaign.json"
    assert (
        main(
            [
                "campaign",
                "--benchmarks",
                "fib",
                "--runtimes",
                "hpx",
                "--cores-list",
                "1",
                "--samples",
                "1",
                "--preset",
                "small",
                "--no-cache",
                "--out",
                str(artifact),
            ]
        )
        == 0
    )
    capsys.readouterr()
    data = json.loads(artifact.read_text())
    for cell in data["cells"]:
        cell["result"]["exec_time_ns"] = round(cell["result"]["exec_time_ns"] * 1.5)
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(data))
    assert main(["compare", str(artifact), str(slower), "--threshold", "0.10"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "regression" in out


def test_figure_from_artifact(tmp_path, capsys):
    artifact = tmp_path / "campaign.json"
    assert (
        main(
            [
                "campaign",
                "--benchmarks",
                "strassen",
                "--cores-list",
                "1,2",
                "--samples",
                "1",
                "--preset",
                "small",
                "--no-cache",
                "--out",
                str(artifact),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["figure", "fig3", "--artifact", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "strassen" in out


def test_campaign_verbose_progress(tmp_path, capsys):
    assert (
        main(
            [
                "campaign",
                "--benchmarks",
                "fib",
                "--runtimes",
                "hpx",
                "--cores-list",
                "1",
                "--samples",
                "1",
                "--preset",
                "small",
                "--no-cache",
                "--verbose",
                "--out",
                str(tmp_path / "c.json"),
            ]
        )
        == 0
    )
    err = capsys.readouterr().err
    assert "[1/1] fib/hpx cores=1 sample=0" in err


def test_platform_list(capsys):
    assert main(["platform", "list"]) == 0
    out = capsys.readouterr().out
    assert "* ivybridge-2x10" in out  # default marked
    assert "epyc-2x64" in out and "desktop-1x8" in out


def test_platform_show(capsys):
    assert main(["platform", "show", "hybrid-4p8e"]) == 0
    out = capsys.readouterr().out
    assert "2 socket(s), 12 cores" in out
    assert "socket#0/core#0" in out  # hwloc-style tree
    assert "socket#1/core#7" in out


def test_platform_show_file(capsys, tmp_path):
    from repro.platform import get_platform, save_platform_file

    path = save_platform_file(get_platform("desktop-1x8"), tmp_path / "node.toml")
    assert main(["platform", "show", str(path)]) == 0
    assert "desktop-1x8" in capsys.readouterr().out


def test_platform_show_unknown(capsys):
    assert main(["platform", "show", "vax-11"]) == 2
    assert "unknown platform" in capsys.readouterr().err


def test_run_on_non_default_platform(capsys):
    code = main(["run", "fib", "--cores", "2", "--param", "n=10", "--platform", "epyc-2x64"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified=True" in out


def test_run_platform_changes_the_simulation(capsys):
    def exec_ms(argv):
        assert main(argv) == 0
        line = capsys.readouterr().out.splitlines()[0]
        return float(line.split(": ")[1].split(" ms")[0])

    argv = ["run", "fib", "--cores", "4", "--param", "n=16", "--no-counters"]
    assert exec_ms(argv) != exec_ms(argv + ["--platform", "desktop-1x8"])


def test_counters_list(capsys):
    assert main(["counters", "list"]) == 0
    out = capsys.readouterr().out
    assert "/threads/time/average" in out


def test_counters_list_pattern(capsys):
    assert main(["counters", "list", "--pattern", "/runtime/*"]) == 0
    out = capsys.readouterr().out
    assert "/runtime/uptime" in out
    assert "/threads" not in out


def test_counters_query_default_set_csv(capsys):
    assert main(["counters", "query", "--param", "n=10", "--cores", "2"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "name,instance,timestamp_ns,value,unit,run_id"
    assert any("/threads{locality#0/total}/time/average," in line for line in lines[1:])
    assert "fib [hpx, 2 cores]" in captured.err


def test_counters_query_expands_wildcards(capsys):
    assert (
        main(
            [
                "counters",
                "query",
                "/threads{locality#0/worker-thread#*}/count/cumulative",
                "--param",
                "n=10",
                "--cores",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "worker-thread#0" in out and "worker-thread#1" in out


def test_counters_query_jsonl_to_file(tmp_path, capsys):
    from repro.telemetry.sinks import parse_jsonl_stream

    dest = tmp_path / "stream.jsonl"
    assert (
        main(
            [
                "counters",
                "query",
                "--param",
                "n=10",
                "--cores",
                "2",
                "--format",
                "jsonl",
                "--out",
                str(dest),
            ]
        )
        == 0
    )
    assert capsys.readouterr().out == ""  # the stream went to the file
    frame = parse_jsonl_stream(dest.read_text())
    assert "/threads{locality#0/total}/idle-rate" in frame.totals()


def test_counters_query_interval_streams_samples(capsys):
    assert (
        main(
            [
                "counters",
                "query",
                "/threads{locality#0/total}/count/cumulative",
                "--param",
                "n=13",
                "--cores",
                "1",
                "--interval",
                "0.5",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    # Periodic rows plus the final evaluation, all on one counter.
    assert out.count("/threads{locality#0/total}/count/cumulative,") > 2


def test_counters_query_abort_exits_nonzero(capsys):
    code = main(
        ["counters", "query", "--runtime", "std", "--cores", "4", "--param", "n=19"]
    )
    assert code == 1
    assert "ABORT" in capsys.readouterr().err


def test_counters_query_bad_spec_errors(capsys):
    code = main(["counters", "query", "/no-such/counter", "--param", "n=8"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_workloads_list(capsys):
    assert main(["workloads", "list"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 16
    assert "taskbench" in out and "fib" in out and "fmm" in out
    assert "presets=default,large,small" in out


def test_workloads_show(capsys):
    assert main(["workloads", "show", "taskbench"]) == 0
    out = capsys.readouterr().out
    assert "taskbench (taskbench)" in out
    assert "shape = 'stencil_1d'" in out
    assert "preset small: width=8, steps=4" in out


def test_workloads_show_unknown(capsys):
    assert main(["workloads", "show", "linpack"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_run_accepts_workload_spec(capsys):
    code = main(["run", "taskbench:shape=trivial,width=4,steps=2", "--no-counters"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified=True" in out


def test_run_workload_option(capsys):
    code = main(["run", "--workload", "fib:n=9", "--no-counters"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified=True" in out


def test_run_rejects_two_workload_names(capsys):
    assert _exit_code(["run", "fib", "--workload", "sort"]) == 2
    assert "error: name exactly one workload" in capsys.readouterr().err


def test_run_param_overridden_by_embedded_spec_param(capsys):
    # Embedded spec parameters are more specific than --param.
    code = main(["run", "fib:n=9", "--param", "n=25", "--no-counters"])
    assert code == 0


def test_taskbench_cli_writes_deterministic_json(tmp_path, capsys):
    argv = [
        "taskbench",
        "--shape",
        "trivial",
        "--width",
        "8",
        "--steps",
        "2",
        "--runtime",
        "hpx",
        "--cores",
        "4",
        "--platform",
        "desktop-1x8",
    ]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main([*argv, "--out", str(first)]) == 0
    out = capsys.readouterr().out
    assert "METG(0.5) = " in out
    assert "[hpx, 4 cores, desktop-1x8]" in out
    assert main([*argv, "--out", str(second)]) == 0
    assert first.read_text() == second.read_text()
    payload = json.loads(first.read_text())
    assert [r["runtime"] for r in payload["results"]] == ["hpx"]
    assert payload["results"][0]["metg_ns"] is not None


def test_taskbench_cli_samples_out(tmp_path, capsys):
    samples = tmp_path / "samples.jsonl"
    code = main(
        [
            "taskbench",
            "--shape",
            "trivial",
            "--width",
            "8",
            "--steps",
            "2",
            "--runtime",
            "hpx",
            "--cores",
            "4",
            "--platform",
            "desktop-1x8",
            "--samples-out",
            str(samples),
            "--verbose",
        ]
    )
    assert code == 0
    assert "grain=" in capsys.readouterr().err  # --verbose probe stream
    rows = [json.loads(line) for line in samples.read_text().splitlines()]
    names = {row["name"] for row in rows}
    assert "/taskbench{locality#0/trivial}/metg@0.5" in names
    assert any("/efficiency@" in name for name in names)


def _rejected(capsys, argv, option):
    """Run *argv*, expect argparse to reject *option*; return stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: " in err
    assert "Traceback" not in err
    return err


def test_run_rejects_bad_platform_and_cores(capsys):
    assert "unknown platform 'vax-11'" in _rejected(
        capsys, ["run", "fib", "--platform", "vax-11"], "--platform"
    )
    assert "must be positive" in _rejected(capsys, ["run", "fib", "--cores", "0"], "--cores")


def test_profile_rejects_bad_platform_and_cores(capsys):
    assert "unknown platform" in _rejected(
        capsys, ["profile", "fib", "--platform", "vax-11"], "--platform"
    )
    assert "must be positive" in _rejected(capsys, ["profile", "fib", "--cores", "0"], "--cores")


def test_taskbench_rejects_bad_platform_and_cores(capsys):
    assert "unknown platform" in _rejected(
        capsys, ["taskbench", "--platform", "vax-11"], "--platform"
    )
    assert "must be positive" in _rejected(capsys, ["taskbench", "--cores", "0"], "--cores")


def test_counters_query_rejects_bad_platform_and_cores(capsys):
    assert "unknown platform" in _rejected(
        capsys, ["counters", "query", "--platform", "vax-11"], "--platform"
    )
    assert "must be positive" in _rejected(capsys, ["counters", "query", "--cores", "0"], "--cores")


def test_counters_list_rejects_bad_platform_and_cores(capsys):
    assert "unknown platform" in _rejected(
        capsys, ["counters", "list", "--platform", "vax-11"], "--platform"
    )
    assert "expected an integer" in _rejected(
        capsys, ["counters", "list", "--cores", "four"], "--cores"
    )
    assert "must be positive" in _rejected(capsys, ["counters", "list", "--cores", "0"], "--cores")


def test_campaign_rejects_bad_platform_at_parse_time(capsys, tmp_path):
    missing = str(tmp_path / "no-such-node.toml")
    argv = ["campaign", "--benchmarks", "fib", "--platform", missing]
    assert "no-such-node.toml" in _rejected(capsys, argv, "--platform")


TRUNCATED_ARTIFACT = {"kind": "repro-campaign", "schema": ARTIFACT_SCHEMA}


def test_figure_unreadable_artifact_errors(capsys, tmp_path):
    """An artifact figure cannot read gets compare's message and exit 2."""
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"kind": "repro-campaign", "schema": 1}))
    assert main(["figure", "fig3", "--artifact", str(old)]) == 2
    assert "error: cannot load artifact: unsupported artifact schema 1" in capsys.readouterr().err
    assert main(["figure", "fig3", "--artifact", str(tmp_path / "missing.json")]) == 2
    assert "error: cannot load artifact: " in capsys.readouterr().err
    truncated = tmp_path / "truncated.json"
    truncated.write_text(json.dumps(TRUNCATED_ARTIFACT))
    assert main(["compare", str(truncated), str(truncated)]) == 2
    assert "artifact: artifact is missing required key 'spec'" in capsys.readouterr().err


TINY_TASKBENCH = ["taskbench", "--shape", "trivial", "--width", "4", "--steps", "2", "--cores", "2"]
TINY_CAMPAIGN = ["campaign", "--benchmarks", "fib", "--runtimes", "hpx", "--cores-list", "1"]

#: Every command option that writes a file, pointed into a missing directory.
OUTPUT_FILES = {
    "profile --json": ["profile", "fib:n=10", "--json", "new/p.json"],
    "profile --chrome-out": ["profile", "fib:n=10", "--chrome-out", "new/trace.json"],
    "taskbench --out": [*TINY_TASKBENCH, "--runtime", "hpx", "--out", "new/t.json"],
    "taskbench --samples-out": [*TINY_TASKBENCH, "--samples-out", "new/s.jsonl"],
    "counters query --out": ["counters", "query", "--param", "n=8", "--out", "new/c.csv"],
    "run --print-counter-destination": [
        *["run", "fib", "--param", "n=13", "--print-counter-interval", "0.5"],
        *["--print-counter-destination", "new/i.csv"],
    ],
    "campaign --out": [*TINY_CAMPAIGN, "--preset", "small", "--no-cache", "--out", "new/a.json"],
}


@pytest.mark.parametrize("argv", OUTPUT_FILES.values(), ids=OUTPUT_FILES.keys())
def test_output_files_create_their_directory(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    path = argv[-1]
    assert (tmp_path / path).stat().st_size > 0
    assert f"wrote {path}" in capsys.readouterr().err


USER_ERRORS = [
    # core counts the platform (default: ivybridge-2x10, 20 cores) cannot bind
    ["run", "fib", "--cores", "64"],
    ["profile", "fib", "--cores", "64"],
    ["taskbench", "--cores", "64"],
    ["counters", "list", "--cores", "64"],
    ["counters", "query", "--cores", "64"],
    ["table1", "--benchmarks", "fib", "--cores", "64"],
    ["campaign", "--benchmarks", "fib", "--cores-list", "64", "--no-cache"],
    ["figure", "fig3", "--cores-list", "1,64"],
    # unreadable artifacts ("T" is a truncated one)
    ["compare", "T", "T"],
    ["figure", "fig3", "--artifact", "T"],
    # a valid artifact without the figure's workload (fib and sort only)
    ["figure", "fig3", "--artifact", "smoke.json"],
    # unknown names, presets and parameters
    ["run", "linpack"],
    ["run", "fib", "--workload", "sort"],
    ["run", "fib", "--param", "bogus"],
    ["run", "fib", "--param", "n=abc"],
    # parameters below their minimum (each crashed inside the run or
    # reported a wrong answer)
    ["run", "alignment", "--param", "nseq=1"],
    ["run", "fft", "--param", "n=0"],
    ["run", "fib", "--param", "n=-3"],
    ["run", "sort", "--preset", "paper"],
    ["counters", "query", "/no-such/counter", "--param", "n=8"],
    ["campaign", "--benchmarks", "sort", "--preset", "paper", "--no-cache"],
    ["table1", "--benchmarks", "nosuch"],
    # a seed given twice: as a workload parameter and as the root seed
    ["campaign", "--benchmarks", "uts", "--param", "seed=5", "--cores-list", "1", "--no-cache"],
    ["table5", "--benchmarks", "nosuch"],
    ["figure", "fig99"],
    # out-of-range counts and retired options
    ["table1", "--cores", "0"],
    ["taskbench", "--width", "0"],
    ["taskbench", "--mode", "cohort"],
    ["figure", "fig3", "--samples", "0"],
]


@pytest.mark.parametrize("argv", USER_ERRORS, ids="_".join)
def test_user_errors_exit_2(argv, tmp_path, monkeypatch, capsys):
    """A user's mistake: exit 2 with an error message, no traceback, no output."""
    monkeypatch.chdir(tmp_path)  # nothing a wrongly accepted command writes lands in the repo
    (tmp_path / "T").write_text(json.dumps(TRUNCATED_ARTIFACT))
    shutil.copy(SMOKE_BASELINE, tmp_path / "smoke.json")
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert "error: " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# -- a failed run is not a user error ---------------------------------------------


class _RaisingBenchmark(Benchmark):
    """A workload whose body raises ``ValueError`` after one compute."""

    info = BenchmarkInfo(
        name="raiser",
        structure="loop-like",
        synchronization="none",
        paper_task_duration_us=0.1,
        paper_granularity="fine",
        paper_scaling_std="-",
        paper_scaling_hpx="-",
    )

    def make_root(self, params):
        def raiser(ctx):
            yield ctx.compute(100)
            raise ValueError("bad value inside the simulation")

        return raiser, ()

    def verify(self, result, params):
        return True


def test_failed_run_is_not_a_user_error(monkeypatch):
    """A task body's ``ValueError`` ends ``repro run`` with ``TaskFailed``,
    which ``main`` lets through (a traceback and exit 1), not with the
    ``error:`` line and exit 2 of a user's mistake."""
    available_workloads()  # fill the registry before adding to it
    entry = WorkloadEntry(name="raiser", family="test", benchmark=_RaisingBenchmark())
    monkeypatch.setitem(workload_registry._WORKLOADS, "raiser", entry)
    with pytest.raises(TaskFailed, match=r"task \d+ raiser.* raised ValueError: bad value") as info:
        main(["run", "raiser", "--cores", "2"])
    assert isinstance(info.value.__cause__, ValueError)


# -- a reader that closes stdout early -------------------------------------------


def _cli_process(argv, stdout):
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_reader_closing_after_one_line_ends_quietly():
    """``repro ... | head -1`` on output larger than the pipe buffer."""
    proc = _cli_process(
        [
            "counters",
            "query",
            "/threads{locality#0/worker-thread#*}/count/cumulative",
            "--benchmark",
            "fib",
            "--param",
            "n=16",
            "--cores",
            "4",
            "--interval",
            "0.001",
            "--format",
            "jsonl",
        ],
        subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"{")
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr


@pytest.mark.parametrize(
    "argv",
    [["counters", "list"], ["figure", "fig4", "--artifact", str(SMOKE_BASELINE)]],
    ids=["counters-list", "figure-fig4"],
)
def test_reader_gone_before_output_ends_quietly(argv):
    """Output that fits the buffer fails at the final flush instead."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_process(argv, write_end)
    finally:
        os.close(write_end)
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr
