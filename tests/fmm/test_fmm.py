"""The FMM mini-app: per-core-type kernel variants through app counters.

The tentpole's proof workload: on the asymmetric ``hybrid-4p8e``
preset the P-cores run the vectorized P2P kernel and the E-cores the
scalar one, and the per-variant counters registered through the public
provider API read differently for the two core types.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro.fmm
from repro.api import Session, TelemetryConfig, WorkloadSpec
from repro.fmm import VARIANTS, FmmBenchmark, variant_for_core
from repro.platform.presets import get_platform

VARIANT_COUNTERS = [f"/fmm{{locality#0/total}}/p2p-subgrids@{v}" for v in VARIANTS]
VARIANT_TELEMETRY = TelemetryConfig(counters=VARIANT_COUNTERS)


def _variant_values(result) -> dict[str, float]:
    return {
        variant: result.counters[name]
        for variant, name in zip(VARIANTS, VARIANT_COUNTERS)
    }


# -- variant selection --------------------------------------------------------


def test_variant_for_core_on_hybrid():
    platform = get_platform("hybrid-4p8e")
    # Socket#0: 4 P-cores (fastest clock) -> vectorized.
    for core in range(4):
        assert variant_for_core(platform, core) == "vectorized"
    # Socket#1: 8 E-cores (slower clock) -> scalar.
    for core in range(4, 12):
        assert variant_for_core(platform, core) == "scalar"


def test_variant_for_core_homogeneous_is_vectorized():
    platform = get_platform("ivybridge-2x10")
    for core in range(platform.total_cores):
        assert variant_for_core(platform, core) == "vectorized"


# -- end-to-end runs ----------------------------------------------------------


def test_hybrid_run_splits_variants_per_core_type():
    session = Session(runtime="hpx", cores=12, platform="hybrid-4p8e")
    result = session.run(WorkloadSpec.parse("fmm"), telemetry=VARIANT_TELEMETRY)
    assert result.verified
    values = _variant_values(result)
    # 48 subgrids over 12 driver batches: 4 P-core batches x 4 subgrids
    # vectorized, 8 E-core batches x 4 subgrids scalar.
    assert values["vectorized"] == 16.0
    assert values["scalar"] == 32.0
    assert values["legacy"] == 0.0
    assert values["vectorized"] != values["scalar"]


def test_homogeneous_run_is_all_vectorized():
    session = Session(runtime="hpx", cores=4)
    result = session.run(WorkloadSpec.parse("fmm:subgrids=20"), telemetry=VARIANT_TELEMETRY)
    assert result.verified
    values = _variant_values(result)
    assert values["vectorized"] == 20.0
    assert values["scalar"] == 0.0 and values["legacy"] == 0.0


def test_std_runtime_runs_fmm_too():
    session = Session(runtime="std", cores=2)
    result = session.run(WorkloadSpec.parse("fmm:subgrids=8"), telemetry=VARIANT_TELEMETRY)
    assert result.verified
    assert _variant_values(result)["vectorized"] == 8.0


def test_multipole_counter_and_verify():
    session = Session(runtime="hpx", cores=4)
    result = session.run(
        WorkloadSpec.parse("fmm:subgrids=12,neighbors=7"),
        telemetry=TelemetryConfig(counters=("/fmm{locality#0/total}/multipole-evals",)),
        keep_result=True,
    )
    assert result.verified
    assert result.counters["/fmm{locality#0/total}/multipole-evals"] == 12.0
    assert result.result == {"multipole_evals": 12, "p2p_interactions": 12 * 7}


def test_back_to_back_runs_read_per_run_deltas():
    """Framework reads are baselined per run even though the app's
    module-level counters accumulate across runs in one process."""
    session = Session(runtime="hpx", cores=4)
    spec = WorkloadSpec.parse("fmm:subgrids=12")
    first = session.run(spec, telemetry=VARIANT_TELEMETRY)
    second = session.run(spec, telemetry=VARIANT_TELEMETRY)
    assert _variant_values(first) == _variant_values(second)


def test_fmm_presets_registered():
    from repro.workloads import workload_preset_params

    assert workload_preset_params("fmm", "small") == {"subgrids": 16}
    assert workload_preset_params("fmm", "large") == {"subgrids": 192}
    assert workload_preset_params("fmm", "default") == {}


def test_fmm_verify_rejects_wrong_result():
    bench = FmmBenchmark()
    params = bench.params_with_defaults(None)
    assert not bench.verify({"multipole_evals": 0, "p2p_interactions": 0}, params)


# -- the import boundary ------------------------------------------------------


def test_fmm_uses_public_counter_api_only():
    """repro.fmm must not import repro.counters internals.

    The mini-app proves the *public* provider surface is sufficient:
    only ``from repro.counters import ...`` (the package front door) is
    allowed — no submodule imports.
    """
    package_dir = Path(repro.fmm.__file__).parent
    forbidden = re.compile(r"(from|import)\s+repro\.counters\.")
    for source_file in sorted(package_dir.glob("*.py")):
        text = source_file.read_text()
        match = forbidden.search(text)
        assert match is None, (
            f"{source_file.name} imports a repro.counters submodule "
            f"({match.group(0)!r}); use the public repro.counters API"
        )


def test_fmm_counters_listed_with_fmm_workload(capsys):
    from repro.cli import main

    assert main(["counters", "list", "--workload", "fmm", "--providers", "fmm"]) == 0
    out = capsys.readouterr().out
    assert "/fmm/p2p-subgrids" in out
    assert "/fmm/multipole-evals" in out
    assert "/threads" not in out  # filtered to the fmm provider


def test_counters_query_streams_fmm_variant_counters(capsys):
    """The acceptance demo: per-variant values via repro counters query."""
    from repro.cli import main

    code = main(
        [
            "counters",
            "query",
            *VARIANT_COUNTERS,
            "--benchmark",
            "fmm",
            "--platform",
            "hybrid-4p8e",
            "--cores",
            "12",
            "--format",
            "jsonl",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    import json

    rows = [json.loads(line) for line in out.strip().splitlines()]
    by_name = {row["name"]: row["value"] for row in rows}
    assert by_name["/fmm{locality#0/total}/p2p-subgrids@vectorized"] == 16.0
    assert by_name["/fmm{locality#0/total}/p2p-subgrids@scalar"] == 32.0


@pytest.mark.parametrize("runtime", ["hpx", "std"])
def test_fmm_is_deterministic(runtime):
    session = Session(runtime=runtime, cores=4)
    spec = WorkloadSpec.parse("fmm:subgrids=12")
    a = session.run(spec)
    b = session.run(spec)
    assert a.exec_time_ns == b.exec_time_ns
    assert a.counters == b.counters
