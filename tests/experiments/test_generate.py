"""The regenerate-everything driver (tiny configuration)."""

import pytest

from repro.cli import main
from repro.experiments import generate


@pytest.fixture(autouse=True)
def _tiny_grids(monkeypatch):
    """Shrink the grids so the full generation runs in seconds."""
    monkeypatch.setattr(generate, "PAPER_CORE_COUNTS", (1, 2))
    monkeypatch.setattr(generate, "QUICK_CORE_COUNTS", (1, 2))


def test_generate_all_writes_every_experiment(tmp_path):
    results = generate.generate_all(tmp_path, samples=1, verbose=False)
    expected = {"table1", "table5"} | {f"fig{i}" for i in range(1, 15)}
    assert set(results) == expected
    for key in expected:
        path = tmp_path / f"{key}.txt"
        assert path.exists()
        assert path.read_text().strip()
    combined = (tmp_path / "all_results.txt").read_text()
    for key in expected:
        assert f"===== {key} =====" in combined


def test_generate_main(tmp_path, capsys):
    assert main(["generate", str(tmp_path), "--samples", "1"]) == 0
    assert (tmp_path / "table5.txt").exists()
