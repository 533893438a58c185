"""Meta checks: packaging, versioning, documentation honesty."""

from pathlib import Path


import repro

ROOT = Path(__file__).resolve().parent.parent


def test_version_consistent_with_pyproject():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert f'version = "{repro.__version__}"' in pyproject


def test_third_party_imports_are_declared_dependencies():
    """Every top-level module imported under ``src/repro`` is stdlib,
    ``repro`` itself, or a ``[project] dependencies`` entry, so the
    package imports after a plain ``pip install .`` (test extras such
    as networkx stay out of the library)."""
    import ast
    import re
    import sys

    pyproject = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S)
    assert block, "pyproject.toml has no [project] dependencies list"
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in re.findall(r'"([^"]+)"', block.group(1))
    }
    package = ROOT / "src" / "repro"
    undeclared = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top in sys.stdlib_module_names or top == "repro" or top in declared:
                    continue
                undeclared.append(f"{top} ({path.relative_to(package)})")
    assert not undeclared, f"imports missing from [project] dependencies: {undeclared}"


def _fresh_interpreter(probe: str) -> str:
    """What *probe* prints when run in a new interpreter on this ``repro``."""
    import os
    import subprocess
    import sys

    src = str(Path(repro.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    return out.stdout.strip()


def test_import_leaves_scipy_out():
    """scipy serves one kernel (sparselu) and is imported at its first
    use, so ``import repro.api`` does not pay for it."""
    probe = "import sys, repro.api; print('scipy' in sys.modules)"
    assert _fresh_interpreter(probe) == "False"


def test_the_run_layer_imports_nothing_above_it():
    """Keying, running and encoding a run loads no campaign, experiment
    or serve module, and no ``multiprocessing``."""
    probe = (
        "import sys, repro.api\n"
        "spec = repro.api.RunSpec('fib', {'n': 8}, cores=2)\n"
        "spec.key()\n"
        "repro.api.Session().run(spec).to_json()\n"
        "above = ('repro.campaign', 'repro.experiments', 'repro.serve', 'multiprocessing')\n"
        "print(sorted(name for name in sys.modules if name.startswith(above)))"
    )
    assert _fresh_interpreter(probe) == "[]"


def test_public_api_surface():
    assert callable(repro.Session)
    assert not hasattr(repro, "run_benchmark")  # the deprecated shim is gone
    assert len(repro.available_benchmarks()) == 14
    assert repro.get_benchmark("fib").info.paper_task_duration_us == 1.37


def test_counter_docs_cover_registry(registry):
    """Every registered counter type appears in docs/counters.md."""
    doc = (ROOT / "docs" / "counters.md").read_text()
    for entry in registry.counter_types():
        type_name = entry.info.type_name
        # /threads/time/average is documented as `time/average` in the
        # tables; accept either full path or the trailing name.
        tail = type_name.split("/", 2)[-1]
        assert type_name in doc or tail in doc, f"{type_name} missing from docs"


def test_design_doc_lists_every_figure_bench():
    design = (ROOT / "DESIGN.md").read_text()
    for bench_file in (ROOT / "benchmarks").glob("test_fig*.py"):
        assert bench_file.name in design, f"{bench_file.name} not in DESIGN.md index"
    assert "test_table1_external_tools.py" in design
    assert "test_table5_classification.py" in design


def test_experiments_doc_mentions_every_figure():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for fig in range(1, 15):
        assert f"Fig {fig}" in text or f"Figures {fig}" in text or f"fig{fig}" in text, (
            f"figure {fig} not recorded in EXPERIMENTS.md"
        )


def test_all_source_modules_have_docstrings():
    import ast

    missing = []
    for path in (ROOT / "src").rglob("*.py"):
        tree = ast.parse(path.read_text())
        if not ast.get_docstring(tree):
            missing.append(str(path.relative_to(ROOT)))
    assert not missing, f"modules without docstrings: {missing}"


def test_all_public_functions_documented():
    """Every public callable in the counters package (the paper's
    contribution) carries a docstring."""
    import inspect

    from repro.counters import base, names, providers, query, registry
    from repro.telemetry import pipeline

    undocumented = []
    for module in (base, pipeline, names, providers, query, registry):
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if not inspect.getdoc(obj):
                undocumented.append(f"{module.__name__}.{name}")
    assert not undocumented, f"undocumented public callables: {undocumented}"
