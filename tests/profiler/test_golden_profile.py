"""The golden profile: fib(16) with a 50 % what-if, bit for bit.

Two committed files pin it: ``profile_fib16_whatif.summary.json``
holds every field of the profile except the parallelism series (a
readable diff when something moves), and ``profile_fib16_whatif.sha256``
holds the sha256 of the exact bytes ``repro profile --json`` writes,
series included.  The CI ``profiler-smoke`` job checks the same digest
end to end.  Regenerate both (only for an intentional change) with:

    repro profile fib:n=16 --what-if body=fib,speedup=50 --json p.json
    sha256sum p.json | cut -d' ' -f1 > tests/fixtures/profile_fib16_whatif.sha256

and the summary as ``p.json`` without ``parallelism.points``.
"""

import hashlib
import json
import pathlib

from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
SUMMARY = FIXTURES / "profile_fib16_whatif.summary.json"
DIGEST = FIXTURES / "profile_fib16_whatif.sha256"


def test_profile_matches_golden_fixture(tmp_path, capsys):
    out = tmp_path / "p.json"
    argv = ["profile", "fib:n=16", "--what-if", "body=fib,speedup=50", "--json", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    written = out.read_bytes()
    profile = json.loads(written)
    del profile["parallelism"]["points"]
    assert profile == json.loads(SUMMARY.read_text())
    assert hashlib.sha256(written).hexdigest() == DIGEST.read_text().strip()
