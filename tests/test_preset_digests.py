"""SHA-256 digests of the CSVs every figure preset writes.

Each preset runs through cli_report.main at its default seed and
repetitions, and each file it leaves in its out dir is compared with
the digest in preset_digests.json: 11 CSVs over the 9 presets
(curves.csv for figure1, trace.csv and metrics.csv for the run presets,
series.csv for the sweeps), and nothing else, so a stray file such as
trace.csv.part fails too. All of them together take about 15 s.

A deliberate behaviour change re-records the file and says so in
CHANGES.md:

    PYTHONPATH=src python tests/test_preset_digests.py --record
"""

import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from hsdpa_ee.cli_report import PRESETS, build_preset, main

DIGESTS = Path(__file__).with_name("preset_digests.json")


def preset_digests(name: str, out_dir: Path) -> dict[str, str]:
    """Run one preset into out_dir; map 'preset/file' to its SHA-256 for
    every file the run leaves there."""
    command = "sweep" if build_preset(name).kind == "sweep" else "run"
    with redirect_stdout(StringIO()):
        assert main([command, "--preset", name, "--out", str(out_dir)]) == 0
    return {
        f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_csvs_match_recorded_digests(name, tmp_path):
    want = {k: v for k, v in json.loads(DIGESTS.read_text()).items()
            if k.split("/")[0] == name}
    assert want, f"no recorded digests for {name}"
    assert preset_digests(name, tmp_path) == want


def test_digest_file_covers_eleven_csvs():
    assert len(json.loads(DIGESTS.read_text())) == 11


if __name__ == "__main__":
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(PRESETS):
            got.update(preset_digests(name, Path(tmp) / name))
    if sys.argv[1:] == ["--record"]:
        DIGESTS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {DIGESTS} ({len(got)} digests)")
    else:
        want = json.loads(DIGESTS.read_text())
        bad = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        print("\n".join(f"differs: {k}" for k in bad) or f"all {len(got)} digests match")
        sys.exit(1 if bad else 0)
