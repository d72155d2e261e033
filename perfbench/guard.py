"""Byte-identity guard: fixed CLI outputs must keep their SHA-256 digests.

The matrix is the acceptance suite's determinism configurations plus one
SVG and one OBJ output. `digests.json` holds the digests recorded from
the unoptimised Fraction implementation; every benchmark run regenerates
the matrix and counts each output whose bytes changed as a failed
operation.

Record the digests again (only when an output change is intended):

    python3 perfbench/guard.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

MATRIX = {
    "gen2d-1_5-d3.json": ["gen2d", "--a", "1/5", "--depth", "3"],
    "gen2d-1_3-d4.json": ["gen2d", "--a", "1/3", "--depth", "4"],
    "gen2d-2_5-d2.json": ["gen2d", "--a", "2/5", "--depth", "2"],
    "cube-1_3-d2.json": ["gen3d", "--variant", "cube", "--a", "1/3", "--depth", "2"],
    "cube-1_5-d1.json": ["gen3d", "--variant", "cube", "--a", "1/5", "--depth", "1"],
    "tetra-d3.json": ["gen3d", "--variant", "tetra", "--depth", "3"],
    "carpet-d1.json": ["carpet", "--depth", "1"],
    "carpet-d2.json": ["carpet", "--depth", "2"],
    "carpet-d3.json": ["carpet", "--depth", "3"],
}
# extra outputs written alongside a matrix document: name -> (document, flag)
EXTRAS = {
    "gen2d-1_5-d3.svg": ("gen2d-1_5-d3.json", "--svg"),
    "cube-1_5-d1.obj": ("cube-1_5-d1.json", "--obj"),
}


def produce(main, workdir: Path) -> dict[str, tuple[int, str | None]]:
    """Run the matrix; output name -> (exit code, digest or None)."""
    results = {}
    for name, argv in MATRIX.items():
        argv = argv + ["--out", str(workdir / name)]
        extras = [extra for extra, (doc, _) in EXTRAS.items() if doc == name]
        for extra in extras:
            argv += [EXTRAS[extra][1], str(workdir / extra)]
        code = main(argv)
        for output in [name] + extras:
            path = workdir / output
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if code == 0 and path.exists() else None
            results[output] = (code, digest)
    return results


def verify(main, workdir: Path) -> dict[str, list[str]]:
    """Problems per matrix output, against the recorded digests."""
    recorded = json.loads(DIGESTS.read_text())
    problems = {}
    for name, (code, digest) in produce(main, workdir).items():
        if code != 0:
            problems[name] = [f"exit code {code}"]
        elif digest != recorded.get(name):
            problems[name] = [f"digest {digest} differs from the recorded one"]
        else:
            problems[name] = []
    return problems


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    from quasifractal.cli import main as cli_main

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = {name: digest for name, (code, digest) in produce(cli_main, Path(tmp)).items()}
    if None in out.values():
        sys.exit("a matrix command failed; digests not recorded")
    DIGESTS.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(out)} digests in {DIGESTS}")
