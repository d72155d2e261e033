"""Byte identity of cantor, cube and tetra CLI outputs, pinned in a data file.

`skeleton_digests.json` holds, per case, the generating command and the
SHA-256 of its JSON document and of its SVG or OBJ companion where it has
one. The digests were recorded before the skeleton stages were built as
numpy arrays. The cases cover the deck's largest cantor scales, a cube and
a tetrahedron with their OBJ files, a = 997/1999 (lattice ints past the
kernel's int64 bound) and a = 1/65537 at depth 4, whose lattice
D = 65537^4 is past int64 itself, so its stage is built on Python ints.
"""

import hashlib
import json
from pathlib import Path

import pytest

from quasifractal.cli import EXIT_OK, main

DIGESTS = json.loads((Path(__file__).parent / "skeleton_digests.json").read_text())


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_skeleton_outputs_match_their_digests(name, tmp_path):
    case = DIGESTS[name]
    argv = case["argv"].split()
    outputs = {"json": tmp_path / "out.json"}
    for companion in ("svg", "obj"):
        if companion in case:
            outputs[companion] = tmp_path / f"out.{companion}"
            argv += [f"--{companion}", str(outputs[companion])]
    assert main(argv + ["--out", str(outputs["json"])]) == EXIT_OK
    digests = {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in outputs.items()}
    assert digests == {key: value for key, value in case.items() if key != "argv"}
