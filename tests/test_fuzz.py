"""Property fuzz of the CLI's input surfaces: documents, config files, symbols.

Whatever the input, a run must end with an exit code of the documented
contract (0 to 4) and write at most one line to stderr: no traceback and
no warning, which the fuzz turns into an error. The runs are in-process,
derandomized and bounded in number, so the module stays fast and
reproducible. Integer option values are kept small or far above their
caps: values in between are legal but only slow.
"""

import contextlib
import copy
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import F
from quasifractal import cantor, document, planar, spatial
from quasifractal.cli import RANDOM_CHECK_CAP, TRUNCATE_CAP, main

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

LOOP = "1/7,1/7 5/7,1/7 5/7,5/7"


def _run(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    assert code in range(5), (argv, code)
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    return code


def _seed_documents() -> list[dict]:
    docs = []
    written = []
    for depth in (0, 1):
        written.append(document.stage2_to_document(cantor.build(cantor.Params2(F(1, 3), depth))))
        for kind in (planar.CARPET, planar.GASKET):
            written.append(document.pieces_to_document(planar.build_planar(kind, depth)))
        for variant in (
            spatial.SpatialVariant(spatial.CUBE_WIREFRAME, F(1, 3)),
            spatial.SpatialVariant(spatial.TETRA_GASKET),
        ):
            written.append(document.stage3_to_document(spatial.build_spatial(variant, depth)))
    # a document's lists are written ahead (document.Encoded): read its bytes back
    return [json.loads(document.dumps_document(doc)) for doc in written]


SEEDS = _seed_documents()
WRONG_VALUES = st.sampled_from(
    [None, True, 0, -1, 7, 1.5, "", "x", "1/0", "-2/3", "99999999999999999999/7", [], {}, ["0"], [["0", "0"]]]
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _mutate(data, doc):
    """Delete a key or item, or swap a value for a wrong one, somewhere in doc."""
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = node[key]
    if parent is None:
        return
    if data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(WRONG_VALUES)


@FUZZ
@given(data=st.data())
def test_mutated_documents_keep_the_exit_contract(workdir, data):
    doc = copy.deepcopy(data.draw(st.sampled_from(SEEDS)))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    path = workdir / "doc.json"
    path.write_text(json.dumps(doc))
    _run(["render", "--input", str(path), "--out", str(workdir / "out.txt")])
    _run(["index", "--pieces", str(path), "--loop", LOOP])


COMMAND_KEYS = {
    "gen2d": ["a", "depth", "svg"],
    "carpet": ["depth"],
    "gasket": ["depth"],
    "gen3d": ["variant", "a", "depth"],
    "measure": ["a", "depth"],
    "toeplitz": ["symbol", "truncate", "random_check", "samples"],
    "index": ["pieces", "loop"],
    "render": ["input", "loop"],
}
CONFIG_VALUES = st.one_of(
    st.integers(-2, 2).map(str),
    st.sampled_from(["1/3", "2/5", "1/2", "0", "-1/3", "cube", "tetra", "0:4, 1:1", LOOP, "10" * 6]),
    st.text(alphabet="0123456789/-:, .xj=#", max_size=12),
)


@settings(FUZZ, max_examples=120)
@given(data=st.data())
def test_config_files_keep_the_exit_contract(workdir, data):
    command = data.draw(st.sampled_from(sorted(COMMAND_KEYS)))
    keys = st.sampled_from(COMMAND_KEYS[command] + ["threads", "seed", "banana", ""])
    lines = data.draw(
        st.lists(
            st.one_of(
                st.tuples(keys, CONFIG_VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
                st.text(alphabet="abc =#\t", max_size=6),
            ),
            max_size=5,
        )
    )
    config = workdir / "run.cfg"
    config.write_text("\n".join(lines) + "\n")
    _run([command, "--config", str(config), "--out", str(workdir / "out.txt")])


SYMBOLS = st.one_of(
    st.text(alphabet="0123456789-+:.,j eEinfa", max_size=24),
    st.lists(
        st.tuples(st.integers(-12, 12), st.complex_numbers(max_magnitude=1e6)),
        min_size=1,
        max_size=4,
    ).map(lambda terms: ", ".join(f"{k}:{c.real}{c.imag:+}j" for k, c in terms)),
)
OUT_OF_RANGE = st.sampled_from([-3, 0, TRUNCATE_CAP + 1, RANDOM_CHECK_CAP + 1, 5_000_000, 10**9])


@settings(FUZZ, max_examples=150)
@given(
    symbol=SYMBOLS,
    truncate=st.none() | st.integers(1, 40) | OUT_OF_RANGE,
    random_check=st.none() | st.integers(0, 3) | OUT_OF_RANGE,
    samples=st.none() | st.integers(64, 4096) | OUT_OF_RANGE,
)
def test_symbols_and_toeplitz_bounds_keep_the_exit_contract(symbol, truncate, random_check, samples):
    argv = ["toeplitz", "--symbol", symbol]
    for flag, value in (("--truncate", truncate), ("--random-check", random_check), ("--samples", samples)):
        if value is not None:
            argv += [flag, str(value)]
    _run(argv)
