"""Self-tests of the benchmark: determinism, negative controls, tracing."""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import checks  # noqa: E402
import guard  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

qf = run.import_program()


@pytest.fixture(scope="module")
def query_docs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("query")
    run.set_up("query", qf, workdir, run.Tally())
    return workdir, workloads.load_documents(workdir)


def _first(workload, seed, workdir, docs=None, n=60):
    return [r.argv for r in itertools.islice(workloads.stream(workload, seed, workdir, docs), n)]


@pytest.mark.parametrize("workload", ["skeleton", "pieces"])
def test_same_seed_same_argv_stream(workload, tmp_path):
    assert _first(workload, 7, tmp_path) == _first(workload, 7, tmp_path)
    assert _first(workload, 7, tmp_path) != _first(workload, 8, tmp_path)


def test_same_seed_same_query_stream(query_docs):
    workdir, docs = query_docs
    assert _first("query", 7, workdir, docs) == _first("query", 7, workdir, docs)
    assert _first("query", 7, workdir, docs) != _first("query", 8, workdir, docs)


def test_every_prefix_keeps_the_mix(tmp_path):
    deck = list(itertools.islice(workloads.stream("skeleton", 3, tmp_path), 120))
    classes = Counter((r.kind, r.expect["depth"]) for r in deck)
    for prefix in range(1, len(deck) + 1):
        seen = Counter((r.kind, r.expect["depth"]) for r in deck[:prefix])
        for cls, size in classes.items():
            assert abs(seen[cls] - prefix * size / len(deck)) <= 2, (prefix, cls)


def _sent(request, docs=None):
    code = qf.cli.main(list(request.argv))
    return [f"exit code {code}"] if code else checks.check(request, docs)


def test_gen2d_wrong_component_count_is_caught(tmp_path, monkeypatch):
    gen2d = workloads.Request("gen2d", ("gen2d", "--a", "1/3", "--depth", "2", "--out", str(tmp_path / "o.json")), {"a": "1/3", "depth": 2})
    assert _sent(gen2d) == []
    monkeypatch.setattr(qf.cantor, "connectivity", lambda stage: 2)
    assert any(p.startswith("components") for p in _sent(gen2d))


def test_wrong_index_entries_are_caught(query_docs, monkeypatch):
    workdir, docs = query_docs
    index = next(r for r in workloads.stream("query", 5, workdir, docs) if r.kind == "index")
    assert _sent(index, docs) == []
    real = qf.topology.index_vector

    def off_by_one(loop, holes):
        entries = real(loop, holes)
        return (entries[0] + 1,) + entries[1:]

    monkeypatch.setattr(qf.topology, "index_vector", off_by_one)
    assert any(p.startswith("entries") for p in _sent(index, docs))


def test_wrong_toeplitz_index_is_caught(tmp_path, monkeypatch):
    rng = workloads.random.Random(4)
    request = workloads._toeplitz(rng, "product", tmp_path)
    assert _sent(request) == []
    real = qf.toeplitz.winding_by_roots
    monkeypatch.setattr(qf.toeplitz, "winding_by_roots", lambda s: real(s) + 1)
    assert _sent(request) != []


def test_corrupted_document_byte_fails_the_guard(tmp_path, monkeypatch):
    monkeypatch.setattr(guard, "MATRIX", {"carpet-d1.json": ["carpet", "--depth", "1"]})
    monkeypatch.setattr(guard, "EXTRAS", {})
    assert guard.verify(qf.cli.main, tmp_path) == {"carpet-d1.json": []}

    def corrupting(argv):
        code = qf.cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        data = bytearray(out.read_bytes())
        data[len(data) // 2] ^= 1
        out.write_bytes(bytes(data))
        return code

    assert guard.verify(corrupting, tmp_path)["carpet-d1.json"] != []


def _attributes():
    owners = [qf.cantor, qf.spatial, qf.planar, qf.document, qf.render, qf.topology, qf.toeplitz, qf.cli,
              qf.geometry, qf.topology.HoleSet, qf.geometry.SegmentIndex, qf.unionfind.UnionFind]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def _traced(workload, workdir, docs, n):
    tracer = Tracer()
    tally = run.Tally()
    tracer.install(qf)
    try:
        requests = itertools.islice(workloads.stream(workload, 2, workdir, docs), n)
        latencies = [run.run_request(qf.cli.main, r, docs, tally, tracer) for r in requests]
    finally:
        tracer.uninstall()
    assert tally.failed == 0, tally.problems
    return run.per_layer(tracer, latencies, latencies)


def test_traced_run_leaves_no_wrapper(tmp_path):
    before = _attributes()
    _traced("skeleton", tmp_path, None, 3)
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_every_layer_reports_work(tmp_path, query_docs):
    workdir, docs = query_docs
    layers = {
        "skeleton": _traced("skeleton", tmp_path, None, 12),
        "pieces": _traced("pieces", tmp_path, None, 8),
        "query": _traced("query", workdir, docs, 40),
    }
    for name in run.PER_LAYER:
        if name != "cli.failed":
            assert any(metrics[name] > 0 for metrics in layers.values()), name
    for workload in ("pieces", "query"):
        assert all(v == 0 for k, v in layers[workload].items() if k.startswith("geometry.")), workload


def test_calibration_rescales_each_request_by_its_neighbouring_gaps():
    ref = calibration.REFERENCE_MS / 1000
    # The host runs at half speed around request 0 and at full speed after it.
    gaps = [[2 * ref] * 3, [2 * ref, 2 * ref, ref], [ref] * 3]
    adjusted = calibration.adjust([1.0, 1.0], gaps)
    assert adjusted == pytest.approx([0.5, 1.0])
    with pytest.raises(ValueError):
        calibration.adjust([1.0, 1.0], gaps[:2])
    assert len(calibration.Calibration().sample(2)) == 2


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, f"{BENCH.name}/run.py", "--workload", "pieces", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
