"""CLI behavior: outputs, exit codes, config precedence, determinism."""

import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import random_check_oracle
from quasifractal import toeplitz
from quasifractal.cantor import DEPTH_CAP
from quasifractal.cli import (
    EXIT_CAPACITY,
    MEASURE_DEPTH_CAP,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    RANDOM_CHECK_CAP,
    SYMBOL_BAND_CAP,
    TRUNCATE_CAP,
    RunConfig,
    main,
    parse_loop,
    run,
)
from quasifractal.errors import ParameterError
from quasifractal.planar import CARPET_DEPTH_CAP
from quasifractal.spatial import CUBE_DEPTH_CAP


def test_gen2d_writes_stage_document(tmp_path):
    out = tmp_path / "s.json"
    assert main(["gen2d", "--a", "1/5", "--depth", "3", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["kind"] == "cantor2d"
    assert len(doc["cells"]) == 64
    assert doc["measures"]["cell_count"] == 64
    assert doc["measures"]["perimeter"]["finite"] is True


def test_gen2d_half_case_has_no_perimeter_series(tmp_path):
    out = tmp_path / "s.json"
    assert main(["gen2d", "--a", "1/2", "--depth", "1", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["measures"]["perimeter"] is None


def test_measure_reports_divergence(capsys):
    assert main(["measure", "--a", "3/10", "--depth", "5"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["perimeter"]["finite"] is False
    assert report["perimeter"]["limit"] is None


def test_toeplitz_shift_symbol(capsys):
    assert main(["toeplitz", "--symbol", "1:1"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["winding_by_argument"] == 1
    assert report["fredholm_index"] == -1
    assert report["methods_agree"] is True


def test_toeplitz_truncation_and_random_check(capsys):
    code = main(
        ["toeplitz", "--symbol", "2:1", "--truncate", "5", "--random-check", "5", "--seed", "11"]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["truncation"]["numerical_rank"] == 3
    assert report["random_check"]["agreements"] == 5


def test_index_command(tmp_path, capsys):
    pieces = tmp_path / "carpet.json"
    assert main(["carpet", "--depth", "2", "--out", str(pieces)]) == EXIT_OK
    capsys.readouterr()
    code = main(
        ["index", "--pieces", str(pieces), "--loop", "1/3,1/3 2/3,1/3 2/3,2/3 1/3,2/3"]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["entries"] == [1] + [0] * 8
    assert report["labels"][0] == "1:0"


def test_render_svg_and_obj(tmp_path):
    doc2 = tmp_path / "g.json"
    svg = tmp_path / "g.svg"
    assert main(["gasket", "--depth", "2", "--out", str(doc2), "--svg", str(svg)]) == EXIT_OK
    assert svg.read_text().startswith("<?xml")
    doc3 = tmp_path / "t.json"
    obj = tmp_path / "t.obj"
    assert main(["gen3d", "--variant", "tetra", "--depth", "1", "--out", str(doc3)]) == EXIT_OK
    assert main(["render", "--input", str(doc3), "--out", str(obj)]) == EXIT_OK
    assert obj.read_text().startswith("# quasifractal tetra_gasket")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen2d", "--a", "1/3", "--depth", "2", "--svg", "out"],
        ["carpet", "--depth", "2", "--svg", "out"],
        ["gasket", "--depth", "3", "--svg", "out"],
        ["gen3d", "--variant", "cube", "--a", "1/3", "--depth", "1", "--obj", "out"],
        ["gen3d", "--variant", "tetra", "--depth", "2", "--obj", "out"],
    ],
    ids=["gen2d", "carpet", "gasket", "cube", "tetra"],
)
def test_builders_never_put_objects_on_a_lattice(argv, tmp_path, monkeypatch):
    # every builder starts from level-0 arrays: none reads coordinates back
    # from objects, which only `to_lattice` puts on a lattice
    def refuse(values):
        raise AssertionError("a builder put objects on a lattice")

    monkeypatch.setattr("quasifractal.geometry.to_lattice", refuse)
    monkeypatch.setattr("quasifractal.render.to_lattice", refuse)
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "doc.json"]) == EXIT_OK
    assert (tmp_path / "out").stat().st_size > 0


def test_render_overlay(tmp_path):
    doc = tmp_path / "c.json"
    out = tmp_path / "c.svg"
    assert main(["carpet", "--depth", "1", "--out", str(doc)]) == EXIT_OK
    code = main(
        ["render", "--input", str(doc), "--loop", "0,0 1,0 1,1 0,1", "--out", str(out)]
    )
    assert code == EXIT_OK
    assert "<text" in out.read_text()


@pytest.mark.parametrize("variant", ["cube", "tetra"])
@pytest.mark.parametrize("loop", ["garbage", "0,0 1,0 1,1 0,1"])
def test_render_refuses_a_loop_on_3d_documents(variant, loop, tmp_path, capsys):
    path = tmp_path / "s.json"
    _spatial_document(variant, "1", path)
    argv = ["render", "--input", str(path), "--loop", loop, "--out", str(tmp_path / "s.obj")]
    _assert_one_validation_line(argv, capsys)
    assert not (tmp_path / "s.obj").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen2d", "--a", "1/3", "--depth", "1", "--svg", ""],
        ["carpet", "--depth", "1", "--svg", ""],
        ["gasket", "--depth", "1", "--svg", ""],
        ["carpet", "--depth", "1", "--config", "{svg_config}"],
        ["gen3d", "--variant", "tetra", "--depth", "1", "--obj", ""],
        ["render", "--input", "{doc}", "--loop", ""],
        ["index", "--pieces", "{doc}", "--loop", ""],
        ["gen2d", "--a", "1/3", "--depth", "1", "--config", ""],
        ["gen2d", "--a", "1/3", "--depth", "1", "--out", ""],
    ],
)
def test_empty_output_and_loop_paths_exit_validation(argv, tmp_path, capsys):
    # an empty path or loop is refused like any other bad one, never skipped
    doc, config, out = tmp_path / "carpet.json", tmp_path / "run.cfg", tmp_path / "out"
    assert main(["carpet", "--depth", "1", "--out", str(doc)]) == EXIT_OK
    config.write_text("svg =\n")
    argv = [arg.format(doc=doc, svg_config=config) for arg in argv]
    assert main(argv + ([] if "--out" in argv else ["--out", str(out)])) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["gen2d", "--a", "1/3", "--depth", "2", "--svg", "{missing}/x.svg"], "--svg"),
        (["gen2d", "--a", "1/3", "--depth", "2", "--svg", ""], "--svg"),
        (["carpet", "--depth", "1", "--svg", "{dir}"], "--svg"),
        (["gasket", "--depth", "1", "--svg", "{file}/x.svg"], "--svg"),
        (["gasket", "--depth", "1", "--out", "{missing}/x.json", "--svg", "{dir}/ok.svg"], "--out"),
        (["gen3d", "--variant", "tetra", "--depth", "1", "--obj", ""], "--obj"),
        (["gen3d", "--variant", "cube", "--a", "1/3", "--depth", "1", "--obj", "{missing}/x.obj"], "--obj"),
    ],
)
@pytest.mark.parametrize("to_file", [True, False])
def test_a_refused_output_path_writes_nothing(argv, option, to_file, tmp_path, capsys):
    # every output path is checked before any output: no document file, no
    # document on stdout, and the one error line names the refused option
    outputs = tmp_path / "outputs"
    outputs.mkdir()
    (tmp_path / "file").write_text("")
    argv = [arg.format(missing=tmp_path / "missing", dir=outputs, file=tmp_path / "file") for arg in argv]
    if to_file and "--out" not in argv:
        argv += ["--out", str(outputs / "doc.json")]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and f"cannot write {option} " in captured.err, captured.err
    assert list(outputs.iterdir()) == []


@pytest.mark.parametrize("alias", ["same.x", "./same.x", "sub/../same.x"])
@pytest.mark.parametrize(
    "argv, first, second",
    [
        (["gen2d", "--a", "1/3", "--depth", "1"], "--out", "--svg"),
        (["carpet", "--depth", "1"], "--svg", "--out"),
        (["gen3d", "--variant", "tetra", "--depth", "1"], "--out", "--obj"),
    ],
)
def test_two_output_options_naming_one_file_are_refused(argv, first, second, alias, tmp_path, monkeypatch, capsys):
    # two outputs on one file would leave only the last one written: the
    # command is refused before any work, and the error names both options
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert main([*argv, first, "same.x", second, alias]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1, captured.err
    assert "names the same file" in captured.err and first in captured.err and second in captured.err, captured.err
    assert [path.name for path in tmp_path.iterdir()] == ["sub"]


def test_exit_codes():
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert main(["gen2d", "--a", "1/5", "--depth", "not-a-number"]) == EXIT_USAGE
    assert main(["gen2d", "--a", "3/5", "--depth", "1"]) == EXIT_VALIDATION
    assert main(["gen2d", "--depth", "1"]) == EXIT_VALIDATION  # missing --a
    assert main(["gen2d", "--a", "1/5", "--depth", "99"]) == EXIT_CAPACITY
    assert main(["toeplitz", "--symbol", "0:-1, 1:1"]) == EXIT_NUMERICAL
    assert main(["render", "--input", "/nonexistent/x.json"]) == EXIT_VALIDATION
    assert main(["gen3d", "--variant", "cube", "--depth", "1"]) == EXIT_VALIDATION
    assert main(["gen3d", "--variant", "tetra", "--a", "1/3", "--depth", "1"]) == EXIT_VALIDATION


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_a_validation_error(threads, tmp_path):
    tail = ["--threads", threads, "--out", str(tmp_path / "x.json")]
    assert main(["gen2d", "--a", "1/3", "--depth", "0"] + tail) == EXIT_VALIDATION
    assert main(["carpet", "--depth", "1"] + tail) == EXIT_VALIDATION
    assert main(["measure", "--a", "1/3"] + tail) == EXIT_VALIDATION


def test_rationals_too_large_to_write_exit_capacity(tmp_path):
    out = ["--out", str(tmp_path / "x.json")]
    cap = str(MEASURE_DEPTH_CAP)
    assert main(["gen2d", "--a", "1/1" + "0" * 3000, "--depth", "2"] + out) == EXIT_CAPACITY
    assert main(["measure", "--a", "1/1" + "0" * 300, "--depth", "20"] + out) == EXIT_CAPACITY
    assert main(["measure", "--a", "1/3", "--depth", cap] + out) == EXIT_OK
    assert main(["measure", "--a", "1/8", "--depth", cap] + out) == EXIT_OK


def test_measure_depth_cap_exits_capacity_fast(tmp_path):
    out = ["--out", str(tmp_path / "x.json")]
    above = str(MEASURE_DEPTH_CAP + 1)
    assert main(["measure", "--a", "1/3", "--depth", above] + out) == EXIT_CAPACITY
    start = time.perf_counter()
    assert main(["measure", "--a", "1/3", "--depth", "200000"] + out) == EXIT_CAPACITY
    assert time.perf_counter() - start < 1.0


def test_toeplitz_non_finite_coefficient_is_a_validation_error():
    assert main(["toeplitz", "--symbol", "0:1, 1:nan"]) == EXIT_VALIDATION
    assert main(["toeplitz", "--symbol", "0:1, 1:inf"]) == EXIT_VALIDATION
    assert main(["toeplitz", "--symbol", "0:1, 1:1+infj"]) == EXIT_VALIDATION


def test_toeplitz_symbol_overflowing_on_the_circle_is_a_validation_error():
    # each coefficient is finite, but their moduli sum beyond the floats; a
    # subprocess, because numpy warnings reach stderr only outside pytest
    proc = subprocess.run(
        [sys.executable, "-m", "quasifractal", "toeplitz", "--symbol", "0:1e308, 1:1e308"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_VALIDATION, proc.stderr
    assert proc.stderr.startswith("validation error:") and proc.stderr.count("\n") == 1, proc.stderr


def test_toeplitz_huge_finite_coefficient_is_sampled_without_overflow():
    # a subprocess, because numpy warnings reach stderr only outside pytest
    proc = subprocess.run(
        [sys.executable, "-m", "quasifractal", "toeplitz", "--symbol", "0:1e308+1e308j"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["winding_by_argument"] == 0
    assert report["min_modulus_on_circle"] == 1.4142135623730951e308


def test_toeplitz_overflowing_companion_matrix_is_one_numerical_error_line():
    # -1e300 / 1e-300 overflows in the companion matrix of 1e-300 z + 1e300
    proc = subprocess.run(
        [sys.executable, "-m", "quasifractal", "toeplitz", "--symbol", "0:1e300, 1:1e-300"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_NUMERICAL
    assert proc.stderr == "numerical error: root finding failed: Array must not contain infs or NaNs\n"


def test_toeplitz_reports_one_sampling_run(capsys):
    # |2 + c z| with |c| = 1 reaches 1 at theta = pi - arg(c), which no grid
    # hits: the sampled minimum at 100 points differs from the default 64's
    assert main(["toeplitz", "--symbol", "0:2, 1:0.6+0.8j", "--samples", "100"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    theta = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
    expected = float(np.abs(2 + (0.6 + 0.8j) * np.exp(1j * theta)).min())
    assert report["min_modulus_on_circle"] == pytest.approx(expected, rel=1e-12)
    assert report["winding_by_argument"] == report["winding_by_roots"] == 0
    assert report["methods_agree"] is True


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out.lower() or True


def test_config_file_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("a = 1/5\ndepth = 3  # overridden by the flag\n")
    out = tmp_path / "s.json"
    code = main(["gen2d", "--config", str(config), "--depth", "1", "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["params"]["a"] == "1/5"  # from the config file
    assert doc["level"] == 1  # flag wins over config


def test_config_file_rejects_unknown_keys(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("banana = 7\n")
    assert main(["gen2d", "--config", str(config), "--a", "1/5", "--depth", "1"]) == EXIT_VALIDATION


def test_seed_belongs_to_toeplitz_only(tmp_path, capsys):
    base = ["gen2d", "--a", "1/3", "--depth", "1", "--out", str(tmp_path / "s.json")]
    assert main(base + ["--seed", "3"]) == EXIT_USAGE
    config = tmp_path / "run.cfg"
    config.write_text("seed = 3\n")
    assert main(base + ["--config", str(config)]) == EXIT_VALIDATION
    assert not (tmp_path / "s.json").exists()
    capsys.readouterr()
    assert main(["toeplitz", "--symbol", "1:1", "--random-check", "2", "--seed", "3"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["random_check"]["seed"] == 3


def test_config_file_not_utf8_is_a_validation_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"depth = 1 # \xff\xfe\n")
    assert main(["gen2d", "--config", str(config), "--a", "1/5"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and err.count("\n") == 1, err


def test_parse_loop_errors():
    with pytest.raises(ParameterError):
        parse_loop("0,0 1")
    with pytest.raises(ParameterError):
        parse_loop("0,0 1,zebra 2,2")


def test_run_config_surface(tmp_path):
    out = tmp_path / "x.json"
    config = RunConfig(
        command="carpet",
        options={"depth": 1, "out": str(out), "threads": None, "seed": None, "svg": None},
    )
    assert run(config) == EXIT_OK
    assert json.loads(out.read_text())["kind"] == "carpet"


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_thread_count_does_not_change_bytes(tmp_path):
    one = tmp_path / "one.json"
    eight = tmp_path / "eight.json"
    base = ["gen2d", "--a", "1/3", "--depth", "4"]
    assert main(base + ["--threads", "1", "--out", str(one)]) == EXIT_OK
    assert main(base + ["--threads", "8", "--out", str(eight)]) == EXIT_OK
    assert _digest(one) == _digest(eight)


def test_module_invocation_subprocess(tmp_path):
    out = tmp_path / "sub.json"
    proc = subprocess.run(
        [sys.executable, "-m", "quasifractal", "gen2d", "--a", "1/4", "--depth", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["level"] == 1


def test_dimension_underflow_exits_capacity(capsys):
    # 10^-400 is a valid scale factor but underflows a float to 0
    assert main(["measure", "--a", "1/1" + "0" * 400, "--depth", "2"]) == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert err.startswith("capacity error:") and err.count("\n") == 1


def test_measure_refuses_oversize_sum_before_computing_it(tmp_path):
    out = ["--out", str(tmp_path / "x.json")]
    big = 10**4000
    a = f"{big}/{3 * big + 1}"  # about 1/3: no float underflow, 4001-digit denominator
    start = time.perf_counter()
    assert main(["measure", "--a", a, "--depth", "1000"] + out) == EXIT_CAPACITY
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("a", ["1/7", "1/5", "2/9", "1/4", "3/10", "1/3", "2/5", "3/7"])
def test_measure_small_denominators_reach_the_depth_cap(a, tmp_path):
    out = tmp_path / "x.json"
    assert main(["measure", "--a", a, "--depth", str(MEASURE_DEPTH_CAP), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["depth"] == MEASURE_DEPTH_CAP


def _malformed_documents(tmp_path):
    carpet = tmp_path / "carpet.json"
    carpet.write_text(json.dumps({"kind": "carpet", "schema_version": 1, "level": 1}))
    cube = tmp_path / "cube.json"
    assert main(["gen3d", "--variant", "cube", "--a", "1/3", "--depth", "0", "--out", str(cube)]) == EXIT_OK
    doc = json.loads(cube.read_text())
    doc["skeleton"][0] = [["0", "0", "0"]]
    cube.write_text(json.dumps(doc))
    return carpet, cube


def test_malformed_documents_are_validation_errors(tmp_path, capsys):
    carpet, cube = _malformed_documents(tmp_path)
    loop = "1/7,1/7 5/7,1/7 5/7,5/7"
    for argv in (
        ["render", "--input", str(carpet)],
        ["index", "--pieces", str(carpet), "--loop", loop],
        ["render", "--input", str(cube)],
        ["index", "--pieces", str(cube), "--loop", loop],
    ):
        assert main(argv) == EXIT_VALIDATION, argv
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and err.count("\n") == 1, err


def test_toeplitz_negative_random_check_is_a_validation_error(capsys):
    assert main(["toeplitz", "--symbol", "0:4, 1:1", "--random-check", "-3"]) == EXIT_VALIDATION
    assert "--random-check" in capsys.readouterr().err


def test_toeplitz_samples_above_the_ceiling_exit_capacity(capsys):
    assert main(["toeplitz", "--symbol", "0:4, 1:1", "--samples", "5000000"]) == EXIT_CAPACITY
    assert str(1 << 22) in capsys.readouterr().err


def test_toeplitz_truncation_cap_exits_capacity_fast(capsys):
    start = time.perf_counter()
    argv = ["toeplitz", "--symbol", "0:4, 1:1", "--truncate", str(TRUNCATE_CAP + 1)]
    assert main(argv) == EXIT_CAPACITY
    assert time.perf_counter() - start < 0.5
    assert "--truncate" in capsys.readouterr().err


def test_toeplitz_random_check_cap_exits_capacity_fast(capsys):
    start = time.perf_counter()
    argv = ["toeplitz", "--symbol", "0:4, 1:1", "--random-check", str(RANDOM_CHECK_CAP + 1)]
    assert main(argv) == EXIT_CAPACITY
    assert time.perf_counter() - start < 0.5
    assert "--random-check" in capsys.readouterr().err


def test_toeplitz_random_check_at_the_cap_agrees_on_every_draw(capsys):
    argv = ["toeplitz", "--symbol", "0:4, 1:1", "--random-check", str(RANDOM_CHECK_CAP)]
    assert main(argv) == EXIT_OK
    check = json.loads(capsys.readouterr().out)["random_check"]
    assert check["count"] == check["agreements"] == RANDOM_CHECK_CAP


@pytest.mark.parametrize(
    "seed, message",
    [
        (18, "symbol modulus"),  # the argument method fails at draw 2, the roots method at draw 3
        (6, "a symbol root lies"),  # the roots method fails at draw 1, the argument method at draw 6
        (14, "symbol modulus"),  # both methods fail first at draw 7
    ],
)
def test_random_check_fails_with_the_first_error_of_the_per_draw_loop(seed, message, monkeypatch, capsys):
    monkeypatch.setattr(toeplitz, "MIN_CIRCLE_MODULUS", 0.1)
    monkeypatch.setattr(toeplitz, "ROOT_CIRCLE_TOL", 0.05)
    argv = ["toeplitz", "--symbol", "1:1", "--random-check", "20", "--seed", str(seed)]
    assert main(argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith(f"numerical error: {message}")

    def per_draw_loop(rng, count):
        random_check_oracle(rng, count)
        pytest.fail("the per-draw loop passed every draw")

    monkeypatch.setattr(toeplitz, "random_symbol", per_draw_loop)
    assert main(argv) == EXIT_NUMERICAL
    assert capsys.readouterr().err == err


def test_root_circle_error_names_the_tolerance_in_force(monkeypatch, capsys):
    # seed 6 draws a symbol with a root within 0.05 of the circle first
    monkeypatch.setattr(toeplitz, "ROOT_CIRCLE_TOL", 0.05)
    argv = ["toeplitz", "--symbol", "1:1", "--random-check", "20", "--seed", "6"]
    assert main(argv) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical error: a symbol root lies on (or within 5e-02 of) the unit circle\n"


def test_toeplitz_symbol_band_cap_exits_capacity_fast(capsys):
    start = time.perf_counter()
    assert main(["toeplitz", "--symbol", f"0:1, {SYMBOL_BAND_CAP + 1}:0.5"]) == EXIT_CAPACITY
    assert time.perf_counter() - start < 0.5
    assert main(["toeplitz", "--symbol", f"0:1, {SYMBOL_BAND_CAP}:0.5", "--out", "/dev/null"]) == EXIT_OK


def _assert_one_validation_line(argv, capsys):
    assert main(argv) == EXIT_VALIDATION, argv
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["render", "index"])
def test_documents_not_utf8_are_validation_errors(command, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"kind": "carpet", "label": "\xff"}')
    if command == "render":
        argv = ["render", "--input", str(path)]
    else:
        argv = ["index", "--pieces", str(path), "--loop", "0,0 1,0 1,1"]
    _assert_one_validation_line(argv, capsys)


@pytest.mark.parametrize("case", ["nesting", "integer"])
def test_documents_beyond_the_json_decoder_limits_are_validation_errors(case, tmp_path, capsys):
    path = tmp_path / "doc.json"
    if case == "nesting":
        path.write_text("[" * 200_000)
    else:
        digits = (getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300) + 1
        path.write_text('{"kind": "carpet", "schema_version": 1, "level": ' + "7" * digits + "}")
    _assert_one_validation_line(["render", "--input", str(path)], capsys)


# Each breaks a depth-1 cantor2d document; "empty" leaves a depth-0 document without cells.
CANTOR2D_MISMATCHES = {
    "empty": lambda doc: doc.update(params={"a": "1/3", "depth": 0}, level=0, cells=[], segments=[]),
    "level": lambda doc: doc.update(level=0),
    "depth": lambda doc: doc["params"].update(depth=2),
    "count": lambda doc: doc["cells"].pop(),
    "side": lambda doc: doc["cells"][-1].update(side="1/9"),
    "address": lambda doc: doc["cells"][-1].update(address="01"),
}


@pytest.mark.parametrize("mismatch", CANTOR2D_MISMATCHES)
def test_cantor2d_cells_must_match_the_level(mismatch, tmp_path, capsys):
    path = tmp_path / "s.json"
    assert main(["gen2d", "--a", "1/3", "--depth", "1", "--out", str(path)]) == EXIT_OK
    assert main(["render", "--input", str(path), "--out", str(tmp_path / "s.svg")]) == EXIT_OK
    doc = json.loads(path.read_text())
    CANTOR2D_MISMATCHES[mismatch](doc)
    path.write_text(json.dumps(doc))
    _assert_one_validation_line(["render", "--input", str(path)], capsys)

def test_cantor2d_level_above_the_cap_exits_capacity(tmp_path):
    path = tmp_path / "s.json"
    assert main(["gen2d", "--a", "1/3", "--depth", "0", "--out", str(path)]) == EXIT_OK
    doc = json.loads(path.read_text())
    doc["params"]["depth"] = doc["level"] = 10**6
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["render", "--input", str(path)]) == EXIT_CAPACITY
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("kind", ["gen2d", "carpet"])
def test_infinite_numbers_in_documents_are_validation_errors(kind, tmp_path, capsys):
    path = tmp_path / "doc.json"
    scale = ["--a", "1/3"] if kind == "gen2d" else []
    assert main([kind, "--depth", "1", "--out", str(path)] + scale) == EXIT_OK
    text = path.read_text()
    for field in ('"level": 1', '"side": "1/3"'):
        assert field in text
        path.write_text(text.replace(field, field.split(":")[0] + ": Infinity", 1))
        _assert_one_validation_line(["render", "--input", str(path)], capsys)


# Each breaks a depth-1 (carpet) or depth-2 (gasket) piece document; "found" drops
# a kept carpet cell and gives another side 5, which drew a 5 x 5 square.
PIECE_MISMATCHES = {
    "found": ("carpet", lambda doc: (doc["kept"].pop(), doc["kept"][0].update(side="5"))),
    "carpet-side": ("carpet", lambda doc: doc["kept"][0].update(side="1/9")),
    "carpet-count": ("carpet", lambda doc: doc["kept"].append(doc["kept"][0])),
    "carpet-level": ("carpet", lambda doc: doc.update(level=2)),
    "carpet-birth": ("carpet", lambda doc: doc["removed"][0].update(birth_level=2)),
    "gasket-count": ("gasket", lambda doc: doc["kept"].pop()),
    "gasket-removed": ("gasket", lambda doc: doc["removed"].pop()),
    "gasket-birth": ("gasket", lambda doc: doc["removed"][-1].update(birth_level=1)),
    "gasket-level": ("gasket", lambda doc: doc.update(level=1)),
}


@pytest.mark.parametrize("mismatch", PIECE_MISMATCHES)
def test_piece_documents_must_match_the_level(mismatch, tmp_path, capsys):
    kind, mutate = PIECE_MISMATCHES[mismatch]
    path = tmp_path / "p.json"
    depth = "1" if kind == "carpet" else "2"
    assert main([kind, "--depth", depth, "--out", str(path)]) == EXIT_OK
    assert main(["render", "--input", str(path), "--out", str(tmp_path / "p.svg")]) == EXIT_OK
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    _assert_one_validation_line(["render", "--input", str(path)], capsys)
    _assert_one_validation_line(["index", "--pieces", str(path), "--loop", "0,0 1,0 1,1"], capsys)


@pytest.mark.parametrize("kind", ["carpet", "gasket"])
def test_piece_level_above_the_cap_exits_capacity(kind, tmp_path):
    path = tmp_path / "p.json"
    assert main([kind, "--depth", "0", "--out", str(path)]) == EXIT_OK
    doc = json.loads(path.read_text())
    doc["level"] = 10**6
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["render", "--input", str(path)]) == EXIT_CAPACITY
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("value", [0.1, 1.0, True])
def test_json_numbers_are_not_read_as_rationals(value, tmp_path, capsys):
    path = tmp_path / "p.json"
    assert main(["carpet", "--depth", "1", "--out", str(path)]) == EXIT_OK
    loop = ["index", "--pieces", str(path), "--loop", "1/3,1/3 2/3,1/3 2/3,2/3 1/3,2/3"]
    assert main(loop) == EXIT_OK
    capsys.readouterr()
    doc = json.loads(path.read_text())
    doc["kept"][0]["side"] = value
    path.write_text(json.dumps(doc))
    _assert_one_validation_line(loop, capsys)


# Count fields of depth-1 documents: kind -> (argv, setter for the value)
COUNT_FIELDS = {
    "carpet-level": (["carpet"], lambda doc, v: doc.update(level=v)),
    "carpet-birth_level": (["carpet"], lambda doc, v: doc["removed"][0].update(birth_level=v)),
    "gen2d-depth": (["gen2d", "--a", "1/3"], lambda doc, v: doc["params"].update(depth=v)),
    "cube-level": (["gen3d", "--variant", "cube", "--a", "1/3"], lambda doc, v: doc.update(level=v)),
    "tetra-birth_level": (
        ["gen3d", "--variant", "tetra"],
        lambda doc, v: doc["pieces"][-1].update(birth_level=v),
    ),
}


@pytest.mark.parametrize("value", [1.9, True, "1"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("field", COUNT_FIELDS)
def test_count_fields_must_be_json_integers(field, value, tmp_path, capsys):
    argv, update = COUNT_FIELDS[field]
    path = tmp_path / "doc.json"
    assert main(argv + ["--depth", "1", "--out", str(path)]) == EXIT_OK
    doc = json.loads(path.read_text())
    update(doc, value)
    path.write_text(json.dumps(doc))
    _assert_one_validation_line(["render", "--input", str(path)], capsys)


# Each breaks a depth-1 spatial document; "found" drops a cube cell, gives
# another side 5 and drops a face.
SPATIAL_MISMATCHES = {
    "found": (
        "cube",
        lambda doc: (doc["cells"].pop(), doc["cells"][0].update(side="5"), doc["pieces"].pop()),
    ),
    "cube-side": ("cube", lambda doc: doc["cells"][0].update(side="1/9")),
    "cube-count": ("cube", lambda doc: doc["cells"].append(doc["cells"][0])),
    "cube-address": ("cube", lambda doc: doc["cells"][0].update(address="00")),
    "cube-face": ("cube", lambda doc: doc["pieces"].pop(0)),
    "cube-birth": ("cube", lambda doc: doc["pieces"][0].update(birth_level=1)),
    "cube-level": ("cube", lambda doc: doc.update(level=0)),
    "tetra-count": ("tetra", lambda doc: doc["cells"].pop()),
    "tetra-address": ("tetra", lambda doc: doc["cells"][-1].update(address="")),
    "tetra-face": ("tetra", lambda doc: doc["pieces"].append(doc["pieces"][-1])),
    "tetra-level": ("tetra", lambda doc: doc.update(level=2)),
}


def _spatial_document(variant: str, depth: str, path) -> None:
    scale = ["--a", "1/3"] if variant == "cube" else []
    argv = ["gen3d", "--variant", variant, "--depth", depth, "--out", str(path)]
    assert main(argv + scale) == EXIT_OK


@pytest.mark.parametrize("mismatch", SPATIAL_MISMATCHES)
def test_spatial_documents_must_match_the_level(mismatch, tmp_path, capsys):
    variant, mutate = SPATIAL_MISMATCHES[mismatch]
    path = tmp_path / "s.json"
    _spatial_document(variant, "1", path)
    assert main(["render", "--input", str(path), "--out", str(tmp_path / "s.obj")]) == EXIT_OK
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    _assert_one_validation_line(["render", "--input", str(path)], capsys)


@pytest.mark.parametrize("variant", ["cube", "tetra"])
def test_spatial_level_above_the_cap_exits_capacity(variant, tmp_path):
    path = tmp_path / "s.json"
    _spatial_document(variant, "1", path)
    doc = json.loads(path.read_text())
    doc["level"] = 10**6
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["render", "--input", str(path)]) == EXIT_CAPACITY
    assert time.perf_counter() - start < 1.0


def test_a_cap_level_list_of_junk_cells_is_refused_before_the_build(tmp_path, capsys):
    # every cell entry takes at least 31 characters, so 262 144 zeros cannot
    # be a level-6 carpet; the refusal comes before the carpet is built
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "carpet", "level": 6, "kept": [0] * 8**6, "removed": []}))
    start = time.perf_counter()
    _assert_one_validation_line(["render", "--input", str(path)], capsys)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("argv", [["carpet", "--depth", "3"], ["gen2d", "--a", "1/3", "--depth", "3"]])
def test_documents_written_another_way_read_as_written(argv, tmp_path):
    # the same JSON with keys sorted and no indentation is the same document
    path, svg = tmp_path / "d.json", tmp_path / "d.svg"
    assert main(argv + ["--out", str(path), "--svg", str(svg)]) == EXIT_OK
    path.write_text(json.dumps(json.loads(path.read_text()), sort_keys=True))
    assert main(["render", "--input", str(path), "--out", str(tmp_path / "again.svg")]) == EXIT_OK
    assert (tmp_path / "again.svg").read_text() == svg.read_text()


@pytest.mark.parametrize("value", [1.0, True])
def test_numbers_equal_to_a_read_int_are_still_refused(value, tmp_path, capsys):
    # a JSON number where the writer puts a "p/q" string is refused, even
    # when it equals the rational; so is an equal float or bool
    path = tmp_path / "p.json"
    assert main(["carpet", "--depth", "0", "--out", str(path)]) == EXIT_OK
    doc = json.loads(path.read_text())
    doc["kept"][0]["corner"] = [0, 0]
    doc["kept"][0]["side"] = 1
    path.write_text(json.dumps(doc))
    _assert_one_validation_line(["render", "--input", str(path)], capsys)
    doc["kept"][0]["corner"] = ["0", "0"]
    doc["kept"][0]["side"] = value
    path.write_text(json.dumps(doc))
    _assert_one_validation_line(["render", "--input", str(path)], capsys)


def test_stage_points_read_from_ints_are_not_reused_for_bools(tmp_path, capsys):
    # the point ["1", "0"] written as the ints [1, 0] is refused, and so is
    # [True, 0]
    path = tmp_path / "s.json"
    assert main(["gen2d", "--a", "1/3", "--depth", "0", "--out", str(path)]) == EXIT_OK
    doc = json.loads(path.read_text())
    assert doc["segments"][1][1] == doc["segments"][3][0] == ["1", "0"]
    doc["segments"][1][1] = [1, 0]
    path.write_text(json.dumps(doc))
    _assert_one_validation_line(["render", "--input", str(path)], capsys)
    doc["segments"][1][1] = ["1", "0"]
    doc["segments"][3][0] = [True, 0]
    path.write_text(json.dumps(doc))
    _assert_one_validation_line(["render", "--input", str(path)], capsys)


def _unreduced(point):
    """The same point with each coordinate written over a doubled denominator."""
    return [f"{2 * v.numerator}/{2 * v.denominator}" for v in map(Fraction, point)]


# Each breaks the first removed ring of a depth-1 piece document; the
# reader refuses it at the path, by kind, of the first entry that differs
# from the construction's ring.
BAD_RINGS = {
    "two-vertices": (lambda ring: ring[:2], {"carpet": "[2]", "gasket": "[2]"}),
    "repeated-vertex": (lambda ring: ring[:2] + ring[1:], {"carpet": "[2][1]", "gasket": "[2][0]"}),
    "repeated-value": (
        lambda ring: ring[:2] + [_unreduced(ring[1])] + ring[2:],
        {"carpet": "[2][0]", "gasket": "[2][0]"},
    ),
}


@pytest.mark.parametrize("bad", BAD_RINGS)
@pytest.mark.parametrize("kind", ["carpet", "gasket"])
def test_piece_rings_must_form_loops(kind, bad, tmp_path, capsys):
    mutate, paths = BAD_RINGS[bad]
    message = f"differs from its level-1 stage at removed[0].boundary{paths[kind]}\n"
    path = tmp_path / "p.json"
    assert main([kind, "--depth", "1", "--out", str(path)]) == EXIT_OK
    doc = json.loads(path.read_text())
    doc["removed"][0]["boundary"] = mutate(doc["removed"][0]["boundary"])
    path.write_text(json.dumps(doc))
    for argv in (["render", "--input", str(path)], ["index", "--pieces", str(path), "--loop", "0,0 1,0 1,1"]):
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.endswith(message) and len(err.splitlines()) == 1


def test_repeated_calls_in_one_process_match_fresh_processes(monkeypatch, capsys):
    # the parser is built once per process; a usage error or --help must
    # leave nothing behind for the next call
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal width
    good = ["gen2d", "--a", "1/3", "--depth", "2"]
    calls = [good, ["gen2d", "--depth", "x"], ["render", "--help"], good]
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "quasifractal", *argv], capture_output=True)
        code = main(argv)
        got = capsys.readouterr()
        assert (code, got.out.encode(), got.err.encode()) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert [main(argv) for argv in calls] == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]


BEYOND_FLOAT = "1" + "0" * 400  # a coordinate no float can hold

# Level-0 documents with one drawn coordinate beyond the float range. Every
# reader refuses it as off the construction (exit 2).
FAR_COORDINATES = {
    "carpet": (["carpet"], lambda doc: doc["kept"][0]["corner"]),
    "gasket": (["gasket"], lambda doc: doc["kept"][0]["vertices"][0]),
    "cantor2d": (["gen2d", "--a", "1/3"], lambda doc: doc["cells"][0]["corner"]),
    "cube": (["gen3d", "--variant", "cube", "--a", "1/3"], lambda doc: doc["skeleton"][0][0]),
}


@pytest.mark.parametrize("kind", FAR_COORDINATES)
def test_render_refuses_coordinates_beyond_the_float_range(kind, tmp_path, capsys):
    argv, point = FAR_COORDINATES[kind]
    path = tmp_path / "far.json"
    assert main(argv + ["--depth", "0", "--out", str(path)]) == EXIT_OK
    doc = json.loads(path.read_text())
    point(doc)[0] = BEYOND_FLOAT
    path.write_text(json.dumps(doc))
    loops = [[]] if kind == "cube" else [[], ["--loop", "-1,-1 2,-1 2,2"]]
    commands = [["render", "--input", str(path), *loop] for loop in loops]
    if kind in ("carpet", "gasket"):
        commands.append(["index", "--pieces", str(path), "--loop", "-1,-1 2,-1 2,2"])
    for command in commands:
        assert main(command) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and err.count("\n") == 1, err


# Each moves a point of a level-1 stage or piece document off the
# construction: out of [0, 1]^d, or off the level's lattice (a denominator
# that does not divide q^level, 2^level for the tetrahedron, 3^level for
# the carpet or 2^(level + 1) for the gasket). "cantor2d-found" moves the
# first cell's corner to (5, 5) and adds a segment from (5, 5) to (7, 5).
OFF_CONSTRUCTION = {
    "cantor2d-found": (
        ["gen2d", "--a", "1/3"],
        lambda doc: (doc["cells"][0].update(corner=["5", "5"]), doc["segments"].append([["5", "5"], ["7", "5"]])),
    ),
    "cantor2d-negative": (["gen2d", "--a", "1/3"], lambda doc: doc["segments"][0][0].__setitem__(0, "-1/3")),
    "cantor2d-off-lattice": (["gen2d", "--a", "1/3"], lambda doc: doc["segments"][0][1].__setitem__(1, "1/9")),
    "cube-corner": (["gen3d", "--variant", "cube", "--a", "1/3"], lambda doc: doc["cells"][0]["corner"].__setitem__(2, "4/3")),
    "cube-off-lattice": (
        ["gen3d", "--variant", "cube", "--a", "1/3"],
        lambda doc: doc["pieces"][0]["boundary"][0].__setitem__(0, "1/7"),
    ),
    "tetra-vertex": (["gen3d", "--variant", "tetra"], lambda doc: doc["cells"][0]["vertices"][1].__setitem__(0, "2")),
    "tetra-off-lattice": (["gen3d", "--variant", "tetra"], lambda doc: doc["skeleton"][0][1].__setitem__(2, "1/4")),
    "carpet-corner": (["carpet"], lambda doc: doc["kept"][0].update(corner=["5", "5"])),
    "carpet-off-lattice": (["carpet"], lambda doc: doc["removed"][0]["boundary"][0].__setitem__(0, "1/9")),
    "gasket-vertex": (["gasket"], lambda doc: doc["kept"][0]["vertices"][1].__setitem__(1, "-1/4")),
    "gasket-off-lattice": (["gasket"], lambda doc: doc["removed"][0]["boundary"][1].__setitem__(0, "1/7")),
    # a string of coordinate characters where the origin's list belongs
    "cantor2d-string-corner": (["gen2d", "--a", "1/3"], lambda doc: doc["cells"][0].update(corner="00")),
    "cantor2d-string-endpoint": (["gen2d", "--a", "1/3"], lambda doc: doc["segments"][0].__setitem__(0, "00")),
    "cube-string-point": (
        ["gen3d", "--variant", "cube", "--a", "1/3"],
        lambda doc: doc["skeleton"][0].__setitem__(0, "000"),
    ),
    "carpet-string-corner": (["carpet"], lambda doc: doc["kept"][0].update(corner="00")),
}


@pytest.mark.parametrize("mismatch", OFF_CONSTRUCTION)
def test_stage_documents_refuse_points_off_the_construction(mismatch, tmp_path, capsys):
    argv, mutate = OFF_CONSTRUCTION[mismatch]
    path = tmp_path / "s.json"
    assert main(argv + ["--depth", "1", "--out", str(path)]) == EXIT_OK
    assert main(["render", "--input", str(path), "--out", str(tmp_path / "s.out")]) == EXIT_OK
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    _assert_one_validation_line(["render", "--input", str(path)], capsys)


def _swap_first_two(items: list) -> None:
    items[0], items[1] = items[1], items[0]


# Depth-2 documents whose entries are all cells, pieces or segments of their
# level, yet which are not the construction: argv, the edit, and the path of
# the first entry that differs. The swapped pieces are born at levels 1 and
# 2; read as they stand, `index` would list their labels in swapped order.
NOT_THE_CONSTRUCTION = {
    "carpet-kept-reversed": (["carpet"], lambda doc: doc["kept"].reverse(), "kept[0].corner[0]"),
    "carpet-kept-duplicated": (
        ["carpet"],
        lambda doc: doc["kept"].__setitem__(1, doc["kept"][0]),
        "kept[1].corner[0]",
    ),
    "carpet-births-swapped": (["carpet"], lambda doc: _swap_first_two(doc["removed"]), "removed[0].boundary[0][0]"),
    "cantor2d-cell-duplicated": (
        ["gen2d", "--a", "1/3"],
        lambda doc: doc["cells"].__setitem__(1, doc["cells"][0]),
        "cells[1].address",
    ),
    "cantor2d-segments-dropped": (
        ["gen2d", "--a", "1/3"],
        lambda doc: doc["segments"].__delitem__(slice(4, 7)),
        "segments[4][0][1]",
    ),
}


@pytest.mark.parametrize("case", NOT_THE_CONSTRUCTION)
def test_documents_other_than_the_construction_exit_2(case, tmp_path, capsys):
    argv, mutate, where = NOT_THE_CONSTRUCTION[case]
    path = tmp_path / "doc.json"
    assert main(argv + ["--depth", "2", "--out", str(path)]) == EXIT_OK
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    commands = [["render", "--input", str(path)]]
    if argv == ["carpet"]:
        commands.append(["index", "--pieces", str(path), "--loop", "0,0 1,0 1,1 0,1"])
    for command in commands:
        assert main(command) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and err.endswith(f" at {where}\n"), err
        assert err.count("\n") == 1, err


DOCUMENT_ARGV = {
    "cantor2d": ["gen2d", "--a", "1/3", "--depth", "2"],
    "carpet": ["carpet", "--depth", "2"],
    "gasket": ["gasket", "--depth", "2"],
    "cube": ["gen3d", "--variant", "cube", "--a", "1/3", "--depth", "1"],
    "tetra": ["gen3d", "--variant", "tetra", "--depth", "2"],
}

# Edits a document reads through: its layout, and its `measures`, which
# are informational and not checked. Each edit returns the new text.
STILL_READS = {
    "no-indentation": lambda doc: json.dumps(doc),
    "measures-removed": lambda doc: json.dumps({k: v for k, v in doc.items() if k != "measures"}, indent=2),
    "measures-first": lambda doc: json.dumps({"measures": doc.pop("measures"), **doc}, indent=2),
    "kept-area-changed": lambda doc: doc["measures"].update(kept_area="1/2") or json.dumps(doc, indent=2),
}


@pytest.mark.parametrize("edit", STILL_READS)
@pytest.mark.parametrize("kind", DOCUMENT_ARGV)
def test_documents_read_whatever_their_layout_and_measures(kind, edit, tmp_path, capsys):
    path, edited = tmp_path / "doc.json", tmp_path / "edited.json"
    assert main(DOCUMENT_ARGV[kind] + ["--out", str(path)]) == EXIT_OK
    edited.write_text(STILL_READS[edit](json.loads(path.read_text())) + "\n")
    commands = [["render", "--input"]]
    if kind in ("carpet", "gasket"):
        commands.append(["index", "--loop", "1/13,1/17 12/13,1/17 1/2,16/17", "--pieces"])
    for command in commands:
        outputs = []
        for source in (path, edited):
            assert main(command + [str(source)]) == EXIT_OK
            outputs.append(capsys.readouterr().out.replace(str(source), "doc"))
        assert outputs[0] == outputs[1]


# One-cell documents at each kind's level cap: argv at depth 0, the edit
# that sets the level, and the cap.
AT_THE_CAP = {
    "carpet": (["carpet"], lambda doc, level: doc.update(level=level), CARPET_DEPTH_CAP),
    "cantor2d": (
        ["gen2d", "--a", "1/2"],
        lambda doc, level: (doc.update(level=level), doc["params"].update(depth=level)),
        DEPTH_CAP,
    ),
    "cube": (["gen3d", "--variant", "cube", "--a", "1/3"], lambda doc, level: doc.update(level=level), CUBE_DEPTH_CAP),
}


@pytest.mark.parametrize("kind", AT_THE_CAP)
def test_cell_count_is_checked_before_the_stage_is_built(kind, tmp_path):
    argv, set_level, cap = AT_THE_CAP[kind]
    path = tmp_path / "doc.json"
    assert main(argv + ["--depth", "0", "--out", str(path)]) == EXIT_OK
    doc = json.loads(path.read_text())
    for level, code in ((cap + 1, EXIT_CAPACITY), (cap, EXIT_VALIDATION)):
        set_level(doc, level)
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main(["render", "--input", str(path)]) == code
        assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "argv, count",
    [
        (["gen2d", "--a", "1/3", "--depth", "3"], "segment_count"),
        (["gen3d", "--variant", "cube", "--a", "1/3", "--depth", "2"], "skeleton_count"),
        (["gen3d", "--variant", "tetra", "--depth", "3"], "skeleton_count"),
    ],
)
def test_skeleton_request_takes_one_carrier_line_pass(argv, count, monkeypatch, tmp_path):
    # union length, connectivity and incidence share the stage's one index,
    # built in one pass over every segment, and every face edge is a
    # skeleton row, answered by membership: the only run lookups are the
    # batched ids_through of connectivity
    from quasifractal.geometry import SegmentIndex

    builds, lookups, batches = [], [], []
    over, runs_at, ids_through = SegmentIndex._over.__func__, SegmentIndex._runs_at, SegmentIndex.ids_through

    def counted_over(cls, lcm, rows):
        builds.append(len(rows))
        return over(cls, lcm, rows)

    monkeypatch.setattr(SegmentIndex, "_over", classmethod(counted_over))
    monkeypatch.setattr(SegmentIndex, "_runs_at", lambda *args: lookups.append(1) or runs_at(*args))
    monkeypatch.setattr(SegmentIndex, "ids_through", lambda *args: batches.append(1) or ids_through(*args))
    out = tmp_path / "s.json"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert builds == [json.loads(out.read_text())["measures"][count]]
    assert len(lookups) == len(batches) <= 1
