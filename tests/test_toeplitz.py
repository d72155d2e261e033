"""Symbols, dual winding computations, index reports, truncations."""

import cmath
import contextlib
import io
import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import random_check_oracle
from quasifractal import toeplitz
from quasifractal.errors import NotFredholmError, NumericalError, ParameterError
from quasifractal.toeplitz import (
    IndexReport,
    Symbol,
    fredholm_index,
    orientation_flip,
    random_symbol,
    truncate,
    winding_by_argument,
    winding_by_roots,
)


def test_symbol_trimming_and_band():
    s = Symbol({-2: 1.0, 0: 0.0, 3: 2.0})
    assert list(s.coefficients) == [-2, 3]
    assert (s.m, s.p) == (2, 3)
    constant = Symbol({0: 5})
    assert (constant.m, constant.p) == (0, 0)


def test_symbol_requires_nonzero():
    with pytest.raises(ParameterError):
        Symbol({0: 0.0, 2: 0})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), complex(0, float("-inf"))])
def test_symbol_rejects_non_finite_coefficients(value):
    with pytest.raises(ParameterError):
        Symbol({0: 1, 1: value})


def test_fredholm_index_uses_the_given_samples():
    s = Symbol({0: 2, 1: 0.6 + 0.8j})  # |s| = 1 at theta = pi - arg(0.6 + 0.8j), off every grid
    for samples in (64, 100):
        theta = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        expected = float(np.abs(2 + (0.6 + 0.8j) * np.exp(1j * theta)).min())
        report = fredholm_index(s, samples)
        assert report.min_modulus_on_circle == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ParameterError):
        fredholm_index(s, 8)


def test_symbol_from_string():
    s = Symbol.from_string("-1:1, 0:4, 1:1")
    assert s.coefficients == {-1: (1 + 0j), 0: (4 + 0j), 1: (1 + 0j)}
    t = Symbol.from_string("2:0.5-1.5j")
    assert t.coefficients == {2: 0.5 - 1.5j}
    with pytest.raises(ParameterError):
        Symbol.from_string("1:1, 1:2")
    with pytest.raises(ParameterError):
        Symbol.from_string("one:1")
    with pytest.raises(ParameterError):
        Symbol.from_string("1")


def test_symbol_evaluation_and_product():
    s = Symbol({-1: 1, 1: 1})
    assert s(1j) == pytest.approx(1j + 1 / 1j)
    product = Symbol({0: 1, 1: 1}) * Symbol({-1: 2, 0: 1})
    assert product.coefficients == {-1: 2 + 0j, 0: 3 + 0j, 1: 1 + 0j}


def test_winding_by_argument_monomials():
    assert winding_by_argument(Symbol({1: 1})) == 1
    assert winding_by_argument(Symbol({-3: 1})) == -3


def test_winding_by_argument_offset_loop():
    # s(z) = z - 2 stays 2 away from the loop around the origin: no winding
    assert winding_by_argument(Symbol({0: -2, 1: 1})) == 0


def test_winding_by_argument_sample_floor():
    with pytest.raises(ParameterError):
        winding_by_argument(Symbol({-2: 1, 3: 1}), samples=8)


def test_winding_rejects_vanishing_symbol():
    vanishing = Symbol({0: -1, 1: 1})  # zero at z = 1
    with pytest.raises(NotFredholmError):
        winding_by_argument(vanishing)
    with pytest.raises(NotFredholmError):
        winding_by_roots(vanishing)
    # the modulus threshold is absolute: sampling scaled coefficients does not move it
    tiny = random_symbol(random.Random(43))
    with pytest.raises(NotFredholmError):
        winding_by_argument(Symbol({k: c * 1e-300 for k, c in tiny.coefficients.items()}))


def test_winding_by_roots_examples():
    assert winding_by_roots(Symbol({1: 1})) == 1
    # 2 + 1/z: root of 2z + 1 at -1/2 inside, m = 1
    assert winding_by_roots(Symbol({-1: 1, 0: 2})) == 0
    # 1/z + 4 + z: roots of z^2 + 4z + 1 at -2 +- sqrt(3), one inside
    assert winding_by_roots(Symbol({-1: 1, 0: 4, 1: 1})) == 0
    assert winding_by_roots(Symbol({0: 7})) == 0


def test_fredholm_index_monomials():
    for k in range(-5, 6):
        report = fredholm_index(Symbol({k: 1}))
        assert report.fredholm_index == -k
        assert report.methods_agree
        assert report.kernel_dim == max(0, -k)
        assert report.cokernel_dim == max(0, k)
        assert report.fredholm_index == report.kernel_dim - report.cokernel_dim


def test_fredholm_index_general_symbol_has_no_kernel_dims():
    report = fredholm_index(Symbol({-1: 1, 0: 4, 1: 1}))
    assert report.kernel_dim is None and report.cokernel_dim is None
    assert report.min_modulus_on_circle > 1.9


def test_orientation_flip_negates_index():
    rng = random.Random(5)
    for _ in range(25):
        s = random_symbol(rng)
        flipped = orientation_flip(s)
        assert fredholm_index(flipped).fredholm_index == -fredholm_index(s).fredholm_index


def test_windings_agree_on_random_symbols():
    rng = random.Random(13)
    for _ in range(50):
        s = random_symbol(rng)
        assert winding_by_argument(s) == winding_by_roots(s)


def test_winding_multiplicative_under_symbol_product():
    rng = random.Random(29)
    for _ in range(25):
        s1, s2 = random_symbol(rng), random_symbol(rng)
        assert winding_by_roots(s1 * s2) == winding_by_roots(s1) + winding_by_roots(s2)
        report = fredholm_index(s1 * s2)
        assert report.fredholm_index == (
            fredholm_index(s1).fredholm_index + fredholm_index(s2).fredholm_index
        )


def test_winding_scaling_invariance():
    rng = random.Random(37)
    for _ in range(20):
        s = random_symbol(rng)
        c = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        scaled = Symbol({k: c * v for k, v in s.coefficients.items()})
        assert winding_by_roots(scaled) == winding_by_roots(s)
        assert winding_by_argument(scaled) == winding_by_argument(s)


def test_power_of_two_scaling_keeps_winding_and_scales_min_modulus_exactly():
    rng = random.Random(41)
    for _ in range(20):
        s = random_symbol(rng)
        base = fredholm_index(s)
        for k in (-16, -3, 5, 900):
            scaled = fredholm_index(Symbol({e: c * 2.0**k for e, c in s.coefficients.items()}))
            assert scaled.winding_arg == base.winding_arg
            assert scaled.min_modulus_on_circle == math.ldexp(base.min_modulus_on_circle, k)


def test_truncate_shift():
    section = truncate(Symbol({1: 1}), 4)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 0] = expected[2, 1] = expected[3, 2] = 1
    assert np.array_equal(section.matrix, expected)
    assert section.numerical_rank == 3
    assert section.smallest_singular_value == pytest.approx(0.0, abs=1e-12)


def test_truncate_identity():
    section = truncate(Symbol({0: 1}), 3)
    assert np.array_equal(section.matrix, np.eye(3))
    assert section.numerical_rank == 3


def test_truncate_tridiagonal():
    section = truncate(Symbol({-1: 1, 1: 1}), 5)
    assert np.array_equal(np.diag(section.matrix), np.zeros(5))
    assert np.array_equal(np.diag(section.matrix, 1), np.ones(4))
    assert np.array_equal(np.diag(section.matrix, -1), np.ones(4))
    singular_values = np.linalg.svd(section.matrix, compute_uv=False)
    assert section.numerical_rank == int((singular_values > 1e-10).sum())


def test_truncate_monomial_rank_deficiency():
    for k in range(0, 6):
        section = truncate(Symbol({k: 1}), 6)
        assert section.numerical_rank == 6 - k


def test_truncate_matches_nested_loop_sections():
    rng = random.Random(47)
    for _ in range(20):
        s = random_symbol(rng)
        width = s.m + s.p + 1
        for n in (width, width + 1, 2 * width + 3):
            expected = np.array(
                [[s.coefficients.get(j - k, 0) for k in range(n)] for j in range(n)], dtype=complex
            )
            assert np.array_equal(truncate(s, n).matrix, expected)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 33])
def test_truncate_section_equals_the_fancy_indexed_band(n):
    rng = random.Random(n)
    j, k = np.indices((n, n))
    for _ in range(5):
        m = rng.randint(0, n - 1)
        exponents = range(-m, rng.randint(0, n - 1 - m) + 1)
        s = Symbol({e: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for e in exponents})
        band = np.zeros(2 * n - 1, dtype=np.complex128)
        for exponent, c in s.coefficients.items():
            band[exponent + n - 1] = c
        assert np.array_equal(truncate(s, n).matrix, band[j - k + n - 1])


def test_truncate_size_floor():
    with pytest.raises(ParameterError):
        truncate(Symbol({-2: 1, 2: 1}), 4)


@pytest.fixture
def blas_threads():
    """OpenBLAS's (get, set) thread-count functions; the process's count is put back after the test."""
    threads = toeplitz.blas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread-count entry points")
    _, get, set_ = threads
    start = get()
    yield get, set_
    set_(start)


def _rooted_symbol(rng: random.Random) -> Symbol:
    """z^-m times a polynomial whose roots lie at radius 0.2-0.6 or 1.6-3, off the circle."""
    m, p = rng.randint(0, 8), rng.randint(1, 8)
    roots = [
        cmath.rect(rng.uniform(0.2, 0.6) if rng.random() < 0.5 else rng.uniform(1.6, 3.0), rng.uniform(0, 2 * math.pi))
        for _ in range(m + p)
    ]
    poly = np.poly(np.array(roots))  # highest degree first
    return Symbol({p - i: complex(c) for i, c in enumerate(poly)})


@pytest.mark.parametrize("n", [32, 128, 224, 256])
def test_truncation_bits_do_not_depend_on_the_blas_thread_count(blas_threads, n):
    get, set_ = blas_threads
    rng = random.Random(n)
    symbols = [_rooted_symbol(rng) for _ in range(6)]
    runs = []
    for count in (2, 1):
        set_(count)
        sections = [truncate(s, n) for s in symbols]
        runs.append([(t.smallest_singular_value.hex(), t.numerical_rank) for t in sections])
        assert get() == count
    assert runs[0] == runs[1]


def test_the_blas_thread_count_is_put_back_after_a_failure(blas_threads, monkeypatch):
    get, set_ = blas_threads
    set_(2)
    with pytest.raises(ParameterError):
        truncate(Symbol({-2: 1, 2: 1}), 4)
    assert get() == 2

    def svd_on_one_thread(matrix, compute_uv):
        assert get() == 1
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", svd_on_one_thread)
    with pytest.raises(np.linalg.LinAlgError):
        truncate(Symbol({0: 1}), 4)
    assert get() == 2


def test_threads_that_pin_the_count_take_turns(blas_threads):
    get, set_ = blas_threads
    set_(2)
    symbol = _rooted_symbol(random.Random(7))
    expected = truncate(symbol, 128).smallest_singular_value
    values = []

    def work():
        for _ in range(20):
            values.append(truncate(symbol, 128).smallest_singular_value)

    workers = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert values == [expected] * 80
    assert get() == 2


def test_the_thread_pin_resolves_where_numpy_runs_on_openblas():
    shown = io.StringIO()
    with contextlib.redirect_stdout(shown):
        np.show_config()
    if "openblas" not in shown.getvalue().lower():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    assert toeplitz.blas_threads() is not None


def test_index_report_shape():
    report = fredholm_index(Symbol({2: 1}))
    assert isinstance(report, IndexReport)
    assert report.winding_arg == report.winding_roots == 2
    assert report.fredholm_index == -2


def test_blocked_circle_values_match_one_shot_array():
    from quasifractal.toeplitz import _SAMPLE_BLOCK, _symbol_values

    rng = np.random.default_rng(7)
    exponents = np.arange(-4, 6, dtype=np.int64)
    coeffs = rng.normal(size=exponents.size) + 1j * rng.normal(size=exponents.size)
    for samples in (64, _SAMPLE_BLOCK, 3 * _SAMPLE_BLOCK + 5):
        theta = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        one_shot = (coeffs[None, :] * np.exp(1j * np.outer(theta, exponents))).sum(axis=1)
        values = _symbol_values([(coeffs[None], exponents[None])], theta, np.empty((1, samples), dtype=complex))
        assert np.array_equal(values[0], one_shot)


@pytest.mark.parametrize("count", [64, toeplitz._SAMPLE_BLOCK, toeplitz._SAMPLE_BLOCK + 1, 3 * toeplitz._SAMPLE_BLOCK + 5])
def test_streamed_steps_and_minima_match_the_one_shot_arrays(count):
    # bit for bit: the same values through a different array layout can take
    # another complex-multiply or arctan2 loop and round differently
    rng = np.random.default_rng(count)
    for rows, terms in ((1, 3), (5, 9), (40, 1)):
        exponents = np.sort(rng.choice(np.arange(-4, 5), size=(rows, terms)), axis=1).astype(np.int64)
        coeffs = rng.uniform(-1, 1, size=(rows, terms)) + 1j * rng.uniform(-1, 1, size=(rows, terms))
        theta = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        v = toeplitz._symbol_values([(coeffs, exponents)], theta, np.empty((rows, count), dtype=complex))
        one_shot = np.angle(np.roll(v, -1, axis=1) / v)
        chunks = zip(*toeplitz._argument_steps([(coeffs, exponents)], count))
        minima, largest, steps = (np.concatenate(parts) for parts in chunks)
        assert steps.dtype == np.float64 and steps.shape == (rows, count)
        assert steps.tobytes() == one_shot.tobytes()
        assert minima.tobytes() == np.abs(v).min(axis=1).tobytes()
        assert largest.tobytes() == np.abs(one_shot).max(axis=1).tobytes()


def test_a_sampling_round_holds_one_float_per_sample():
    # the steps row (8 bytes a sample) plus at most 4 MiB of blocks and small arrays
    samples = 1 << 20
    tracemalloc.start()
    try:
        assert toeplitz._sample_argument([Symbol({-2: 0.3, 0: 1, 3: 0.4})], samples)[0] == [0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * samples + (4 << 20), peak


# Draws a symbol whose modulus dips to 5.8e-5 between random_symbol's 512
# test points within its first 5 draws; the argument method doubles to
# about 590k samples on it.
NEAR_SINGULAR_SEED = 968725673


@pytest.mark.parametrize("count", [0, 1, 7, 100])
def test_batched_random_check_matches_the_per_draw_loop(count):
    for seed in list(range(50)) + [NEAR_SINGULAR_SEED]:
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        symbols = random_symbol(rng, count)
        expected, by_argument, by_roots = random_check_oracle(oracle_rng, count)
        assert symbols == expected
        assert rng.getstate() == oracle_rng.getstate()
        windings, moduli = toeplitz._sample_argument(symbols, None)
        assert windings == winding_by_argument(symbols).tolist() == [w for w, _ in by_argument]
        assert [m.hex() for m in moduli] == [m.hex() for _, m in by_argument]
        assert winding_by_roots(symbols).tolist() == by_roots
        agreements = int((winding_by_argument(symbols) == winding_by_roots(symbols)).sum())
        assert agreements == sum(a == r for (a, _), r in zip(by_argument, by_roots))


def test_single_draws_are_batches_of_one():
    rng, batch_rng = random.Random(3), random.Random(3)
    singles = [random_symbol(rng) for _ in range(20)]
    assert singles == random_symbol(batch_rng, 20)
    assert rng.getstate() == batch_rng.getstate()
    assert [winding_by_argument(s) for s in singles] == winding_by_argument(singles).tolist()
    assert [winding_by_roots(s) for s in singles] == winding_by_roots(singles).tolist()
    for s in singles[:5]:
        (winding,), (modulus,) = toeplitz._sample_argument([s], None)
        report = fredholm_index(s)
        assert (report.winding_arg, report.min_modulus_on_circle) == (winding, modulus)


def test_a_mixed_batch_samples_every_row_as_it_would_alone(monkeypatch):
    # one round takes rows of every term count and exponent set; each row's
    # values, steps and sum must keep the bits of a batch of one
    rng = np.random.default_rng(17)
    symbols, leads = [], []
    for terms in range(1, 18):
        exponents = range(-(terms // 2), terms - terms // 2)
        leads.append(exponents[terms // 3])
        symbols.append(
            Symbol({k: complex(*rng.uniform(-1, 1, 2)) + (2 * terms if k == leads[-1] else 0) for k in exponents})
        )
    symbols += [
        Symbol({-8: 0.3 - 0.1j, 8: 1j}),  # sparse and wide: a start count of its own
        Symbol({0: 2, 5: 0.5 - 0.5j}),
        Symbol({0: 1.5e308, 1: -1e307j}),  # sampled as s / 2^1024
        Symbol({0: -(1 - 1e-4) * cmath.exp(1j), 1: 1}),  # a root 1e-4 inside the circle, off every sample
    ]
    leads += [8, 0, 0, 1]
    order = list(range(len(symbols)))
    random.Random(17).shuffle(order)
    symbols, leads = [symbols[i] for i in order], [leads[i] for i in order]
    counts = []
    steps = toeplitz._argument_steps

    def recording(parts, count):
        counts.append(count)
        return steps(parts, count)

    monkeypatch.setattr(toeplitz, "_argument_steps", recording)
    windings, moduli = toeplitz._sample_argument(symbols, None)
    assert max(counts) > toeplitz._SAMPLE_BLOCK  # the near root doubles past one block
    alone = [toeplitz._sample_argument([s], None) for s in symbols]
    assert windings == [w for (w,), _ in alone] == leads
    assert [m.hex() for m in moduli] == [m.hex() for _, (m,) in alone]


def test_batches_raise_the_error_of_the_first_failing_symbol():
    good, vanishing, constant = Symbol({1: 1}), Symbol({0: -1, 1: 1}), Symbol({0: 3})
    with pytest.raises(NotFredholmError) as raised:
        winding_by_argument([good, constant, vanishing, good, vanishing])
    assert raised.value.draw == 2
    with pytest.raises(ParameterError) as raised:
        winding_by_argument([good, Symbol({-2: 1, 3: 1}), vanishing], samples=16)
    assert raised.value.draw == 1
    # row 1 starts at 136 samples and fails after row 2, which starts at 64
    with pytest.raises(NotFredholmError) as raised:
        winding_by_argument([good, Symbol({-8: -1, 8: 1}), vanishing, good])
    assert raised.value.draw == 1
    with pytest.raises(NotFredholmError) as raised:
        winding_by_roots([constant, good, Symbol({-1: 1, 0: 4, 1: 1}), vanishing])
    assert raised.value.draw == 3
    assert winding_by_argument([]).tolist() == winding_by_roots([]).tolist() == []


def test_roots_of_a_stack_find_the_matrix_that_does_not_converge(monkeypatch):
    # 2z^3 + 1 and z^3 + 1/2 share one companion matrix; LAPACK is made to fail on it
    symbols = [Symbol({-1: 1, 0: 3}), Symbol({0: 1, 3: 2}), Symbol({2: 1}), Symbol({0: 0.5, 3: 1})]
    failing = np.array([[0, 0, -0.5], [1, 0, 0], [0, 1, 0]], dtype=complex)
    eigvals = np.linalg.eigvals

    def eigvals_failing_on_it(stack):
        if np.any(np.all(stack == failing, axis=(1, 2))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(stack)

    monkeypatch.setattr(np.linalg, "eigvals", eigvals_failing_on_it)
    with pytest.raises(NumericalError, match="did not converge") as raised:
        winding_by_roots(symbols)
    assert raised.value.draw == 1
    assert winding_by_roots([symbols[0], symbols[2], Symbol({0: 1, 3: 3})]).tolist() == [0, 2, 3]


def test_roots_of_an_overflowing_companion_matrix_are_a_numerical_error():
    # -1e300 / 1e-300 overflows, as np.roots' companion entry would
    with pytest.raises(NumericalError, match="infs or NaNs") as raised:
        winding_by_roots([Symbol({1: 1}), Symbol({0: 1e300, 1: 1e-300})])
    assert raised.value.draw == 1
