"""Symbols, dual winding computations, index reports, truncations."""

import math
import random

import numpy as np
import pytest

from quasifractal.errors import NotFredholmError, ParameterError
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


def test_truncate_size_floor():
    with pytest.raises(ParameterError):
        truncate(Symbol({-2: 1, 2: 1}), 4)


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
        assert np.array_equal(_symbol_values(coeffs, exponents, theta), one_shot)
