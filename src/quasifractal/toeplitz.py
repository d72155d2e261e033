"""Laurent-polynomial symbols on the unit circle and their winding indices.

A symbol s(z) = sum c_k z^k over a finite exponent band [-m, p] defines a
Toeplitz operator on the Hardy space of the disk with matrix entries
constant along diagonals, (j, k) -> c_{j-k}. When s does not vanish on the
circle the operator is Fredholm and its index equals minus the winding
number of s around the origin (the Gohberg-Krein correspondence); this
module verifies that correspondence at desk scale by computing the winding
two independent ways:

* argument accumulation around sampled circle values, and
* root counting of z^m s(z) inside the unit disk (argument principle).

Kernel and cokernel dimensions are reported analytically for monomial
symbols c z^k (dim ker = max(0, -k), dim coker = max(0, k)); computing
them for general symbols needs a Wiener-Hopf factorization and is out of
scope. Square truncations are provided for inspection only: every finite
matrix has index 0, so the truncations illustrate the index through the
rank deficiency of monomial sections rather than computing it.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import (
    CapacityError,
    NotFredholmError,
    NumericalError,
    ParameterError,
    SamplingFailureError,
)

MIN_CIRCLE_MODULUS = 1e-8
ROOT_CIRCLE_TOL = 1e-6
RANK_TOL = 1e-10
RANDOM_MAX_DEGREE = 4  # band limits of random_symbol
RANDOM_MIN_MODULUS = 0.05  # smallest circle modulus random_symbol accepts
_MAX_SAMPLES = 1 << 22
_SAMPLE_BLOCK = 8192  # rows per block: bounds the samples-by-terms temporaries
_RESIDUAL_TOL = 0.01


class Symbol:
    """A Laurent polynomial on the unit circle, keyed by integer exponent.

    Stored trimmed: zero coefficients are dropped, and at least one
    coefficient must be nonzero. `m` and `p` are the band limits, i.e.
    the most negative and most positive exponents carrying a coefficient
    (0 when the band does not extend to that side).
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Mapping[int, complex]):
        trimmed = {}
        for k, c in coefficients.items():
            if not isinstance(k, int):
                raise ParameterError(f"exponent {k!r} is not an integer")
            c = complex(c)
            if not cmath.isfinite(c):
                raise ParameterError(f"coefficient of z^{k} is not finite: {c}")
            if c != 0:
                trimmed[int(k)] = c
        if not trimmed:
            raise ParameterError("symbol needs at least one nonzero coefficient")
        # |s| <= sum |c_k| on the circle: a sum beyond the floats would overflow there
        if not math.isfinite(sum(math.hypot(c.real, c.imag) for c in trimmed.values())):
            raise ParameterError("coefficient moduli sum beyond the largest float")
        self.coefficients = dict(sorted(trimmed.items()))

    @property
    def m(self) -> int:
        return max(0, -min(self.coefficients))

    @property
    def p(self) -> int:
        return max(0, max(self.coefficients))

    @classmethod
    def from_string(cls, text: str) -> "Symbol":
        """Parse comma-separated `k:c` terms, e.g. "-1:1, 0:4, 1:1".

        The value part is a real or complex literal in Python syntax
        without parentheses ("2", "-0.5", "1+2j", "-1.5j"). Repeating an
        exponent is an error.
        """
        coefficients: dict[int, complex] = {}
        for term in text.split(","):
            term = term.strip()
            if not term:
                continue
            k_text, sep, c_text = term.partition(":")
            if not sep:
                raise ParameterError(f"expected k:value, got {term!r}")
            try:
                k = int(k_text.strip())
                c = complex(c_text.strip().replace(" ", ""))
            except ValueError as exc:
                raise ParameterError(f"cannot parse symbol term {term!r}") from exc
            if k in coefficients:
                raise ParameterError(f"exponent {k} given twice")
            coefficients[k] = c
        return cls(coefficients)

    def __call__(self, z):
        """Evaluate at a complex number or ndarray of complex numbers."""
        total = 0
        for k, c in self.coefficients.items():
            total = total + c * z**k
        return total

    def __mul__(self, other: "Symbol") -> "Symbol":
        out: dict[int, complex] = {}
        for k1, c1 in self.coefficients.items():
            for k2, c2 in other.coefficients.items():
                out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
        return Symbol(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Symbol) and self.coefficients == other.coefficients

    def __repr__(self) -> str:
        terms = ", ".join(f"{k}:{c}" for k, c in self.coefficients.items())
        return f"Symbol({{{terms}}})"


def orientation_flip(s: Symbol) -> Symbol:
    """The symbol z -> s(1/z): traversing the circle the other way.

    Negates the winding number and hence the Fredholm index.
    """
    return Symbol({-k: c for k, c in s.coefficients.items()})


def _symbol_values(coeffs: np.ndarray, exponents: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """s(e^{i theta}) at every angle, evaluated _SAMPLE_BLOCK angles at a time
    straight into the result.

    Each row's exp and sum involve that row only, so the blocks give the
    same bits as one samples-by-terms array at a bounded memory cost.
    """
    values = np.empty(len(theta), dtype=np.complex128)
    for i in range(0, len(theta), _SAMPLE_BLOCK):
        terms = coeffs[None, :] * np.exp(1j * np.outer(theta[i : i + _SAMPLE_BLOCK], exponents))
        values[i : i + _SAMPLE_BLOCK] = terms.sum(axis=1)
    return values


def _sample_argument(s: Symbol, samples: Union[int, None]):
    """Winding by argument accumulation; returns (winding, min modulus)."""
    min_required = 8 * (s.m + s.p + 1)
    if samples is None:
        samples = max(64, min_required)
    elif samples < min_required:
        raise ParameterError(
            f"need at least {min_required} samples for band [{-s.m}, {s.p}]"
        )
    if samples > _MAX_SAMPLES:
        raise CapacityError(f"{samples} circle samples exceed the ceiling of {_MAX_SAMPLES}")
    # Sample s / 2^e, whose largest coefficient modulus lies in [1/2, 1), so
    # that a huge finite coefficient overflows neither the values nor their
    # neighbour ratios. A power of two scales exactly: an ordinary symbol
    # gives the same bits, and the minimum is unscaled before its test.
    _, e = math.frexp(max(abs(c) for c in s.coefficients.values()))
    exponents = np.array(list(s.coefficients), dtype=np.int64)
    coeffs = np.array(
        [complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e)) for c in s.coefficients.values()],
        dtype=np.complex128,
    )
    while samples <= _MAX_SAMPLES:
        theta = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        values = _symbol_values(coeffs, exponents, theta)
        min_modulus = math.ldexp(float(np.abs(values).min()), e)
        if min_modulus <= MIN_CIRCLE_MODULUS:
            raise NotFredholmError(
                f"symbol modulus {min_modulus:.3e} on the circle is below "
                f"{MIN_CIRCLE_MODULUS:.0e}; the operator is not Fredholm"
            )
        steps = np.roll(values, -1)
        steps /= values  # in place: no second samples-long temporary at the peak
        steps = np.angle(steps)
        if np.max(np.abs(steps)) < np.pi / 2:
            total = float(steps.sum())
            winding = total / (2.0 * np.pi)
            nearest = round(winding)
            if abs(winding - nearest) >= _RESIDUAL_TOL:
                raise SamplingFailureError(
                    f"argument sum residual {abs(winding - nearest):.3g} too large"
                )
            return int(nearest), min_modulus
        samples *= 2
    raise SamplingFailureError("argument increments did not settle below pi/2")


def winding_by_argument(s: Symbol, samples: Union[int, None] = None) -> int:
    """Winding number of s around the origin by argument accumulation.

    Doubles the sample count until every increment is below pi/2 and the
    accumulated total is within 0.01 of an integer multiple of 2 pi.
    """
    winding, _ = _sample_argument(s, samples)
    return winding


def winding_by_roots(s: Symbol) -> int:
    """Winding number via the argument principle on q(z) = z^m s(z).

    q is an honest polynomial of degree m + p; the winding of s equals
    (number of roots of q inside the open unit disk) - m. Roots within
    1e-6 of the circle mean the symbol (numerically) vanishes there.
    """
    m, p = s.m, s.p
    degree = m + p
    if degree == 0:
        return 0
    coeffs = [s.coefficients.get(k - m, 0) for k in range(degree, -1, -1)]
    try:
        roots = np.roots(np.array(coeffs, dtype=np.complex128))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"root finding failed: {exc}") from exc
    moduli = np.abs(roots)
    if np.any(np.abs(moduli - 1.0) < ROOT_CIRCLE_TOL):
        raise NotFredholmError("a symbol root lies on (or within 1e-6 of) the unit circle")
    return int((moduli < 1.0).sum()) - m


@dataclass(frozen=True)
class IndexReport:
    """Both winding computations plus the resulting Fredholm index.

    kernel_dim / cokernel_dim are filled for monomial symbols only, where
    they are known in closed form; None otherwise.
    """

    winding_arg: int
    winding_roots: int
    fredholm_index: int
    min_modulus_on_circle: float
    methods_agree: bool
    kernel_dim: Union[int, None] = None
    cokernel_dim: Union[int, None] = None


def fredholm_index(s: Symbol, samples: Union[int, None] = None) -> IndexReport:
    """Index report for the Toeplitz operator with symbol s.

    The index is -winding (Gohberg-Krein); the report carries both
    winding computations and whether they agree. `samples` is the initial
    circle sample count of the argument method, as in `winding_by_argument`.
    """
    winding_arg, min_modulus = _sample_argument(s, samples)
    winding_roots_ = winding_by_roots(s)
    kernel = cokernel = None
    if len(s.coefficients) == 1:
        (k,) = s.coefficients
        kernel, cokernel = max(0, -k), max(0, k)
    return IndexReport(
        winding_arg=winding_arg,
        winding_roots=winding_roots_,
        fredholm_index=-winding_roots_,
        min_modulus_on_circle=min_modulus,
        methods_agree=winding_arg == winding_roots_,
        kernel_dim=kernel,
        cokernel_dim=cokernel,
    )


def random_symbol(rng: random.Random) -> Symbol:
    """Draw a random banded symbol that is safely Fredholm.

    Band limits are uniform in [0, RANDOM_MAX_DEGREE], coefficients
    uniform in the square [-1, 1]^2; candidates whose sampled circle
    modulus dips below RANDOM_MIN_MODULUS are rejected and redrawn, so
    both winding methods are well-conditioned on the result.
    """
    while True:
        m = rng.randint(0, RANDOM_MAX_DEGREE)
        p = rng.randint(0, RANDOM_MAX_DEGREE)
        coefficients = {
            k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in range(-m, p + 1)
        }
        try:
            candidate = Symbol(coefficients)
        except ParameterError:
            continue
        theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
        values = candidate(np.exp(1j * theta))
        if float(np.abs(values).min()) >= RANDOM_MIN_MODULUS:
            return candidate


@dataclass(eq=False)
class ToeplitzTruncation:
    """Finite N x N section of the Toeplitz matrix of a symbol.

    Entry (j, k) is c_{j-k}. Every square truncation has finite-matrix
    index 0; what the section does expose is the rank deficiency of
    monomial symbols (rank N - k for z^k), reported via the singular
    values at tolerance 1e-10.
    """

    n: int
    band: tuple[int, int]
    matrix: np.ndarray
    numerical_rank: int
    smallest_singular_value: float


def truncate(s: Symbol, n: int) -> ToeplitzTruncation:
    width = s.m + s.p + 1
    if n < width:
        raise ParameterError(f"truncation size {n} is below the band width {width}")
    band = np.zeros(2 * n - 1, dtype=np.complex128)  # c_k at index k + n - 1
    for exponent, c in s.coefficients.items():
        band[exponent + n - 1] = c
    j, k = np.indices((n, n))
    matrix = band[j - k + n - 1]
    singular_values = np.linalg.svd(matrix, compute_uv=False)
    return ToeplitzTruncation(
        n=n,
        band=(s.m, s.p),
        matrix=matrix,
        numerical_rank=int((singular_values > RANK_TOL).sum()),
        smallest_singular_value=float(singular_values[-1]),
    )
