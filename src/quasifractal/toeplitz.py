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
import contextlib
import ctypes
import functools
import math
import random
import threading
from collections import defaultdict
from itertools import accumulate, chain
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import (
    CapacityError,
    NotFredholmError,
    NumericalError,
    ParameterError,
    QuasifractalError,
    SamplingFailureError,
)

MIN_CIRCLE_MODULUS = 1e-8
ROOT_CIRCLE_TOL = 1e-6
RANK_TOL = 1e-10
RANDOM_MAX_DEGREE = 4  # band limits of random_symbol
RANDOM_MIN_MODULUS = 0.05  # smallest circle modulus random_symbol accepts
_MAX_SAMPLES = 1 << 22
_SAMPLE_BLOCK = 8192  # (symbol, angle) pairs per block: bounds the sampler's temporaries
_RESIDUAL_TOL = 0.01
_TEST_POINTS = 512  # circle points of random_symbol's rejection test
# candidates tested at a time: as many values as one block of _argument_steps holds
_TEST_ROWS = _SAMPLE_BLOCK * (2 * RANDOM_MAX_DEGREE + 1) // _TEST_POINTS


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


def _row_values(
    coeffs: np.ndarray, exponents: np.ndarray, theta: np.ndarray, table: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """s(e^{i theta}) at every angle for one row of (1, terms) coefficients
    and exponents, written into and returned as `out`, (1, angles).

    e^{ik theta} is computed for the row's own exponents, with no gather,
    into `table`, an (angles, terms) complex buffer that the caller keeps
    from block to block.
    """
    np.multiply(1j, theta[:, None] * exponents[0], out=table)
    np.exp(table, out=table)
    np.multiply(coeffs[:, None, :], table, out=table[None])
    return np.add.reduce(table[None], axis=-1, out=out)


def _symbol_values(parts: list[tuple[np.ndarray, np.ndarray]], theta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """s(e^{i theta}) at every angle for each row of the parts, rows laid end
    to end, written into and returned as `out`, (rows, angles).

    A part is a pair of (rows, terms) coefficient and exponent arrays, and
    each row sums its own terms. e^{ik theta} is computed once for each
    exponent in the sorted union of the rows' exponents, and each part
    gathers its columns into one (rows, angles, terms) array, so every row
    takes the products and the sum that `_row_values` would. Callers hand
    it at most _SAMPLE_BLOCK (row, angle) pairs at a time
    (`_argument_steps`).
    """
    # np.unique's inverse keeps the shape of a 1-D input in every numpy version
    ks, columns = np.unique(np.concatenate([e.ravel() for _, e in parts]), return_inverse=True)
    table = np.exp(1j * (theta[:, None] * ks))
    angles = np.arange(len(theta))[:, None]
    row = used = 0
    for coeffs, exponents in parts:
        rows, terms = exponents.shape
        picked = table[angles, columns[used : used + rows * terms].reshape(rows, 1, terms)]
        np.multiply(coeffs[:, None, :], picked, out=picked)
        np.add.reduce(picked, axis=-1, out=out[row : row + rows])
        row, used = row + rows, used + rows * terms
    return out


def _batch(s: Union[Symbol, Sequence[Symbol]]) -> list[Symbol]:
    return [s] if isinstance(s, Symbol) else list(s)


def _raise_first(failures: dict[int, QuasifractalError]) -> None:
    """Raise the failure of the lowest row, with that row as its `draw`.

    A batch call fails as the same calls made one symbol at a time would,
    with the error of the first symbol that fails; `draw` tells a caller
    that interleaves two methods which symbol that was.
    """
    if failures:
        draw = min(failures)
        failures[draw].draw = draw
        raise failures[draw]


def _argument_steps(parts: list[tuple[np.ndarray, np.ndarray]], count: int):
    """One round of `count` equally spaced circle samples for each row of
    the parts (as in `_symbol_values`): yields, for each chunk of rows in
    order, (min modulus, largest |argument step|) per row and the chunk's
    (rows, count) float64 argument steps.

    A chunk has _SAMPLE_BLOCK // (span + 1) rows, and its circle is walked
    in blocks of span + 1 angles, each with one angle more than it has
    steps (the last block wraps to angle 0). Block angles are
    `np.linspace`'s, fl(j * fl(2 pi / count)), and every value, step and
    running extreme is the one the whole samples-long array would give.
    The chunk's steps are the only samples-long array; a caller drops them
    before it asks for the next chunk.
    """
    span = min(count, _SAMPLE_BLOCK - 1)
    height = max(1, _SAMPLE_BLOCK // (span + 1))
    spacing = 2.0 * np.pi / count
    offsets = list(accumulate((len(c) for c, _ in parts), initial=0))
    for r in range(0, offsets[-1], height):
        chunk = [
            (c[max(r - o, 0) : r + height - o], e[max(r - o, 0) : r + height - o])
            for (c, e), o in zip(parts, offsets)
            if o < r + height and r < o + len(c)
        ]
        rows = min(height, offsets[-1] - r)
        steps = np.empty((rows, count))
        minima = np.full(rows, np.inf)
        largest = np.zeros(rows)
        # one set of block buffers for the chunk: a fresh set per block would be
        # handed back to the system and faulted in again, block after block
        values = np.empty((rows, span + 1), dtype=np.complex128)
        ratios = np.empty((rows, span), dtype=np.complex128)
        moduli = np.empty((rows, span + 1))
        if rows == 1:
            ((coeffs, exponents),) = chunk
            table = np.empty((span + 1, exponents.shape[1]), dtype=np.complex128)
        for i in range(0, count, span):
            stop = min(i + span, count)
            theta = np.arange(i, stop + 1) * spacing
            if stop == count:
                theta[-1] = 0.0
            n = stop - i  # a chunk of more than one row has one block, with all span steps
            block = steps[:, i:stop]
            if rows == 1:
                _row_values(coeffs, exponents, theta, table[: n + 1], values[:, : n + 1])
            else:
                _symbol_values(chunk, theta, values)
            # the extra value is a sample of the next block, so the block minimum counts it too
            np.minimum(minima, np.abs(values[:, : n + 1], out=moduli[:, : n + 1]).min(axis=1), out=minima)
            with np.errstate(divide="ignore", invalid="ignore"):  # a zero value fails its row
                np.divide(values[:, 1 : n + 1], values[:, :n], out=ratios[:, :n])
            np.arctan2(ratios[:, :n].imag, ratios[:, :n].real, out=block)  # np.angle, written in place
            np.maximum(largest, np.abs(block, out=moduli[:, :n]).max(axis=1), out=largest)
        yield minima, largest, steps
        del steps  # before the next chunk holds its own


def _sample_argument(symbols: list[Symbol], samples: Union[int, None]):
    """Winding by argument accumulation of each symbol; returns the lists
    (windings, min moduli).

    Symbols with the same starting sample count are sampled together, in
    parts of one number of terms, each row with its own exponents and its
    own sum; only the rows whose increments have not settled double their
    count. A round holds the argument steps of one chunk of rows at a time,
    one float64 per (row, sample), plus one set of block buffers of about
    _SAMPLE_BLOCK (row, angle) pairs (`_argument_steps`).
    """
    windings = np.zeros(len(symbols), dtype=np.int64)
    moduli = np.zeros(len(symbols))
    failures: dict[int, QuasifractalError] = {}
    groups: dict[int, dict[int, list[int]]] = defaultdict(lambda: defaultdict(list))
    for row, s in enumerate(symbols):
        min_required = 8 * (s.m + s.p + 1)
        start = max(64, min_required) if samples is None else samples
        if start < min_required:
            failures[row] = ParameterError(
                f"need at least {min_required} samples for band [{-s.m}, {s.p}]"
            )
        elif start > _MAX_SAMPLES:
            failures[row] = CapacityError(f"{start} circle samples exceed the ceiling of {_MAX_SAMPLES}")
        else:
            groups[start][len(s.coefficients)].append(row)
    for count, by_terms in groups.items():
        rows, scale, parts = [], [], []
        for width, members in by_terms.items():
            terms = [symbols[row].coefficients for row in members]
            size = len(members) * width
            exponents = np.fromiter(chain.from_iterable(terms), np.int64, size).reshape(-1, width)
            coeffs = np.fromiter(chain.from_iterable(t.values() for t in terms), np.complex128, size).reshape(-1, width)
            # Sample s / 2^e, whose largest coefficient modulus lies in [1/2, 1), so
            # that a huge finite coefficient overflows neither the values nor their
            # neighbour ratios. A power of two scales exactly: an ordinary symbol
            # gives the same bits, and the minimum is unscaled before its test.
            e = np.frexp(np.abs(coeffs).max(axis=1))[1]
            np.ldexp(coeffs.real, -e[:, None], out=coeffs.real)
            np.ldexp(coeffs.imag, -e[:, None], out=coeffs.imag)
            rows += members
            scale.append(e)
            parts.append((coeffs, exponents))
        rows, scale = np.array(rows), np.concatenate(scale)
        while len(rows) and count <= _MAX_SAMPLES:
            minima, largest, turns = np.empty((3, len(rows)))
            at = 0
            for low, high, steps in _argument_steps(parts, count):
                chunk = slice(at, at + len(steps))
                minima[chunk], largest[chunk] = low, high
                np.divide(steps.sum(axis=1), 2.0 * np.pi, out=turns[chunk])
                at += len(steps)
                del steps  # before the next chunk holds its own
            minima = np.ldexp(minima, scale)
            moduli[rows] = minima
            vanishing = minima <= MIN_CIRCLE_MODULUS
            settled = (largest < np.pi / 2) & ~vanishing
            nearest = np.rint(turns)
            residual = np.abs(turns - nearest)
            wide = settled & (residual >= _RESIDUAL_TOL)
            windings[rows[settled & ~wide]] = nearest[settled & ~wide]
            for row, min_modulus in zip(rows[vanishing].tolist(), minima[vanishing].tolist()):
                failures[row] = NotFredholmError(
                    f"symbol modulus {min_modulus:.3e} on the circle is below "
                    f"{MIN_CIRCLE_MODULUS:.0e}; the operator is not Fredholm"
                )
            for row, off in zip(rows[wide].tolist(), residual[wide].tolist()):
                failures[row] = SamplingFailureError(f"argument sum residual {off:.3g} too large")
            unsettled = ~settled & ~vanishing
            rows, scale = rows[unsettled], scale[unsettled]
            offsets = accumulate((len(c) for c, _ in parts), initial=0)
            kept = [unsettled[o : o + len(c)] for (c, _), o in zip(parts, offsets)]
            parts = [(c[k], e[k]) for (c, e), k in zip(parts, kept) if k.any()]
            count *= 2
        for row in rows.tolist():
            failures[row] = SamplingFailureError("argument increments did not settle below pi/2")
    _raise_first(failures)
    return windings.tolist(), moduli.tolist()


def winding_by_argument(s: Union[Symbol, Sequence[Symbol]], samples: Union[int, None] = None):
    """Winding number of s around the origin by argument accumulation.

    Doubles the sample count until every increment is below pi/2 and the
    accumulated total is within 0.01 of an integer multiple of 2 pi. Given
    a sequence of symbols, returns an int64 array of their windings, or
    raises the error of the first symbol that fails.
    """
    windings, _ = _sample_argument(_batch(s), samples)
    return windings[0] if isinstance(s, Symbol) else np.array(windings, dtype=np.int64)


# OpenBLAS's (get, set) thread-count entry points, as numpy's wheels name them
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),  # numpy >= 2
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),  # numpy 1.2x
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_PINNED = threading.Lock()  # the count is process-wide: one pinned block at a time


@functools.cache
def blas_threads():
    """The (name, get, set) thread-count functions of the OpenBLAS that
    numpy's LAPACK calls run on, or None on a BLAS without them (MKL,
    Accelerate)."""
    try:
        library = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _OPENBLAS_THREADS:
        try:
            get, set_ = getattr(library, get_name), getattr(library, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get_name, get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then put the process's count back.

    A LAPACK result can change in its last bits with the thread count, and
    for a truncation below n of about 300 a second thread is slower, not
    faster.
    The count is process-wide, so threads that pin it take turns. Without
    OpenBLAS this changes nothing.
    """
    threads = blas_threads()
    if threads is None:
        yield
        return
    _, get, set_ = threads
    with _PINNED:
        previous = get()
        set_(1)
        try:
            yield
        finally:
            set_(previous)


def _eigvals(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of each matrix of the stack, on one BLAS thread; NaN for a
    matrix on which LAPACK does not converge (the halves of a failing stack
    are retried)."""
    try:
        with _one_blas_thread():
            return np.linalg.eigvals(stack)
    except np.linalg.LinAlgError:
        if len(stack) == 1:
            return np.full(stack.shape[:-1], np.nan, dtype=np.complex128)
        half = len(stack) // 2
        return np.concatenate([_eigvals(stack[:half]), _eigvals(stack[half:])])


def winding_by_roots(s: Union[Symbol, Sequence[Symbol]]):
    """Winding number via the argument principle on q(z) = z^m s(z).

    q is an honest polynomial of degree m + p; the winding of s equals
    (number of roots of q inside the open unit disk) - m. Roots within
    ROOT_CIRCLE_TOL of the circle mean the symbol (numerically) vanishes
    there; the NotFredholmError names the tolerance.

    The roots are the eigenvalues of q's companion matrix, built as
    `np.roots` builds it: zero leading coefficients are stripped and each
    zero trailing one is a root at 0. Given a sequence of symbols, their
    matrices are stacked by size, one eigenvalue call per size, and an
    int64 array of their windings is returned, or the error of the first
    symbol that fails is raised.
    """
    symbols = _batch(s)
    windings = [0] * len(symbols)
    failures: dict[int, QuasifractalError] = {}
    groups: dict[int, list[int]] = defaultdict(list)
    for row, symbol in enumerate(symbols):
        c = symbol.coefficients  # nonzero, in exponent order
        groups[next(reversed(c)) - next(iter(c)) + 1].append(row)
    for size, members in groups.items():
        # Each row is q(z) / z^(m + lowest exponent), highest power first: c_k
        # sits in column (highest exponent - k). The roots at 0 divided out lie
        # inside the disk, so the winding is the roots inside plus m + lowest
        # exponent, less m.
        terms = [symbols[row].coefficients for row in members]
        counts = np.fromiter(map(len, terms), np.int64, len(terms))
        exponents = np.fromiter(chain.from_iterable(terms), np.int64, int(counts.sum()))
        values = np.fromiter(chain.from_iterable(t.values() for t in terms), np.complex128, len(exponents))
        last = np.cumsum(counts) - 1
        lowest, highest = exponents[last - counts + 1], exponents[last]
        owner = np.repeat(np.arange(len(terms)), counts)
        poly = np.zeros((len(terms), size), dtype=np.complex128)
        poly[owner, highest[owner] - exponents] = values
        companion = np.zeros((len(members), size - 1, size - 1), dtype=np.complex128)
        if size > 1:
            companion[:, 1:, :-1] = np.eye(size - 2)
            with np.errstate(over="ignore", invalid="ignore"):
                companion[:, 0, :] = -poly[:, 1:] / poly[:, :1]
        finite = np.isfinite(companion).all(axis=(1, 2))
        roots = np.full(companion.shape[:-1], np.nan, dtype=np.complex128)
        if size > 1 and finite.any():
            roots[finite] = _eigvals(companion[finite])
        moduli = np.abs(roots)
        on_circle = (np.abs(moduli - 1.0) < ROOT_CIRCLE_TOL).any(axis=1)
        inside = (moduli < 1.0).sum(axis=1)
        for row, offset, ok, converged, near, count in zip(
            members, lowest.tolist(), finite, ~np.isnan(moduli).any(axis=1), on_circle, inside.tolist()
        ):
            if not ok:  # np.roots' error for a matrix with an inf or nan
                failures[row] = NumericalError("root finding failed: Array must not contain infs or NaNs")
            elif not converged:
                failures[row] = NumericalError("root finding failed: Eigenvalues did not converge")
            elif near:
                failures[row] = NotFredholmError(
                    f"a symbol root lies on (or within {ROOT_CIRCLE_TOL:.0e} of) the unit circle"
                )
            else:
                windings[row] = count + offset
    _raise_first(failures)
    return windings[0] if isinstance(s, Symbol) else np.array(windings, dtype=np.int64)


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
    (winding_arg,), (min_modulus,) = _sample_argument([s], samples)
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


@functools.cache
def _test_powers() -> list[np.ndarray]:
    """z^k at random_symbol's test points, for k in [-RANDOM_MAX_DEGREE, RANDOM_MAX_DEGREE]."""
    z = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, _TEST_POINTS, endpoint=False))
    return [z**k for k in range(-RANDOM_MAX_DEGREE, RANDOM_MAX_DEGREE + 1)]


def random_symbol(rng: random.Random, count: Union[int, None] = None):
    """Draw a random banded symbol, or a list of `count` of them.

    Band limits are uniform in [0, RANDOM_MAX_DEGREE], coefficients
    uniform in the square [-1, 1]^2. A candidate is rejected and redrawn
    when its modulus at one of 512 equally spaced points of the circle is
    below RANDOM_MIN_MODULUS. That test samples the circle and bounds
    nothing between the points: an accepted symbol can dip far lower in
    between (the fifth draw of random.Random(968725673) has a sampled
    minimum modulus of 5.8e-5). The winding methods apply their own
    checks to it, and the argument method doubles its samples until the
    increments settle (to about 590k samples on that draw).

    Each round draws as many candidates as are still wanted, in stream
    order, and tests them together, so a list of `count` holds the
    symbols, and leaves `rng` in the state, of `count` single draws.
    """
    wanted = 1 if count is None else count
    accepted: list[Symbol] = []
    exponents = range(-RANDOM_MAX_DEGREE, RANDOM_MAX_DEGREE + 1)
    # one sum and one product buffer, reused by every test block of every round
    sums = np.empty((min(wanted, _TEST_ROWS), _TEST_POINTS), dtype=np.complex128)
    products = np.empty_like(sums)
    while len(accepted) < wanted:
        # column k + RANDOM_MAX_DEGREE holds c_k, zero outside the drawn band
        padded = np.zeros((wanted - len(accepted), 2 * RANDOM_MAX_DEGREE + 1), dtype=np.complex128)
        for row in padded:
            m = rng.randint(0, RANDOM_MAX_DEGREE)
            p = rng.randint(0, RANDOM_MAX_DEGREE)
            row[RANDOM_MAX_DEGREE - m : RANDOM_MAX_DEGREE + p + 1] = [
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m + p + 1)
            ]
        keep = np.empty(len(padded), dtype=bool)
        for r in range(0, len(padded), _TEST_ROWS):
            block = padded[r : r + _TEST_ROWS]
            total, product = sums[: len(block)], products[: len(block)]
            # Term by term as Symbol.__call__ sums: a zero term changes no modulus.
            terms = zip(block.T, _test_powers())
            column, power = next(terms)
            np.multiply(column[:, None], power, out=total)
            for column, power in terms:
                np.multiply(column[:, None], power, out=product)
                total += product
            keep[r : r + _TEST_ROWS] = np.abs(total).min(axis=1) >= RANDOM_MIN_MODULUS
        # Symbol drops the zero columns, as it drops a zero coefficient of a drawn band
        accepted += [Symbol(dict(zip(exponents, padded[row].tolist()))) for row in np.flatnonzero(keep).tolist()]
    return accepted[0] if count is None else accepted


@dataclass(eq=False)
class ToeplitzTruncation:
    """Finite N x N section of the Toeplitz matrix of a symbol.

    Entry (j, k) is c_{j-k}. Every square truncation has finite-matrix
    index 0; what the section does expose is the rank deficiency of
    monomial symbols (rank N - k for z^k), reported via the singular
    values at tolerance 1e-10. The singular values are the single-thread
    LAPACK result whatever the process's BLAS thread count, where numpy
    runs on OpenBLAS (`truncate`).
    """

    n: int
    band: tuple[int, int]
    matrix: np.ndarray
    numerical_rank: int
    smallest_singular_value: float


def truncate(s: Symbol, n: int) -> ToeplitzTruncation:
    """The n x n section of the Toeplitz matrix of s and its singular values.

    The SVD runs on one OpenBLAS thread (`_one_blas_thread`), so its bits
    do not depend on the process's thread count. One thread is faster for
    n up to about 300 and slower from about 384; at n = 1024 the SVD takes
    about 1.5 times as long as on two threads.
    """
    width = s.m + s.p + 1
    if n < width:
        raise ParameterError(f"truncation size {n} is below the band width {width}")
    band = np.zeros(2 * n - 1, dtype=np.complex128)  # c_k at index k + n - 1
    for exponent, c in s.coefficients.items():
        band[exponent + n - 1] = c
    # row j of the section is band[j + n - 1], band[j + n - 2], ..., band[j]
    matrix = np.lib.stride_tricks.sliding_window_view(band[::-1], n)[::-1]
    with _one_blas_thread():
        singular_values = np.linalg.svd(matrix, compute_uv=False)
    return ToeplitzTruncation(
        n=n,
        band=(s.m, s.p),
        matrix=matrix,
        numerical_rank=int((singular_values > RANK_TOL).sum()),
        smallest_singular_value=float(singular_values[-1]),
    )
