"""Compressor-backed proxies for string complexity and dependency.

True program-length complexity is uncomputable; every estimate here is
a heuristic built from off-the-shelf compressors.  ``dependency``
estimates conditional complexity by the difference-of-joint surrogate

    k(x | y) ~= max(0, k(y . x) - k(y))

with the pairing fixed as y then x, no delimiter.  This is documented
as a heuristic: it inherits each backend's window and header behavior,
and the per-backend constants live in recorded test fixtures, not here.

Shipped backends: "lzma" (dictionary/LZ77 family, the default; its
large window is what makes the self-dependency fixture sharp) and
"bz2" (block-sorting family).  Both are deterministic and round-trip.

Also here: the self-delimiting pairing encoder for bit strings (the
decoder, which only tests use, is ``concat_decode`` in
``tests/oracles.py``).  The length of the first part is written as
doubled binary digits, terminated by "01", followed by both parts:

    encode("101", "00") = "11" doubled -> "1111" + "01" + "101" + "00"

so |encode(a, b)| = |a| + |b| + 2*floor(log2 |a|) + 4 exactly.
"""

from __future__ import annotations

import bz2
import lzma
import math
from typing import Callable, NamedTuple, Optional

from .errors import BackendError, ParameterError


class Compressor(NamedTuple):
    """A deterministic compression backend."""

    name: str
    compress: Callable[[bytes], bytes]
    decompress: Optional[Callable[[bytes], bytes]] = None


BACKENDS = {
    "lzma": Compressor("lzma", lambda d: lzma.compress(d, preset=6), lzma.decompress),
    "bz2": Compressor("bz2", lambda d: bz2.compress(d, 9), bz2.decompress),
}
DEFAULT_BACKEND = "lzma"


def get_backend(name: str) -> Compressor:
    try:
        return BACKENDS[name]
    except KeyError:
        raise BackendError(
            f"unknown backend; available: {', '.join(sorted(BACKENDS))}", name
        ) from None


def k_estimate(data: bytes, comp: Compressor) -> int:
    """Estimated complexity of data in bits: 8 * |compress(data)|."""
    try:
        return 8 * len(comp.compress(data))
    except Exception as exc:
        raise BackendError(f"compression failed: {exc}", comp.name) from exc


class DepEstimate(NamedTuple):
    """Dependency estimates in bits, raw and clamped to >= 0.

    verdict is True iff both directional drops are within alpha, i.e.
    the strings look at most alpha-dependent to this backend.
    """

    kx: int
    ky: int
    kxy: int
    dep_raw: int
    dep: int
    alpha_x_raw: int
    alpha_x: int
    alpha_y_raw: int
    alpha_y: int
    alpha: float
    verdict: bool


def dependency(x: bytes, y: bytes, comp: Compressor, alpha: float) -> DepEstimate:
    """Directional complexity drops of x and y against each other;
    ``alpha`` >= 0 bits is the most either may drop for an INDEPENDENT
    verdict."""
    if math.isnan(alpha):
        raise ParameterError("alpha must be a number, got nan")
    if alpha < 0:  # a number of bits
        raise ParameterError(f"alpha must be >= 0 bits, got {alpha}")
    kx = k_estimate(x, comp)
    ky = k_estimate(y, comp)
    kxy = k_estimate(x + y, comp)
    kyx = k_estimate(y + x, comp)
    cond_x = max(0, kyx - ky)  # k(x | y)
    cond_y = max(0, kxy - kx)  # k(y | x)
    alpha_x_raw = kx - cond_x
    alpha_y_raw = ky - cond_y
    dep_raw = kx + ky - kxy
    alpha_x = max(0, alpha_x_raw)
    alpha_y = max(0, alpha_y_raw)
    return DepEstimate(
        kx=kx,
        ky=ky,
        kxy=kxy,
        dep_raw=dep_raw,
        dep=max(0, dep_raw),
        alpha_x_raw=alpha_x_raw,
        alpha_x=alpha_x,
        alpha_y_raw=alpha_y_raw,
        alpha_y=alpha_y,
        alpha=alpha,
        verdict=alpha_x <= alpha and alpha_y <= alpha,
    )


class SymmetryDiagnostic(NamedTuple):
    """Both directional drops and how far apart they are, in bits."""

    lhs_drop: int
    rhs_drop: int
    abs_diff: int


def symmetry_diagnostic(x: bytes, y: bytes, comp: Compressor) -> SymmetryDiagnostic:
    """Compare k(x) - k(x|y) against k(y) - k(y|x).

    Purely diagnostic: for ideal complexities the two sides agree up to
    logarithmic terms; compressor estimates only indicate that
    empirically.
    """
    est = dependency(x, y, comp, alpha=0.0)
    return SymmetryDiagnostic(
        est.alpha_x, est.alpha_y, abs(est.alpha_x - est.alpha_y)
    )


def _check_bit_string(s: str, what: str) -> None:
    for pos, ch in enumerate(s):
        if ch not in "01":
            raise ParameterError(f"{what} has non-bit character {ch!r} at {pos}")


def concat_encode(a: str, b: str) -> str:
    """Self-delimiting pairing of two bit strings; a must be nonempty."""
    _check_bit_string(a, "a")
    _check_bit_string(b, "b")
    if not a:
        raise ParameterError("the first part must be nonempty to encode its length")
    length_bits = format(len(a), "b")
    doubled = "".join(ch + ch for ch in length_bits)
    return doubled + "01" + a + b

