"""Expand two n-bit seeds into many jointly-decodable n-bit strings.

Output i is z_i = x1 + e_i * x2 computed in GF(2^n), where e_i is the
i-th nonzero field element in numeric order.  Because e_1 is the
multiplicative identity, the first output is plain XOR of the seeds.

For any fixed pair of distinct indices i != j the map
(x1, x2) -> (z_i, z_j) is a bijection on pairs of n-bit strings
(``invert_pair`` is its inverse), so under uniform independent seeds
every output pair is exactly uniform: the outputs are pairwise
independent.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from .errors import ParameterError
from .gf2n import FieldParams, inverse_bits, mul_bits, multiples

# Outputs per block of ``iter_extend``: the size of its table of
# multiples lo*x2, which bounds its memory whatever the count.
EXTEND_BLOCK = 1 << 12


class _Request(NamedTuple):
    x1: int
    x2: int
    count: int
    params: FieldParams


class ExtendRequest(_Request):
    """Two n-bit seeds plus the number of outputs to produce (immutable)."""

    __slots__ = ()

    def __new__(cls, x1: int, x2: int, count: int, params: FieldParams):
        order = 1 << params.n
        # three ints (bool is not one), 0 <= x1 < order, 0 <= x2 < order
        # and 1 <= count < order at once; the checks below only name the
        # field at fault
        if not (type(x1) is type(x2) is type(count) is int
                and 0 <= x1 < order > x2 >= 0 < count < order):
            for name, v in (("x1", x1), ("x2", x2), ("count", count)):
                if type(v) is not int:
                    raise ParameterError(f"{name} must be an int, got {type(v).__name__} {v!r}")
                if name != "count" and not 0 <= v < order:
                    raise ParameterError(f"{name} does not fit in {params.n} bits")
            raise ParameterError(
                f"count {count} out of range 1..{order - 1}: "
                "indices must be distinct nonzero field elements"
            )
        return tuple.__new__(cls, (x1, x2, count, params))


class ExtendOutput(NamedTuple):
    outputs: tuple[int, ...]


def iter_extend(req: ExtendRequest) -> Iterator[int]:
    """Yield z_1, z_2, ... in index order, holding at most EXTEND_BLOCK
    field elements whatever the count.

    i*x2 is GF(2)-linear in i, so for i = hi + lo with hi a multiple of
    the table size L and lo < L, z_i = x1 ^ hi*x2 ^ lo*x2: one multiply
    per block of L outputs and one XOR per output.  A count that one
    table covers is one map over it.
    """
    x1, x2, count, params = req
    end = count + 1
    table = multiples(x2, min(end, EXTEND_BLOCK), params)
    size = len(table)
    first = map(x1.__xor__, table[1:end])
    if end <= size:
        return first
    rest = (
        map((x1 ^ mul_bits(x2, hi, params)).__xor__, table[:end - hi])
        for hi in range(size, end, size)
    )
    # one chain over the blocks, so each output passes one chain level
    return itertools.chain.from_iterable(itertools.chain((first,), rest))


def extend(req: ExtendRequest) -> ExtendOutput:
    """All ``req.count`` outputs, materialized in index order."""
    return ExtendOutput(tuple(iter_extend(req)))


def invert_pair(
    zi: int, zj: int, i: int, j: int, params: FieldParams
) -> tuple[int, int]:
    """Recover (x1, x2) from outputs zi, zj at distinct indices i, j.

    Solves zi + zj = (e_i + e_j) * x2; the index sum is nonzero exactly
    because i != j, so the field inverse exists.
    """
    order = params.order
    if i == j:
        raise ParameterError("indices must be distinct to invert a pair")
    for name, v in (("i", i), ("j", j)):
        if not 1 <= v <= order - 1:
            raise ParameterError(f"index {name}={v} out of range 1..{order - 1}")
    for name, v in (("zi", zi), ("zj", zj)):
        if not 0 <= v < order:
            raise ParameterError(f"{name} does not fit in {params.n} bits")
    x2 = mul_bits(zi ^ zj, inverse_bits(i ^ j, params), params)
    x1 = zi ^ mul_bits(i, x2, params)
    return x1, x2
