"""Arithmetic in the binary extension fields GF(2^n) for 1 <= n <= 64.

A field element is an n-bit string stored as a Python int: bit i of the
int is the coefficient of x^i, so the string "101" is the polynomial
x^2 + 1 and the int 5.  The all-zeros string is the additive identity
and the int 1 (the string 0^{n-1}1) is the multiplicative identity.

Each field is fixed by an irreducible modulus polynomial of degree n,
encoded as an (n+1)-bit int with the top bit set.  The modulus for each
n is the lexicographically least irreducible polynomial of degree n,
which for this encoding is the numerically smallest one, e.g.

    n=2 : x^2 + x + 1            -> 0b111       = 0x7
    n=3 : x^3 + x + 1            -> 0b1011      = 0xb
    n=8 : x^8 + x^4 + x^3 + x + 1 -> 0b100011011 = 0x11b
    n=64: x^64 + x^4 + x^3 + x + 1             = 0x1000000000000001b

``FieldParams(n)`` looks that polynomial up in ``_LEAST_IRREDUCIBLE``,
so n alone fixes the field.

Elements are plain ints: addition is ``^``, ``mul_bits`` multiplies by
one carry-less slot product (Kronecker substitution: each operand spread
one bit per byte, one Python int multiply, the low bit of each product
byte) and folds the high half over the modulus's low taps,
``multiples`` tabulates k*x for all k below a power of two by doubling,
and ``inverse_bits`` runs the extended Euclidean algorithm on
polynomials.  Operands are n-bit values: a negative one or one of 2^n
or more is a ``ParameterError``.  All operations are pure, so everything
here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .errors import DomainError, ParameterError

MAX_N = 64

# ``mul_bits`` byte slots: _SPREAD maps the digits of ``bin(a)`` to one
# byte each, "1" to 1 and "0" and "b" to 0, and _PARITY maps a product
# byte to the digit of its low bit.  A slot of the spread product counts
# the terms of one coefficient, at most n of them, so a byte holds it
# with no carry into the next slot only while MAX_N < 256.
assert MAX_N < 256
_SPREAD = bytes(ord("1")) + b"\x01" + bytes(255 - ord("1"))
_PARITY = b"01" * 128
_from_bytes = int.from_bytes  # one lookup fewer per operand

# Lexicographically least irreducible polynomial of each degree 1..64.
# Generated by ascending search with a Rabin irreducibility test and
# cross-checked against trial division (n <= 32) and sympy.
_LEAST_IRREDUCIBLE = {
    1: 0x2, 2: 0x7, 3: 0xb, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83,
    8: 0x11b, 9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201b,
    14: 0x4021, 15: 0x8003, 16: 0x1002b, 17: 0x20009, 18: 0x40009,
    19: 0x80027, 20: 0x100009, 21: 0x200005, 22: 0x400003, 23: 0x800021,
    24: 0x100001b, 25: 0x2000009, 26: 0x400001b, 27: 0x8000027,
    28: 0x10000003, 29: 0x20000005, 30: 0x40000003, 31: 0x80000009,
    32: 0x10000008d, 33: 0x20000004b, 34: 0x40000001b, 35: 0x800000005,
    36: 0x1000000035, 37: 0x200000003f, 38: 0x4000000063,
    39: 0x8000000011, 40: 0x10000000039, 41: 0x20000000009,
    42: 0x40000000027, 43: 0x80000000059, 44: 0x100000000021,
    45: 0x20000000001b, 46: 0x400000000003, 47: 0x800000000021,
    48: 0x100000000002d, 49: 0x2000000000071, 50: 0x400000000001d,
    51: 0x800000000004b, 52: 0x10000000000009, 53: 0x20000000000047,
    54: 0x4000000000007d, 55: 0x80000000000047, 56: 0x100000000000095,
    57: 0x200000000000011, 58: 0x400000000000063, 59: 0x80000000000007b,
    60: 0x1000000000000003, 61: 0x2000000000000027,
    62: 0x4000000000000069, 63: 0x8000000000000003,
    64: 0x1000000000000001b,
}


class _Field(NamedTuple):
    n: int
    modulus: int


class FieldParams(_Field):
    """The field GF(2^n): bit length n and the table modulus of degree n."""

    __slots__ = ()

    def __new__(cls, n: int):
        if not 1 <= n <= MAX_N:
            raise ParameterError(f"field degree n={n} outside supported range 1..{MAX_N}")
        return tuple.__new__(cls, (n, _LEAST_IRREDUCIBLE[n]))

    def __getnewargs__(self):  # pickle and copy rebuild from n alone
        return (self.n,)

    @property
    def order(self) -> int:
        return 1 << self.n


@functools.lru_cache(maxsize=None)
def field_params(n: int) -> FieldParams:
    """The field of bit length n, built once per n."""
    return FieldParams(n)


@functools.lru_cache(maxsize=None)
def _terms(modulus: int) -> tuple[int, ...]:
    """Exponents of the terms of a polynomial, x^n and its low taps."""
    return tuple(k for k in range(modulus.bit_length()) if modulus >> k & 1)


def mul_bits(a: int, b: int, params: FieldParams) -> int:
    """Field product of two raw n-bit values (int level).

    The carry-less product is one int multiply: spread into byte slots
    (see ``_SPREAD``), bit i of each operand lands in byte i, so byte k
    of their product counts the pairs i + j = k with a_i = b_j = 1, and
    its low bit is the GF(2) coefficient of x^k.  Its high part
    hi * x^n, of up to n - 1 bits, is then folded by adding hi * modulus,
    which trades x^n for the modulus's low taps, until the result fits in
    n bits.
    """
    n = params.n
    if (a | b) >> n:  # nonzero for every operand >= 2^n and every negative one
        raise ParameterError(f"field operands must be non-negative and below 2^{n}")
    sa = bin(a).encode()
    sb = bin(b).encode()
    spread = _from_bytes(sa.translate(_SPREAD), "big") * _from_bytes(sb.translate(_SPREAD), "big")
    # room for the product's l + m - 1 slots, l and m the digits past "0b"
    r = int(spread.to_bytes(len(sa) + len(sb), "big").translate(_PARITY), 2)
    terms = _terms(params.modulus)
    while hi := r >> n:
        for k in terms:
            r ^= hi << k
    return r


def multiples(x: int, size: int, params: FieldParams) -> list[int]:
    """[k*x for k in range(L)], L the least power of two >= size, one XOR each.

    k*x is GF(2)-linear in k, so with 2^b*x from one doubling step
    (shift and reduce), (2^b + k)*x = 2^b*x ^ k*x for every k < 2^b.
    """
    top = 1 << params.n
    modulus = params.modulus
    table = [0]
    if size > 1:
        table.append(x)
        while len(table) < size:
            x <<= 1
            if x & top:
                x ^= modulus
            table += [x ^ t for t in table]
    return table


def inverse_bits(a: int, params: FieldParams) -> int:
    """Multiplicative inverse of a raw nonzero n-bit value (int level)."""
    if a >> params.n:
        raise ParameterError(f"field operands must be non-negative and below 2^{params.n}")
    if a == 0:
        raise DomainError("zero has no multiplicative inverse")
    # Extended Euclid over GF(2)[x]: r0 = u*modulus + t0*a throughout.
    r0, r1 = params.modulus, a
    t0, t1 = 0, 1
    while r1:
        shift = r0.bit_length() - r1.bit_length()
        if shift < 0:
            r0, r1, t0, t1 = r1, r0, t1, t0
            continue
        r0 ^= r1 << shift
        t0 ^= t1 << shift
    # r0 is now gcd(modulus, a) = 1, so t0 * a = 1 (mod modulus).  Every
    # step keeps deg(t0) + deg(r1) <= n and deg(t1) + deg(r0) <= n, and
    # t0 is the t1 that stood beside r1 = 1 while r0 still had degree >= 1,
    # so t0 already has degree < n: no final reduction.
    return t0
