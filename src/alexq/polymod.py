"""Polynomial quotient modules over Z_p.

Module structures on an elementary abelian carrier (Z_p)^D correspond to
divisor chains h_1 | h_2 | ... | h_n of monic polynomials with unit
constant term and degree sum D; the module is the direct sum of the
quotients by the h_i with t acting as multiplication by t (the companion
action on coefficient vectors). The unit constant term is exactly what
makes the action invertible.

Polynomials are stored densely, constant term first; the string form is
ascending, e.g. "1+t+t^4". `Poly` and `PolySpec` are the value types of a
chain. The one computation on polynomials, the Smith form that reads a
module's chain back, runs on trimmed coefficient lists mod p through three
helpers (`_trim`, `_divmod` and the row step `_sub_mul`), and `Poly` is made
only for the factors of the chain it returns.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from .abelian import AbelianGroup, _elementary_prime, _prime_factorization
from .autgroup import Automorphism
from .errors import SpecError
from .lambda_modules import LambdaModule, _poly_terms


@dataclass(frozen=True)
class Poly:
    """A polynomial over Z_p, p prime; coeffs has no trailing zeros, () is zero."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if _prime_factorization(self.p) != {self.p: 1}:
            raise ValueError(f"modulus must be a prime, got {self.p}")
        coeffs = _trim([int(c) % self.p for c in self.coeffs])
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def has_unit_constant(self) -> bool:
        return bool(self.coeffs) and self.coeffs[0] != 0

    def __str__(self) -> str:
        return "+".join(_poly_terms(self.coeffs)) or "0"

    @classmethod
    def from_str(cls, p: int, text: str) -> Poly:
        """Parse the ascending form, e.g. "1+t+t^4" or "2t^2+1" over Z_3."""
        coeffs: dict[int, int] = {}
        stripped = text.replace(" ", "")
        if not stripped:
            raise SpecError("empty polynomial")
        if stripped == "0":
            return cls(p, ())
        for term in stripped.split("+"):
            m = re.fullmatch(r"(\d+)|(\d*)t(?:\^(\d+))?", term)
            if not m:
                raise SpecError(f"bad polynomial term {term!r}")
            if m.group(1) is not None:
                power, coeff = 0, int(m.group(1))
            else:
                coeff = int(m.group(2)) if m.group(2) else 1
                power = int(m.group(3)) if m.group(3) else 1
            coeffs[power] = coeffs.get(power, 0) + coeff
        out = [0] * (max(coeffs) + 1)
        for power, coeff in coeffs.items():
            out[power] = coeff
        return cls(p, tuple(out))


def _trim(c: list[int]) -> list[int]:
    """c with its trailing zeros removed, in place."""
    while c and not c[-1]:
        c.pop()
    return c


def _divmod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of trimmed a by trimmed m over Z_p, as trimmed lists."""
    if not m:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    d = len(m) - 1
    lead_inv = pow(m[-1], -1, p)
    quot = [0] * (len(rem) - d)
    for shift in reversed(range(len(quot))):
        factor = rem[shift + d] * lead_inv % p
        if factor:
            quot[shift] = factor
            for i, c in enumerate(m):
                rem[shift + i] = (rem[shift + i] - factor * c) % p
    del rem[d:]
    return _trim(quot), _trim(rem)


def _sub_mul(x: list[int], q: list[int], y: list[int], p: int) -> list[int]:
    """x - q*y over Z_p, trimmed; a new list."""
    out = x + [0] * (len(q) + len(y) - 1 - len(x))
    for i, a in enumerate(q):
        if a:
            for j, b in enumerate(y):
                out[i + j] = (out[i + j] - a * b) % p
    return _trim(out)


def smith_invariant_factors(matrix: list[list[list[int]]], p: int) -> list[list[int]]:
    """Monic invariant factors d_1 | d_2 | ... | d_n of a square matrix over Z_p[t].

    Entries and factors are trimmed coefficient lists, constant term first,
    with [] for zero. Elimination by unimodular row and column operations:
    the entry of least degree is moved to the pivot, the pivot's row and
    column are cleared by division, and a remaining entry the pivot does not
    divide is added into the pivot row so that the next division lowers the
    pivot's degree. A zero block leaves zero factors.

    >>> smith_invariant_factors([[[1, 1], []], [[], [2, 1]]], 3)
    [[1], [2, 0, 1]]
    """
    a = [list(row) for row in matrix]
    n = len(a)
    diagonal: list[list[int]] = []
    for s in range(n):
        while True:
            nonzero = [
                (len(a[i][j]), i, j) for i in range(s, n) for j in range(s, n) if a[i][j]
            ]
            if not nonzero:
                return diagonal + [[] for _ in range(n - s)]
            _, i, j = min(nonzero)
            a[s], a[i] = a[i], a[s]
            for row in a:
                row[s], row[j] = row[j], row[s]
            pivot = a[s][s]
            cleared = True
            for i in range(s + 1, n):
                q, r = _divmod(a[i][s], pivot, p)
                if q:
                    a[i] = [_sub_mul(x, q, y, p) for x, y in zip(a[i], a[s])]
                cleared = cleared and not r
            for j in range(s + 1, n):
                q, r = _divmod(a[s][j], pivot, p)
                if q:
                    for row in a:
                        row[j] = _sub_mul(row[j], q, row[s], p)
                cleared = cleared and not r
            if not cleared:
                continue
            stray = next(
                (
                    i
                    for i in range(s + 1, n)
                    for j in range(s + 1, n)
                    if _divmod(a[i][j], pivot, p)[1]
                ),
                None,
            )
            if stray is None:
                lead_inv = pow(pivot[-1], -1, p)
                diagonal.append([c * lead_inv % p for c in pivot])
                break
            # the row step with q = -1 adds the stray row
            a[s] = [_sub_mul(x, [p - 1], y, p) for x, y in zip(a[s], a[stray])]
    return diagonal


def poly_divides(a: Poly, b: Poly) -> bool:
    """Whether a divides b over Z_p (everything divides zero)."""
    if a.p != b.p:
        raise ValueError(f"mixed moduli: {a.p} and {b.p}")
    if a.is_zero:
        return b.is_zero
    return not _divmod(b.coeffs, a.coeffs, a.p)[1]


@dataclass(frozen=True)
class PolySpec:
    """A divisor chain h_1 | h_2 | ... of monic unit-constant polynomials."""

    p: int
    chain: tuple[Poly, ...]

    def __post_init__(self) -> None:
        for h in self.chain:
            if h.p != self.p:
                raise ValueError("chain polynomials must share the spec modulus")
            if h.degree < 1 or not h.is_monic or not h.has_unit_constant:
                raise ValueError(
                    f"chain entries must be monic of positive degree with unit "
                    f"constant term, got {h}"
                )
        for a, b in itertools.pairwise(self.chain):
            if not poly_divides(a, b):
                raise ValueError(f"{a} does not divide {b}; not a divisor chain")

    @property
    def total_degree(self) -> int:
        return sum(h.degree for h in self.chain)

    def __str__(self) -> str:
        return " | ".join(str(h) for h in self.chain)


@lru_cache(maxsize=None)
def monic_unit_constant_polys(p: int, degree: int) -> tuple[Poly, ...]:
    """All monic degree-`degree` polynomials over Z_p with unit constant term."""
    if degree < 1:
        raise ValueError(f"a monic polynomial with unit constant term has degree >= 1, got {degree}")
    out = []
    for constant in range(1, p):
        for middle in itertools.product(range(p), repeat=degree - 1):
            out.append(Poly(p, (constant,) + middle + (1,)))
    return tuple(sorted(out, key=lambda h: h.coeffs))


@lru_cache(maxsize=None)
def enumerate_specs(p: int, total_degree: int) -> tuple[PolySpec, ...]:
    """All divisor chains with the given degree sum, each exactly once.

    Ordered by (number of chain entries, then coefficient sequences).

    >>> [str(s) for s in enumerate_specs(2, 2)]
    ['1+t^2', '1+t+t^2', '1+t | 1+t']
    """
    chains: list[tuple[Poly, ...]] = []

    def rec(remaining: int, prev: Poly | None, prefix: tuple[Poly, ...]) -> None:
        if remaining == 0:
            chains.append(prefix)
            return
        min_deg = prev.degree if prev is not None else 1
        for deg in range(min_deg, remaining + 1):
            for h in monic_unit_constant_polys(p, deg):
                if prev is not None and not poly_divides(prev, h):
                    continue
                # the rest of the chain must absorb remaining-deg in parts >= deg
                rec(remaining - deg, h, prefix + (h,))

    rec(total_degree, None, ())
    chains.sort(key=lambda c: (len(c), tuple(h.coeffs for h in c)))
    return tuple(PolySpec(p, c) for c in chains)


def build(spec: PolySpec) -> LambdaModule:
    """The module of the chain: carrier (Z_p)^D, t acting blockwise.

    On the block of h (degree d), basis vectors hold the coefficients of
    1, t, ..., t^(d-1) and multiplication by t shifts them, folding t^d back
    via h. The unit constant term makes this invertible.
    """
    D = spec.total_degree
    G = AbelianGroup((spec.p,) * D)
    gens = G.generators()
    images = []
    offset = 0
    for h in spec.chain:
        d = h.degree
        images.extend(gens[offset + 1 : offset + d])
        # t^d = -(h_0 + h_1 t + ... + h_{d-1} t^(d-1)) in the quotient by h
        fold = tuple(-c % spec.p for c in h.coeffs[:d])
        images.append((0,) * offset + fold + (0,) * (D - offset - d))
        offset += d
    return LambdaModule(G, Automorphism(G, tuple(images)))


def divisor_chain(M: LambdaModule) -> PolySpec:
    """The divisor chain of a module on (Z_p)^D, the inverse of `build`.

    The chain is read from the Smith form of tI - A, where column j of A
    holds the image of the j-th generator: its invariant factors of positive
    degree are the chain, so `build` of the result is isomorphic to M.
    """
    p = _elementary_prime(M.group)
    if p is None:
        raise ValueError(f"{M.group} is not an elementary abelian p-group")
    images = M.t.images
    k = M.group.rank
    matrix = [
        [_trim([-images[j][i] % p, 1] if i == j else [-images[j][i] % p]) for j in range(k)]
        for i in range(k)
    ]
    factors = smith_invariant_factors(matrix, p)
    return PolySpec(p, tuple(Poly(p, tuple(d)) for d in factors if len(d) > 1))
