"""Polynomial quotient modules over Z_p.

Module structures on an elementary abelian carrier (Z_p)^D correspond to
divisor chains h_1 | h_2 | ... | h_n of monic polynomials with unit
constant term and degree sum D; the module is the direct sum of the
quotients by the h_i with t acting as multiplication by t (the companion
action on coefficient vectors). The unit constant term is exactly what
makes the action invertible.

Polynomials are stored densely, constant term first; the string form is
ascending, e.g. "1+t+t^4".
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache

from .abelian import AbelianGroup, _elementary_prime
from .autgroup import Automorphism
from .errors import SpecError
from .lambda_modules import LambdaModule, _poly_terms


@dataclass(frozen=True)
class Poly:
    """A polynomial over Z_p; coeffs has no trailing zeros, () is zero."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError(f"modulus must be at least 2, got {self.p}")
        coeffs = tuple(int(c) % self.p for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

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


def _check_same_modulus(a: Poly, b: Poly) -> None:
    if a.p != b.p:
        raise ValueError(f"mixed moduli: {a.p} and {b.p}")


def poly_add(a: Poly, b: Poly) -> Poly:
    _check_same_modulus(a, b)
    n = max(len(a.coeffs), len(b.coeffs))
    ca = a.coeffs + (0,) * (n - len(a.coeffs))
    cb = b.coeffs + (0,) * (n - len(b.coeffs))
    return Poly(a.p, tuple(x + y for x, y in zip(ca, cb)))


def poly_mul(a: Poly, b: Poly) -> Poly:
    _check_same_modulus(a, b)
    if a.is_zero or b.is_zero:
        return Poly(a.p, ())
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Poly(a.p, tuple(out))


def poly_divmod(a: Poly, m: Poly) -> tuple[Poly, Poly]:
    _check_same_modulus(a, m)
    if m.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    p = a.p
    lead_inv = pow(m.coeffs[-1], -1, p)
    rem = list(a.coeffs)
    quot = [0] * max(len(rem) - len(m.coeffs) + 1, 1)
    while len(rem) >= len(m.coeffs) and any(rem):
        while rem and rem[-1] % p == 0:
            rem.pop()
        if len(rem) < len(m.coeffs):
            break
        shift = len(rem) - len(m.coeffs)
        factor = (rem[-1] * lead_inv) % p
        quot[shift] = factor
        for i, c in enumerate(m.coeffs):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
    return Poly(p, tuple(quot)), Poly(p, tuple(rem))


def poly_mod(a: Poly, m: Poly) -> Poly:
    return poly_divmod(a, m)[1]


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, Poly(b.p, tuple(-c for c in b.coeffs)))


def poly_monic(a: Poly) -> Poly:
    """a scaled to leading coefficient 1 (zero stays zero)."""
    if a.is_zero:
        return a
    inv = pow(a.coeffs[-1], -1, a.p)
    return Poly(a.p, tuple(c * inv for c in a.coeffs))


def smith_invariant_factors(matrix: list[list[Poly]]) -> tuple[Poly, ...]:
    """Monic invariant factors d_1 | d_2 | ... | d_n of a square matrix over Z_p[t].

    Elimination by unimodular row and column operations: the entry of least
    degree is moved to the pivot, the pivot's row and column are cleared by
    division, and a remaining entry the pivot does not divide is added into
    the pivot row so that the next division lowers the pivot's degree. A
    zero block leaves zero factors.

    >>> p = 3
    >>> m = [[Poly(p, (1, 1)), Poly(p, ())], [Poly(p, ()), Poly(p, (2, 1))]]
    >>> [str(d) for d in smith_invariant_factors(m)]
    ['1', '2+t^2']
    """
    a = [list(row) for row in matrix]
    n = len(a)
    diagonal: list[Poly] = []
    for s in range(n):
        while True:
            nonzero = [
                (a[i][j].degree, i, j)
                for i in range(s, n)
                for j in range(s, n)
                if not a[i][j].is_zero
            ]
            if not nonzero:
                zero = Poly(a[s][s].p, ())
                return tuple(diagonal) + (zero,) * (n - s)
            _, i, j = min(nonzero)
            a[s], a[i] = a[i], a[s]
            for row in a:
                row[s], row[j] = row[j], row[s]
            pivot = a[s][s]
            cleared = True
            for i in range(s + 1, n):
                q, r = poly_divmod(a[i][s], pivot)
                if not q.is_zero:
                    a[i] = [poly_sub(x, poly_mul(q, y)) for x, y in zip(a[i], a[s])]
                cleared = cleared and r.is_zero
            for j in range(s + 1, n):
                q, r = poly_divmod(a[s][j], pivot)
                if not q.is_zero:
                    for row in a:
                        row[j] = poly_sub(row[j], poly_mul(q, row[s]))
                cleared = cleared and r.is_zero
            if not cleared:
                continue
            stray = next(
                (
                    i
                    for i in range(s + 1, n)
                    for j in range(s + 1, n)
                    if not poly_divides(pivot, a[i][j])
                ),
                None,
            )
            if stray is None:
                diagonal.append(poly_monic(pivot))
                break
            a[s] = [poly_add(x, y) for x, y in zip(a[s], a[stray])]
    return tuple(diagonal)


def poly_divides(a: Poly, b: Poly) -> bool:
    """Whether a divides b over Z_p (everything divides zero)."""
    _check_same_modulus(a, b)
    if a.is_zero:
        return b.is_zero
    return poly_mod(b, a).is_zero


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
    out = []
    for constant in range(1, p):
        for middle in itertools.product(range(p), repeat=max(degree - 1, 0)):
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
        [Poly(p, (-images[j][i], 1) if i == j else (-images[j][i],)) for j in range(k)]
        for i in range(k)
    ]
    return PolySpec(p, tuple(h for h in smith_invariant_factors(matrix) if h.degree >= 1))
