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

The chains name the conjugacy classes of GL_k(p). `least_members` finds the
lexicographically least member of each class of Aut(G) without listing the
group, on every carrier G = (Z_p)^k + Z_m with gcd(p, m) = 1, whose
invariant factors are (p, ..., p, p*m) (`scan_shape`); an elementary carrier
is the case m = 1. Aut(G) is GL_k(p) x Aut(Z_m) (Hillar & Rhea, Amer. Math.
Monthly 114, 2007), and Aut(Z_m) is abelian, so a class is one divisor chain
paired with one unit of Z_m. One walk over GL_k(p) serves every unit (see
`_scan`). It walks the invertible matrices in the order of their flattened
generator images (columns) in G's coordinates, one column at a time, and the
first matrix it meets in a class is that class's least member. A chain fixes
the nullity of f − λI at every λ in F_p: the number of its entries that
vanish at λ. A prefix of j columns c_a − λe_a of rank r bounds every
completion f, as the k − j columns still to come add at most k − j to the
rank: the nullity of f − λI lies between j − r and k − r. At λ = 0 this says
that the prefix must be independent. A subtree is walked only while some
chain not yet met has its nullities within those bounds at every λ, so no
subtree that holds a class's least member is skipped, and the walk stops
once every chain has a member. At a leaf the nullities are exact, and the
Smith form names the class unless one chain alone has those nullities. The
members are kept in one table per carrier, keyed by (chain, unit), which
`least_conjugate` (the least conjugate that names a label on these
carriers) reads.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from collections.abc import Sequence
from functools import lru_cache
from operator import itemgetter

from .abelian import (
    AbelianGroup,
    Element,
    _Frozen,
    _elementary_prime,
    _prime_factorization,
)
from .autgroup import ENUMERATION_BUDGET, Automorphism, _crt_tables, _group_tables
from .errors import EnumerationBudgetError, SpecError
from .lambda_modules import LambdaModule, _poly_terms


class Poly(_Frozen):
    """A polynomial over Z_p, p prime; coeffs has no trailing zeros, () is zero."""

    p: int
    coeffs: tuple[int, ...]

    def __init__(self, p: int, coeffs: Sequence[int]) -> None:
        if _prime_factorization(p) != {p: 1}:
            raise ValueError(f"modulus must be a prime, got {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(_trim([int(c) % p for c in coeffs])))

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


class PolySpec(_Frozen):
    """A divisor chain h_1 | h_2 | ... of monic unit-constant polynomials."""

    p: int
    chain: tuple[Poly, ...]

    def __init__(self, p: int, chain: tuple[Poly, ...]) -> None:
        for h in chain:
            if h.p != p:
                raise ValueError("chain polynomials must share the spec modulus")
            if h.degree < 1 or not h.is_monic or not h.has_unit_constant:
                raise ValueError(
                    f"chain entries must be monic of positive degree with unit "
                    f"constant term, got {h}"
                )
        for a, b in itertools.pairwise(chain):
            if not poly_divides(a, b):
                raise ValueError(f"{a} does not divide {b}; not a divisor chain")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "chain", chain)

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


def _chain_factors(images: Sequence[Sequence[int]], p: int) -> tuple[tuple[int, ...], ...]:
    """The divisor chain of t with these generator images on (Z_p)^k, as
    coefficient tuples: the invariant factors of tI - A of positive degree,
    where column j of A holds the j-th image."""
    k = len(images)
    matrix = [
        [_trim([-images[j][i] % p, 1] if i == j else [-images[j][i] % p]) for j in range(k)]
        for i in range(k)
    ]
    return tuple(tuple(d) for d in smith_invariant_factors(matrix, p) if len(d) > 1)


def divisor_chain(M: LambdaModule) -> PolySpec:
    """The divisor chain of a module on (Z_p)^D, the inverse of `build`.

    The chain is read from the Smith form of tI - A (`_chain_factors`): its
    invariant factors of positive degree are the chain, so `build` of the
    result is isomorphic to M.
    """
    p = _elementary_prime(M.group)
    if p is None:
        raise ValueError(f"{M.group} is not an elementary abelian p-group")
    return PolySpec(p, tuple(Poly(p, d) for d in _chain_factors(M.t.images, p)))


# --- least members of the classes of Aut((Z_p)^k + Z_m) -------------------


def scan_shape(G: AbelianGroup) -> tuple[int, int, int] | None:
    """(p, k, m) if the least-member scan serves G, else None.

    G is served when it is (Z_p)^k + Z_m with p prime and gcd(p, m) = 1,
    its invariant factors (p, ..., p, p*m), k its rank. A cyclic G is served
    only at prime order: Z_n's Aut is abelian, and the Aut route lists it
    without a partition.

    >>> [scan_shape(AbelianGroup(f)) for f in [(5,), (2, 2), (3, 6), (2, 2, 12), (6,)]]
    [(5, 1, 1), (2, 2, 1), (3, 2, 2), None, None]
    """
    factors = G.factors
    if not factors or _prime_factorization(factors[0]) != {factors[0]: 1}:
        return None
    p, last = factors[0], factors[-1]
    if any(d != p for d in factors[:-1]) or last % p or last // p % p == 0:
        return None
    return p, len(factors), last // p


def scan_count(p: int, k: int) -> int:
    """The candidate image tuples with the first image fixed, p^(k(k-1)):
    what the walk of `least_members` is budgeted by, whatever m is."""
    return p ** (k * (k - 1))


def _check_scan_budget(p: int, k: int, m: int) -> int:
    """The scan's count; raises if it is over ENUMERATION_BUDGET."""
    count = scan_count(p, k)
    if count > ENUMERATION_BUDGET:
        spec = ",".join(map(str, (p,) * (k - 1) + (p * m,)))
        raise EnumerationBudgetError(
            f"scanning {spec} for least class members needs {count} "
            f"candidate image tuples, over the budget of {ENUMERATION_BUDGET}"
        )
    return count


@lru_cache(maxsize=None)
def _roots(h: Poly) -> tuple[int, ...]:
    """The roots of the monic h in F_p, ascending."""
    p = h.p
    if h.degree == 1:
        return (-h.coeffs[0] % p,)
    values = [0] * p
    for c in reversed(h.coeffs):
        values = [(v * lam + c) % p for lam, v in enumerate(values)]
    return tuple(lam for lam, v in enumerate(values) if not v)


def _admits(nullities: dict[int, int], lost: dict[int, int], slack: int) -> bool:
    """Whether a chain with these nullities can complete a prefix that has
    lost rank `lost[λ]` at each λ, with `slack` columns still to come."""
    return all(nullities.get(lam, 0) >= u for lam, u in lost.items()) and all(
        v <= lost.get(lam, 0) + slack for lam, v in nullities.items()
    )


Chain = tuple[tuple[int, ...], ...]  # a divisor chain as coefficient tuples


def _first_members(P: AbelianGroup, ascending: list[int]) -> dict[Chain, tuple[int, ...]]:
    """Chain -> the first matrix of GL_k(p) with that chain in the walk, as
    the element indices of its columns, in the order the chains are met.

    P is (Z_p)^k, and `ascending` lists P's elements in the order each
    column's candidates are tried. The walk runs on element indices: the
    span of the prefix columns c_a − λe_a is kept for each λ, and the next
    column c loses rank at λ exactly when c − λe_j lies in it.
    """
    p, k = P.factors[0], P.rank
    rows, candidates = _group_tables(P)
    multiples = candidates[-1]  # x -> [x, 2x, ..., (p-1)x]
    units = P.generator_indices  # e_j is the element of index units[j]
    missing: dict[Chain, frozenset] = {}  # chain -> its nullities
    for spec in enumerate_specs(p, k):
        nullities = Counter(lam for h in spec.chain for lam in _roots(h))
        missing[tuple(h.coeffs for h in spec.chain)] = frozenset(nullities.items())
    profiles = Counter(missing.values())  # nullities -> chains with them not yet met
    alone = {nullities: chain for chain, nullities in missing.items() if profiles[nullities] == 1}
    shapes = {nullities: dict(nullities) for nullities in profiles}
    members: dict[Chain, tuple[int, ...]] = {}
    prefix: list[int] = []

    def walk(spans: list[list[int]], lost: dict[int, int]) -> bool:
        """Try each next column in its order; True once no chain is missing."""
        j = len(prefix)
        e = units[j]
        drops: list[tuple[int, ...]] = [()] * P.order  # column -> each λ it loses rank at
        for lam, span in enumerate(spans):
            for c in map(rows[lam * e].__getitem__, span):
                drops[c] += (lam,)
        slack = k - j - 1
        for c in ascending:
            dropped = drops[c]
            if dropped[:1] == (0,):  # c is in the span of the prefix
                continue
            after = dict(lost)
            for lam in dropped:
                after[lam] = after.get(lam, 0) + 1
            if slack:
                if not any(_admits(shapes[nullities], after, slack) for nullities in profiles):
                    continue
                grown = [
                    span
                    if lam in dropped
                    else span
                    + [
                        y
                        for w in multiples[rows[c][(p - lam) % p * e]]
                        for y in map(rows[w].__getitem__, span)
                    ]
                    for lam, span in enumerate(spans)
                ]
                prefix.append(c)
                if walk(grown, after):
                    return True
                prefix.pop()
                continue
            nullities = frozenset(after.items())
            if nullities not in profiles:
                continue
            columns = (*prefix, c)
            chain = alone.get(nullities) or _chain_factors([P.elements[x] for x in columns], p)
            if chain in missing:
                del missing[chain]
                profiles[nullities] -= 1
                if not profiles[nullities]:
                    del profiles[nullities]
                members[chain] = columns
                if not missing:
                    return True
        return False

    walk([[0]] * p, {})
    return members


@lru_cache(maxsize=32)
def _scan(p: int, k: int, m: int) -> dict[tuple[Chain, int], Automorphism]:
    """(chain, u) -> the least member of that class of Aut(G), G = (Z_p)^k + Z_m,
    in ascending order of the members.

    Aut(G) = GL_k(p) x Aut(Z_m), and Aut(Z_m) is abelian, so a class is one
    class of GL_k(p), named by its chain, and one unit u of Z_m. In G's
    coordinates the member (f, u) has column j = embed(v_j) + c_j, for the
    column v_j of f, where c_j is 0 but on the last generator, c_last =
    u*b*e_last with b = 0 mod p, 1 mod m. So the walk tries candidates in
    the order of embed's index in G, and its first matrix of a chain, lifted
    with u, is the least member of (chain, u). The walk does not depend on
    u. Adding c_last changes only the last coordinate of the last column, so
    it reorders only those candidates for that column that agree in every
    other coordinate. They differ in the diagonal entry, so in trace, so
    they lie in distinct classes, and each class is met first at the same
    matrix in either order. One walk serves every unit.
    """
    _check_scan_budget(p, k, m)
    P = AbelianGroup((p,) * k)
    G = AbelianGroup((p,) * (k - 1) + (p * m,))
    _, embed = _crt_tables(G, P)  # the identity when m = 1
    last = G.generators()[-1]
    b = p * pow(p, -1, m)  # the CRT idempotent of m: 0 mod p, 1 mod m
    first = _first_members(P, sorted(range(P.order), key=embed.__getitem__))
    elements = G.elements
    found: dict[tuple[Chain, int], tuple[Element, ...]] = {}
    for u in range(m):
        if math.gcd(u, m) != 1:
            continue
        c_last = G.scalar_mul(u * b, last)
        for chain, columns in first.items():
            images = [elements[embed[x]] for x in columns]
            images[-1] = G.add(images[-1], c_last)
            found[chain, u] = tuple(images)
    ranked = sorted(found.items(), key=itemgetter(1))
    return {cls: Automorphism(G, images) for cls, images in ranked}


def least_members(p: int, k: int, m: int = 1) -> tuple[Automorphism, ...]:
    """The lexicographically least member of every conjugacy class of
    Aut((Z_p)^k + Z_m), gcd(p, m) = 1, ascending.

    The members and their order are those of `conjugacy_representatives` on
    the carrier with invariant factors (p, ..., p, p*m), found by one walk
    over the columns that the nullities of the chains not yet met prune (see
    the module docstring), not by listing the group.

    >>> [f.spec() for f in least_members(2, 2)]
    ['0,1;1,0', '0,1;1,1', '1,0;0,1']
    >>> [f.spec() for f in least_members(2, 2, 3)]
    ['0,3;1,1', '0,3;1,2', '0,3;1,4', '0,3;1,5', '1,0;0,1', '1,0;0,5']
    """
    return tuple(_scan(p, k, m).values())


def least_conjugate(f: Automorphism, p: int, k: int, m: int) -> Automorphism:
    """The least member of f's class on the carrier of `scan_shape` (p, k, m),
    read from its scan's table.

    f's GL_k(p) part has the matrix of f's images mod p, and f acts on the
    Z_m part by the unit of its last image's last coordinate mod m, so
    neither Aut nor a CRT table is needed to name f's class.
    """
    return _scan(p, k, m)[_chain_factors(f.images, p), f.images[-1][-1] % m]
