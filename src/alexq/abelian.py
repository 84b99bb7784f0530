"""Finite abelian groups in invariant-factor form.

A group is described by its invariant factors (d1, ..., dk) with
d1 | d2 | ... | dk and every d_i >= 2; the empty tuple is the trivial
group. Elements are coordinate tuples, one coordinate per factor,
reduced modulo that factor. Elements are indexed lexicographically by
their coordinates, so the zero element always has index 0.

This module owns the index order and all arithmetic on indices:
`_linear_indices` evaluates a homomorphism given by generator images (t,
1 - t, the Sylow embed map, an image's basis),
`_addition_rows` builds the addition table, and `_invariant_decomposition`
splits a subgroup of indices into cyclic factors on those rows.

>>> G = AbelianGroup((4, 4))
>>> G.add((3, 2), (2, 3))
(1, 1)
>>> G.element_order((2, 0))
2
>>> [g.factors for g in enumerate_groups(12)]
[(12,), (2, 6)]
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from operator import attrgetter

Element = tuple[int, ...]


class ShapeError(ValueError):
    """An element does not match the shape of the group it is used with."""


class _Frozen:
    """Base of alexq's value types that check their fields.

    A type that validates is a `_Frozen`; a plain record is a namedtuple.
    A subclass declares its fields as class annotations, as a dataclass
    would, and its own `__init__` checks them and sets each once with
    `object.__setattr__`; a subclass that declares none keeps its base's
    fields. Instances are equal when they are of one class and their fields
    are equal, and hash alike then; the repr is "Name(field=value, ...)".
    Assigning or deleting an attribute raises AttributeError, while
    `cached_property` still fills, as it writes the instance `__dict__`.
    Not a dataclass: importing `dataclasses` and building its methods
    would be most of the cost of importing alexq.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "__annotations__" in cls.__dict__:
            cls._fields = tuple(cls.__dict__["__annotations__"])
        # reads the fields in C, one value or a tuple of them
        cls._values = attrgetter(*cls._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r} of a {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of a {type(self).__name__}")


class AbelianGroup(_Frozen):
    """A finite abelian group given by its invariant factors."""

    factors: tuple[int, ...]

    def __init__(self, factors: tuple[int, ...]) -> None:
        factors = tuple(int(d) for d in factors)
        for d in factors:
            if d < 2:
                raise ValueError(f"invariant factors must be >= 2, got {d}")
        for a, b in itertools.pairwise(factors):
            if b % a != 0:
                raise ValueError(
                    f"invariant factors must form a divisibility chain, got {factors}"
                )
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """All elements in lexicographic coordinate order."""
        return tuple(itertools.product(*(range(d) for d in self.factors)))

    def index(self, x: Element) -> int:
        self.check_element(x)
        return sum(c * s for c, s in zip(x, self.generator_indices))

    def element(self, i: int) -> Element:
        return self.elements[i]

    def check_element(self, x: Element) -> None:
        if len(x) != len(self.factors):
            raise ShapeError(f"element {x} does not fit group with factors {self.factors}")
        for c, d in zip(x, self.factors):
            if not 0 <= c < d:
                raise ShapeError(f"coordinate {c} of {x} not reduced modulo {d}")

    @property
    def zero(self) -> Element:
        return (0,) * len(self.factors)

    def add(self, x: Element, y: Element) -> Element:
        self.check_element(x)
        self.check_element(y)
        return tuple((a + b) % d for a, b, d in zip(x, y, self.factors))

    def neg(self, x: Element) -> Element:
        self.check_element(x)
        return tuple((-a) % d for a, d in zip(x, self.factors))

    def sub(self, x: Element, y: Element) -> Element:
        return self.add(x, self.neg(y))

    def scalar_mul(self, c: int, x: Element) -> Element:
        self.check_element(x)
        return tuple((c * a) % d for a, d in zip(x, self.factors))

    def element_order(self, x: Element) -> int:
        """Least m >= 1 with m*x = 0."""
        self.check_element(x)
        m = 1
        for a, d in zip(x, self.factors):
            m = math.lcm(m, d // math.gcd(d, a))
        return m

    def generators(self) -> tuple[Element, ...]:
        """The standard generators e_i (one-hot coordinate tuples)."""
        k = len(self.factors)
        return tuple(
            tuple(1 if j == i else 0 for j in range(k)) for i in range(k)
        )

    @cached_property
    def generator_indices(self) -> tuple[int, ...]:
        """Element indices of the standard generators: the mixed-radix strides."""
        return tuple(math.prod(self.factors[i + 1 :]) for i in range(self.rank))

    def spec(self) -> str:
        """Comma-separated factor string; the trivial group is "1"."""
        if not self.factors:
            return "1"
        return ",".join(str(d) for d in self.factors)

    @classmethod
    def from_spec(cls, text: str) -> AbelianGroup:
        """Parse a comma-separated list of cyclic orders.

        Any list of cyclic orders is accepted and normalized to invariant
        factors, e.g. "8,2" and "2,8" both give the group with factors (2, 8).
        A list that already is an invariant-factor chain, the form `spec`
        writes, is taken as it is.
        """
        parts = [p.strip() for p in text.split(",")]
        try:
            orders = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"bad group spec {text!r}") from None
        if any(m < 1 for m in orders):
            raise ValueError(f"bad group spec {text!r}: orders must be positive")
        if orders[0] > 1 and all(b % a == 0 for a, b in itertools.pairwise(orders)):
            return cls(tuple(orders))
        return cls(normalize_cyclic_orders(orders))

    def __str__(self) -> str:
        return self.spec()


def _linear_indices(source: AbelianGroup, target: AbelianGroup, images) -> list[int]:
    """The index in `target` of f(x) for each x of `source`, in index order.

    f is the homomorphism with f(e_j) = images[j] (coordinates need not be
    reduced). Built by the recurrence f(x) = f(x - e_j) + f(e_j), one target
    coordinate at a time, unchecked: the elements whose leading coordinates
    are zero are a prefix of the index order, and each generator, taken
    from the last, extends that prefix by its multiples.

    >>> _linear_indices(AbelianGroup((2,)), AbelianGroup((2, 4)), [(1, 2)])
    [0, 6]
    """
    indices = [0] * source.order
    for l, (d, stride) in enumerate(zip(target.factors, target.generator_indices)):
        column = [0]  # coordinate l of f(x), x in index order
        for m, img in zip(reversed(source.factors), reversed(images)):
            a = img[l]
            column = [(y + c * a) % d for c in range(m) for y in column] if a else column * m
        indices = [i + y * stride for i, y in zip(indices, column)]
    return indices


def _addition_rows(G: AbelianGroup) -> list[tuple[int, ...]]:
    """rows[a][b] is the index of x_a + x_b, built one coordinate at a time."""
    columns = [[x[l] for x in G.elements] for l in range(G.rank)]
    shape = tuple(zip(columns, G.factors, G.generator_indices))
    rows = []
    for i in range(G.order):
        row = [0] * G.order
        for column, d, stride in shape:
            a = column[i]
            row = [r + (a + c) % d * stride for r, c in zip(row, column)]
        rows.append(tuple(row))
    return rows


def _prime_factorization(n: int) -> dict[int, int]:
    result: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            result[p] = result.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        result[n] = result.get(n, 0) + 1
    return result


def _elementary_prime(G: AbelianGroup) -> int | None:
    """p if G is (Z_p)^k for a prime p and some k >= 1, else None."""
    if G.factors and len(set(G.factors)) == 1:
        p = G.factors[0]
        if _prime_factorization(p) == {p: 1}:
            return p
    return None


def sylow_parts(G: AbelianGroup) -> tuple[AbelianGroup, ...]:
    """The Sylow subgroups of G by ascending prime, in invariant-factor form.

    The factors of the p-part are the p-parts of G's factors that exceed 1,
    so they come from G's last factors, position for position.

    >>> [P.factors for P in sylow_parts(AbelianGroup((2, 2, 12)))]
    [(2, 2, 4), (3,)]
    """
    return tuple(
        AbelianGroup(tuple(q for d in G.factors if (q := math.gcd(d, p**e)) > 1))
        for p, e in sorted(_prime_factorization(G.order).items())
    )


def normalize_cyclic_orders(orders: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """Invariant factors of a direct sum of cyclic groups of the given orders.

    >>> normalize_cyclic_orders([8, 2])
    (2, 8)
    >>> normalize_cyclic_orders([6, 4])
    (2, 12)
    >>> normalize_cyclic_orders([1, 1])
    ()
    """
    exponents: dict[int, list[int]] = {}
    for m in orders:
        if m < 1:
            raise ValueError(f"cyclic orders must be positive, got {m}")
        for p, e in _prime_factorization(m).items():
            exponents.setdefault(p, []).append(e)
    if not exponents:
        return ()
    length = max(len(v) for v in exponents.values())
    factors = [1] * length
    for p, exps in exponents.items():
        # largest prime powers go into the largest invariant factors
        padded = [0] * (length - len(exps)) + sorted(exps)
        for i, e in enumerate(padded):
            factors[i] *= p**e
    return tuple(d for d in factors if d > 1)


def _partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as weakly increasing tuples."""
    result: list[tuple[int, ...]] = []

    def rec(remaining: int, minimum: int, prefix: list[int]) -> None:
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(minimum, remaining + 1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, 1, [])
    return result


def enumerate_groups(order: int) -> tuple[AbelianGroup, ...]:
    """All abelian groups of the given order, one per isomorphism class.

    Output is in invariant-factor form, ordered by (number of factors,
    then factor sequence), so cyclic comes first:

    >>> [g.factors for g in enumerate_groups(16)]
    [(16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2)]
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    primes = sorted(_prime_factorization(order).items())
    groups = []
    for choice in itertools.product(*(_partitions(e) for _, e in primes)):
        orders = [p**e for (p, _), part in zip(primes, choice) for e in part]
        groups.append(AbelianGroup(normalize_cyclic_orders(orders)))
    groups.sort(key=lambda g: (len(g.factors), g.factors))
    return tuple(groups)


def _invariant_decomposition(elems, rows):
    """Greedy invariant-factor decomposition of the index subgroup elems.

    rows is the addition table. At each level, with H the span of the b
    already chosen, b is the least index of maximal order modulo H, and each
    coset of H is named by its least index, found in one ascending pass that
    marks the coset through the rows. Last level first, the quotient basis
    is lifted to representatives of the right order. Returns the factors
    ascending and the basis aligned with them.

    >>> _invariant_decomposition(range(8), _addition_rows(AbelianGroup((2, 4))))
    ((2, 4), (4, 1))
    """
    ascending = sorted(elems)
    least = list(range(len(rows)))  # least[x]: the least index of x + H
    H, levels = [0], []
    while len(H) < len(ascending):
        m, b = 1, 0
        for x in ascending:
            if least[x] == x:
                order, y = 1, x
                while least[y]:
                    y = rows[y][x]
                    order += 1
                if order > m:
                    m, b = order, x
        multiples = [0]
        for _ in range(m - 1):
            multiples.append(rows[multiples[-1]][b])
        levels.append((m, b, least, multiples))
        H = [rows[h][y] for y in multiples for h in H]
        least = [-1] * len(rows)
        for x in ascending:
            if least[x] < 0:
                for h in H:
                    least[rows[x][h]] = x

    factors, basis = (), ()
    for m, b, least, multiples in reversed(levels):
        # q*c lands in <b> modulo H; adjust c by a multiple of b so its order drops to q
        steps = {least[y]: u for u, y in enumerate(multiples)}
        lifted = []
        for c, q in zip(basis, factors):
            qc = 0
            for _ in range(q):
                qc = rows[qc][c]
            s = -(steps[least[qc]] // q) % (m // q)
            lifted.append(least[rows[c][multiples[s]]])
        factors, basis = factors + (m,), tuple(lifted) + (b,)
    return factors, basis
