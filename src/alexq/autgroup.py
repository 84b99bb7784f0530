"""Automorphism groups of finite abelian groups and their conjugacy classes.

An endomorphism is stored by the images of the standard generators e_i and
extends linearly; it is well defined exactly when d_i * image_i = 0. An
automorphism is a bijective endomorphism; bijectivity is what makes the
inverse action (needed for t^-1) exist.

Enumeration walks all candidate generator-image tuples whose orders divide
the corresponding factors, keeping the bijective ones; the budget guard
counts those tuples in closed form before any table is built. Conjugacy
classes are orbits under conjugation, computed in `kernels` as closures
under a generating set S of Aut (at most four maps on every enumerable
carrier of order up to 48), which costs |Aut| * |S| conjugates instead of
|Aut| * #classes. Since a linear map is fixed by its generator images, a
conjugate h o f o h^-1 is evaluated on the generators only: with
h^-1(g) = h.index(g) that is k lookups and no inverse permutation.
`lex_least_conjugate` reads its answer from the same cached partition.
`is_conjugate` remains the definitional pairwise test and is used to verify
the partition.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import kernels
from .abelian import AbelianGroup, Element
from .errors import EnumerationBudgetError, SpecError

DEFAULT_ENUMERATION_BUDGET = 1 << 24


@dataclass(frozen=True)
class Endomorphism:
    """A linear self-map given by generator images."""

    group: AbelianGroup
    images: tuple[Element, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(tuple(img) for img in self.images))
        G = self.group
        if len(self.images) != G.rank:
            raise ValueError(
                f"expected {G.rank} generator images for {G}, got {len(self.images)}"
            )
        for d, img in zip(G.factors, self.images):
            G.check_element(img)
            if G.scalar_mul(d, img) != G.zero:
                raise ValueError(
                    f"image {img} of a generator of order {d} has order "
                    f"{G.element_order(img)}; the map is not well defined"
                )

    @cached_property
    def perm(self) -> tuple[int, ...]:
        """The full map as element indices: perm[i] = index of f(element i)."""
        G = self.group
        out = []
        for x in G.elements:
            y = G.zero
            for c, img in zip(x, self.images):
                if c:
                    y = G.add(y, G.scalar_mul(c, img))
            out.append(G.index(y))
        return tuple(out)

    def apply(self, x: Element) -> Element:
        G = self.group
        return G.element(self.perm[G.index(x)])

    def compose(self, other: Endomorphism) -> Endomorphism:
        """self after other: compose(f, g)(x) = f(g(x))."""
        if self.group != other.group:
            raise ValueError("cannot compose maps on different groups")
        images = tuple(self.apply(img) for img in other.images)
        if isinstance(self, Automorphism) and isinstance(other, Automorphism):
            return Automorphism(self.group, images)
        return Endomorphism(self.group, images)

    def is_automorphism(self) -> bool:
        return len(set(self.perm)) == self.group.order

    def spec(self) -> str:
        """Semicolon-separated generator images, e.g. "0,1;3,2"."""
        return ";".join(",".join(str(c) for c in img) for img in self.images)

    def __str__(self) -> str:
        return self.spec()


@dataclass(frozen=True)
class Automorphism(Endomorphism):
    """A bijective endomorphism."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.is_automorphism():
            raise ValueError(f"map {self.spec() or 'id'} on {self.group} is not bijective")

    @classmethod
    def _from_perm(cls, group: AbelianGroup, perm: tuple[int, ...]) -> Automorphism:
        # trusted fast path for kernel output: skips validation, seeds the
        # cached permutation
        images = tuple(group.element(perm[g]) for g in group.generator_indices)
        self = object.__new__(cls)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "images", images)
        self.__dict__["perm"] = perm
        return self

    def invert(self) -> Automorphism:
        return Automorphism._from_perm(self.group, kernels.invert_perm(self.perm))

    def cycle_type(self) -> tuple[int, ...]:
        """Sorted cycle lengths of the permutation action; a conjugacy invariant."""
        perm = self.perm
        seen = [False] * len(perm)
        lengths = []
        for start in range(len(perm)):
            if seen[start]:
                continue
            length = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths))

    def order(self) -> int:
        return math.lcm(*self.cycle_type())


def identity_automorphism(G: AbelianGroup) -> Automorphism:
    return Automorphism(G, G.generators())


def parse_phi_spec(G: AbelianGroup, text: str) -> Automorphism:
    """Parse "0,1;3,2" as an automorphism of G. Coordinates are reduced."""
    text = text.strip()
    if G.rank == 0:
        if text:
            raise SpecError(f"the trivial group takes an empty map spec, got {text!r}")
        return identity_automorphism(G)
    parts = text.split(";")
    if len(parts) != G.rank:
        raise SpecError(f"expected {G.rank} generator images for {G}, got {len(parts)}")
    images = []
    for part in parts:
        try:
            coords = tuple(int(c) for c in part.split(","))
        except ValueError:
            raise SpecError(f"bad generator image {part!r}") from None
        if len(coords) != G.rank:
            raise SpecError(f"image {part!r} has {len(coords)} coordinates, expected {G.rank}")
        images.append(tuple(c % d for c, d in zip(coords, G.factors)))
    try:
        return Automorphism(G, tuple(images))
    except ValueError as exc:
        raise SpecError(str(exc)) from None


@lru_cache(maxsize=16)
def _group_tables(G: AbelianGroup) -> tuple[list[int], list[list[int]]]:
    """(flat addition table, allowed image indices per generator position)."""
    n = G.order
    elements = G.elements
    add = [0] * (n * n)
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            add[i * n + j] = G.index(G.add(x, y))
    orders = [G.element_order(x) for x in elements]
    allowed = [[i for i in range(n) if d % orders[i] == 0] for d in G.factors]
    return add, allowed


def _candidate_count(G: AbelianGroup) -> int:
    """Number of candidate generator-image tuples the enumeration walks.

    Generator i may go to any element killed by d_i, and Z_{d_j} has
    gcd(d_i, d_j) of those, so the count is prod_i prod_j gcd(d_i, d_j).
    """
    return math.prod(math.gcd(di, dj) for di in G.factors for dj in G.factors)


def _check_budget(G: AbelianGroup, budget: int) -> None:
    count = _candidate_count(G)
    if count > budget:
        raise EnumerationBudgetError(
            f"enumerating automorphisms of {G} needs {count} candidate "
            f"image tuples, over the budget of {budget}"
        )


@lru_cache(maxsize=16)
def _automorphism_perms(G: AbelianGroup, budget: int) -> tuple[tuple[int, ...], ...]:
    _check_budget(G, budget)
    add, allowed = _group_tables(G)
    perms = kernels.enumerate_linear_bijections(
        G.order, G.factors, G.generator_indices, add, allowed
    )
    return tuple(perms)


def enumerate_automorphisms(
    G: AbelianGroup, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> tuple[Automorphism, ...]:
    """Every automorphism of G, ordered by flattened image coordinates.

    >>> len(enumerate_automorphisms(AbelianGroup((16,))))
    8
    """
    return tuple(
        Automorphism._from_perm(G, p) for p in _automorphism_perms(G, budget)
    )


@lru_cache(maxsize=16)
def _conjugacy(G: AbelianGroup, budget: int):
    perms = _automorphism_perms(G, budget)
    class_ids, rep_indices = kernels.conjugacy_partition(perms, G.generator_indices)
    return perms, tuple(class_ids), tuple(rep_indices)


def conjugacy_representatives(
    G: AbelianGroup, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> tuple[Automorphism, ...]:
    """One representative per conjugacy class of Aut(G).

    Each representative is the lexicographically least member of its class
    (by flattened image coordinates), and the output is sorted the same way.
    """
    perms, _, rep_indices = _conjugacy(G, budget)
    return tuple(Automorphism._from_perm(G, perms[i]) for i in rep_indices)


def conjugacy_class_sizes(
    G: AbelianGroup, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> tuple[int, ...]:
    """Class sizes aligned with conjugacy_representatives; they sum to |Aut|."""
    _, class_ids, rep_indices = _conjugacy(G, budget)
    sizes = [0] * len(rep_indices)
    for cid in class_ids:
        sizes[cid] += 1
    return tuple(sizes)


def _fixed_point_free_image_size(f: Automorphism) -> int:
    """|Im(Id - f)|, a cheap conjugacy invariant."""
    G = f.group
    perm = f.perm
    return len({G.index(G.sub(x, G.element(perm[i]))) for i, x in enumerate(G.elements)})


def is_conjugate(
    G: AbelianGroup,
    f: Automorphism,
    g: Automorphism,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Automorphism | None:
    """A witness h with f = h^-1 o g o h, or None.

    Cheap invariants (cycle type, size of Im(Id - phi)) short-circuit most
    negatives before the witness search over Aut(G).
    """
    if f.group != G or g.group != G:
        raise ValueError("both maps must act on the given group")
    if f.cycle_type() != g.cycle_type():
        return None
    if _fixed_point_free_image_size(f) != _fixed_point_free_image_size(g):
        return None
    fp, gp = f.perm, g.perm
    gens = G.generator_indices
    for hp in _automorphism_perms(G, budget):
        # h o f o h^-1 = g on the generators determines the linear map
        if all(hp[fp[hp.index(x)]] == gp[x] for x in gens):
            return Automorphism._from_perm(G, hp)
    return None


def lex_least_conjugate(
    G: AbelianGroup, f: Automorphism, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Automorphism:
    """The lexicographically least member of f's conjugacy class.

    Read from the cached partition: f is found by bisection in the
    automorphism list (sorted by generator images), and its class
    representative is already the least member.
    """
    if f.group != G:
        raise ValueError("the map must act on the given group")
    perms, class_ids, rep_indices = _conjugacy(G, budget)
    gens = G.generator_indices
    i = bisect.bisect_left(
        perms, tuple([f.perm[g] for g in gens]), key=lambda p: tuple([p[g] for g in gens])
    )
    return Automorphism._from_perm(G, perms[rep_indices[class_ids[i]]])
