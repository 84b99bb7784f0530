"""Automorphism groups of finite abelian groups and their conjugacy classes.

An endomorphism is stored by the images of the standard generators e_i and
extends linearly; it is well defined exactly when d_i * image_i = 0. An
automorphism is a bijective endomorphism; bijectivity is what makes the
inverse action (needed for t^-1) exist. It is decided on G/pG for each
prime p of |G|: f is bijective exactly when the matrix of its generator
images at the positions j with p | d_j is invertible mod p (Burnside's
basis theorem on each Sylow part), so validating a parsed map costs
O(k^3) per prime and builds none of its n images.

Enumeration searches the candidate generator-image tuples whose orders
divide the corresponding factors, keeping the bijective ones: a partial
tuple spans a subgroup H, and the next image is rejected as soon as one of
its multiples lies in H, which prunes its whole subtree. A carrier's index
tables (`_group_tables`: the addition rows and each candidate's multiples)
are built once per carrier, in the search's format (`kernels.search_rows`:
`bytes` rows up to 256 elements, tuples of ints above), and every module
reads that one copy; `abelian` computes the rows, `perm` and the CRT
tables. Aut is kept in search order, which is ascending in the reversed
generator-image key, and is never sorted. Its maps come out of the search
in the rows' format, one byte per element index up to 256 elements;
`Automorphism.perm` is a tuple either way. A carrier has two caches, one
per stage: its tables and its classes (`_conjugacy`), which keep the Aut
list of each prime-power part. The budget guard counts the
candidate tuples in closed form before any table is built and refuses a
carrier with more than ENUMERATION_BUDGET (2^24) of them; the same budget
bounds the n^2 entries of the addition table. The budget is a constant,
not a parameter, so the cached classes are keyed by the carrier alone.

Conjugacy classes are composed from the Sylow parts. G is the direct sum
of its p-parts G_p, and Aut(G) is the product of the Aut(G_p) (Hillar &
Rhea, "Automorphisms of finite abelian groups", Amer. Math. Monthly 114,
2007), so a class of Aut(G) is a product of one class per part and its
size is the product of theirs. Only the Aut of a p-group is enumerated and
partitioned, once per part, and a prime-power carrier's representatives
are read straight off its partition. The least member of a product class
in G's invariant-factor coordinates comes from one scan of the product
through CRT index tables, linear in |Aut(G)|, so Aut of a carrier with
several primes is never listed or partitioned.
On this route `conjugacy_representatives` and `_listed_least_conjugate`
both read one cached table per carrier, `_conjugacy`. The guard stays on
G: G's candidate count is the product of the parts' counts and at least
|Aut(G)|, so it bounds both the part searches and the scan.

A p-group's classes are orbits under conjugation, computed in `kernels` as
closures under a generating set S of Aut (at most four maps on every
enumerable carrier of order up to 48), which costs |Aut| * |S| conjugates
instead of |Aut| * #classes. That S generates Aut is proved by a
Schreier-Sims stabilizer chain on the standard generators, in milliseconds
on the largest carriers, not by a closure over Aut. Since a linear map is
fixed by its generator images, a conjugate h o f o h^-1 is evaluated on the
generators only, at h^-1(g) = h.index(g), with no inverse permutation. One
C-level pass per generator h maps the columns at h^-1(g) of every map by
h and sums their ranks into a dense mixed-radix index of the keys, giving
the position of every conjugate before the closure starts; the index
needs one array of at most `_candidate_count(G)` entries, not a dict as
large as Aut. The index sorts as the keys do, so the closure walks that
array in ascending index and closes each class by one BFS from the first
member it meets, its least key.
`is_conjugate` decides a single pair without enumerating Aut: the kernel
searches directly for an h with h o f = g o h, the same search that
enumerates Aut and that decides module isomorphism in `lambda_modules`.

A cyclic p-group's Aut is abelian, so each map is its own class: its
classes are numbered in search order, which is ascending in the key at
rank 1, and it is not partitioned.

Each carrier's classes come by one of two routes, and this module alone
chooses, from the carrier's shape (`polymod.scan_shape`). On a carrier
(Z_p)^k + Z_m with gcd(p, m) = 1, elementary ones (m = 1) included and
cyclic ones of composite order excepted, Aut is GL_k(p) x Aut(Z_m) by the
product rule above, and the least-member scan (`polymod.least_members`)
finds the classes without listing Aut; any other carrier lists Aut and reads
`_conjugacy`. `conjugacy_representatives`, `lex_least_conjugate` and the
guard `_check_route_budget` follow that rule. `classify.cross_validate`
reads `_conjugacy` on purpose, to check the divisor chains against classes
found without them.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import namedtuple
from functools import cached_property, lru_cache
from operator import itemgetter, mod

from . import kernels
from .abelian import (
    AbelianGroup,
    Element,
    _Frozen,
    _addition_rows,
    _linear_indices,
    _prime_factorization,
    sylow_parts,
)
from .errors import EnumerationBudgetError, SpecError

ENUMERATION_BUDGET = 1 << 24


@lru_cache(maxsize=64)
def _frattini_suffixes(factors: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(p, start) for each prime p of the last factor, ascending: the factors
    from position start on are those that p divides."""
    if not factors:
        return ()
    return tuple(
        (p, next(j for j, d in enumerate(factors) if d % p == 0))
        for p in sorted(_prime_factorization(factors[-1]))
    )


def _invertible_mod(rows: list[tuple[int, ...]], p: int) -> bool:
    """Whether the square matrix `rows` is invertible over F_p.

    Gaussian elimination without division: row r becomes a*r - b*pivot for
    the pivot entry a, a unit mod p, which keeps the matrix invertible or
    singular. Overwrites the list `rows`.
    """
    k = len(rows)
    for c in range(k):
        for i in range(c, k):
            if rows[i][c] % p:
                break
        else:
            return False
        pivot = rows[i]
        rows[i] = rows[c]
        a = pivot[c]
        for r in range(c + 1, k):
            b = rows[r][c]
            if b % p:
                rows[r] = [(a * x - b * y) % p for x, y in zip(rows[r], pivot)]
    return True


class Endomorphism(_Frozen):
    """A linear self-map given by generator images."""

    group: AbelianGroup
    images: tuple[Element, ...]

    def __init__(self, group: AbelianGroup, images: tuple[Element, ...]) -> None:
        images = tuple(map(tuple, images))
        G = group
        factors = G.factors
        if len(images) != len(factors):
            raise ValueError(f"expected {G.rank} generator images for {G}, got {len(images)}")
        # one pass per image: each coordinate c mod f is reduced and killed by
        # d; the helpers run only to raise the error of a failing image
        for d, img in zip(factors, images):
            if len(img) != len(factors) or not all(
                0 <= c < f and d * c % f == 0 for c, f in zip(img, factors)
            ):
                G.check_element(img)
                raise ValueError(
                    f"image {img} of a generator of order {d} has order "
                    f"{G.element_order(img)}; the map is not well defined"
                )
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "images", images)

    @cached_property
    def perm(self) -> tuple[int, ...]:
        """The full map as element indices: perm[i] = index of f(element i)."""
        return tuple(_linear_indices(self.group, self.group, self.images))

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
        """Whether f is bijective, decided on G/pG for each prime p of |G|.

        f maps each Sylow part G_p into itself, and G_{p'} lies in pG, so f
        is bijective exactly when it is onto every G_p, which by Burnside's
        basis theorem holds exactly when it is onto G_p/pG_p = G/pG. The
        positions j with p | d_j are a suffix of the factors, and f acts on
        G/pG by the matrix of its images there, reduced mod p; no element
        beyond the generators' images is computed.

        >>> G = AbelianGroup((2, 6))
        >>> Endomorphism(G, ((1, 3), (0, 1))).is_automorphism()
        True
        >>> Endomorphism(G, ((1, 0), (0, 3))).is_automorphism()  # kills 2e_2
        False
        """
        images = self.images
        for p, start in _frattini_suffixes(self.group.factors):
            if not _invertible_mod([img[start:] for img in images[start:]], p):
                return False
        return True

    def spec(self) -> str:
        """Semicolon-separated generator images, e.g. "0,1;3,2"."""
        return ";".join(",".join(str(c) for c in img) for img in self.images)

    def __str__(self) -> str:
        return self.spec()


class Automorphism(Endomorphism):
    """A bijective endomorphism."""

    def __init__(self, group: AbelianGroup, images: tuple[Element, ...]) -> None:
        super().__init__(group, images)
        if not self.is_automorphism():
            raise ValueError(f"map {self.spec() or 'id'} on {self.group} is not bijective")

    @classmethod
    def _from_perm(cls, group: AbelianGroup, perm: kernels.Perm) -> Automorphism:
        # trusted fast path for kernel output: skips validation, seeds the
        # cached permutation, which is a tuple whatever the kernel's format
        images = tuple(group.element(perm[g]) for g in group.generator_indices)
        self = object.__new__(cls)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "images", images)
        self.__dict__["perm"] = tuple(perm)
        return self

    def invert(self) -> Automorphism:
        return Automorphism._from_perm(self.group, kernels.invert_perm(self.perm))

    def cycle_type(self) -> tuple[int, ...]:
        """Sorted cycle lengths of the permutation action; a conjugacy invariant.

        Computed once per instance and kept in its __dict__, like `perm`.
        """
        cached = self.__dict__.get("_cycle_type")
        if cached is not None:
            return cached
        cycle_type = self.__dict__["_cycle_type"] = kernels.cycle_type(self.perm)
        return cycle_type

    def order(self) -> int:
        return math.lcm(*self.cycle_type())


def identity_automorphism(G: AbelianGroup) -> Automorphism:
    return Automorphism(G, G.generators())


def parse_phi_spec(G: AbelianGroup, text: str) -> Automorphism:
    """Parse "0,1;3,2" as an automorphism of G. Coordinates are reduced."""
    text = text.strip()
    factors = G.factors
    rank = len(factors)
    if rank == 0:
        if text:
            raise SpecError(f"the trivial group takes an empty map spec, got {text!r}")
        return identity_automorphism(G)
    parts = text.split(";")
    if len(parts) != rank:
        raise SpecError(f"expected {rank} generator images for {G}, got {len(parts)}")
    images = []
    for part in parts:
        try:
            coords = tuple(map(int, part.split(",")))
        except ValueError:
            raise SpecError(f"bad generator image {part!r}") from None
        if len(coords) != rank:
            raise SpecError(f"image {part!r} has {len(coords)} coordinates, expected {rank}")
        images.append(tuple(map(mod, coords, factors)))
    try:
        return Automorphism(G, tuple(images))
    except ValueError as exc:
        raise SpecError(str(exc)) from None


def _check_table_budget(G: AbelianGroup) -> None:
    """Refuse a carrier whose addition table has over ENUMERATION_BUDGET entries."""
    n = G.order
    if n * n > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"the addition table of {G} has {n * n} entries, over the budget of "
            f"{ENUMERATION_BUDGET}"
        )


@lru_cache(maxsize=16)
def _group_tables(G: AbelianGroup) -> tuple[list[kernels.Perm], list[list[list[int]]]]:
    """(rows, candidates): the index tables of G, built once and read everywhere.

    rows[a][b] is the index of x_a + x_b, in the search's format
    (`kernels.search_rows`): up to 256 elements row a is a `bytes` translate
    table padded to 256, above that a tuple of ints. candidates lists per
    generator position i, for each img whose order divides d_i, ascending,
    its multiples c*img, c = 1..d_i-1. The table has n^2 entries, so the
    budget is checked before any element is listed.
    """
    _check_table_budget(G)
    n = G.order
    rows = kernels.search_rows(n, _addition_rows(G))
    orders = [G.element_order(x) for x in G.elements]
    candidates = []
    for d in G.factors:
        level = []
        for img in range(n):
            if d % orders[img] == 0:
                multiples = [img]
                for _ in range(2, d):
                    multiples.append(rows[multiples[-1]][img])
                level.append(multiples)
        candidates.append(level)
    return rows, candidates


def _candidate_count(G: AbelianGroup) -> int:
    """Number of candidate generator-image tuples the enumeration walks.

    Generator i may go to any element killed by d_i, and Z_{d_j} has
    gcd(d_i, d_j) of those, so the count is prod_i prod_j gcd(d_i, d_j).
    """
    return math.prod(math.gcd(di, dj) for di in G.factors for dj in G.factors)


def _check_budget(G: AbelianGroup) -> int:
    """G's candidate count; raises if it is over ENUMERATION_BUDGET."""
    count = _candidate_count(G)
    if count > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"enumerating automorphisms of {G} needs {count} candidate "
            f"image tuples, over the budget of {ENUMERATION_BUDGET}"
        )
    return count


def _check_route_budget(G: AbelianGroup) -> int:
    """The candidate count of G's route, once G passes its route's budget
    and then its addition table's; raises at the first it is over."""
    from . import polymod  # polymod imports this module

    shape = polymod.scan_shape(G)
    count = _check_budget(G) if shape is None else polymod._check_scan_budget(*shape)
    _check_table_budget(G)
    return count


def _automorphism_perms(G: AbelianGroup) -> tuple[kernels.Perm, ...]:
    """Aut(G) as permutations, in search order (ascending in the reversed key).

    Not cached: `_conjugacy` keeps the list of each prime-power carrier.
    """
    _check_budget(G)
    return tuple(kernels.enumerate_linear_bijections(G.order, G.factors, *_group_tables(G)))


# A Sylow part P of a carrier G, in G's positions offset..k-1: the p-part
# of an element x of G is x[offset:] reduced mod P's factors. perms is
# Aut(P), ascending in the reversed key, and class_ids the conjugacy class
# of each of perms.
_SylowPart = namedtuple("_SylowPart", "group offset perms class_ids")

# The conjugacy classes of Aut(G), read from the classes of its Sylow parts:
# reps is the least member of each class, sorted, and position maps one
# class id per part to the index in reps.
_Classes = namedtuple("_Classes", "parts reps position")


def _crt_tables(G: AbelianGroup, P: AbelianGroup) -> tuple[int, list[int]]:
    """(offset, embed) from the Sylow part P into G.

    P's factors q_j are the p-parts of G's factors d from position offset
    on. `embed` is a homomorphism on element indices: it sends P's e_j to
    u_j * e_{offset+j} for the idempotent u_j = 1 mod q_j, 0 mod d / q_j
    (Chinese remainder theorem). The p-part of an element x of G is read
    from its coordinates instead: x[offset:] reduced mod the q_j.
    """
    offset = G.rank - P.rank
    gens = G.generators()[offset:]
    units = [d // q * pow(d // q, -1, q) for d, q in zip(G.factors[offset:], P.factors)]
    embed = _linear_indices(P, G, [G.scalar_mul(u, e) for u, e in zip(units, gens)])
    return offset, embed


def _class_columns(part: _SylowPart, embed: list[int]) -> list[list[list[int]]]:
    """Each class of Aut(P) as one column per generator of G: the p-part
    that each member contributes to that generator's image.

    A member f_p gives generator offset + j of G the p-part embed[f_p(e_j)]
    and the generators below offset, whose orders p does not divide, 0.
    """
    members = [[] for _ in range(max(part.class_ids) + 1)]
    for perm, cid in zip(part.perms, part.class_ids):
        members[cid].append(perm)
    gens = part.group.generator_indices
    return [
        [[0] * len(perms)] * part.offset
        + [list(map(embed.__getitem__, map(itemgetter(g), perms))) for g in gens]
        for perms in members
    ]


@lru_cache(maxsize=32)
def _conjugacy(G: AbelianGroup) -> _Classes:
    """The conjugacy classes of Aut(G), composed from those of its Sylow parts.

    A p-group (or the trivial group) is its own single part: its Aut is
    enumerated and partitioned here, once, unless it is cyclic, and the
    partition's least members are the table. A carrier with several primes
    reads each part's partition from this cache and scans the products of
    their classes for the least members (see the module docstring). Both
    guards, on G's candidates and on its addition table, run before any
    part is touched.
    """
    _check_budget(G)
    sylow = sylow_parts(G)
    if len(sylow) < 2:
        perms = _automorphism_perms(G)
        if G.rank <= 1:
            # Aut of a cyclic group is abelian, so each map is its own class,
            # and search order is ascending in the key at rank 1
            class_ids = reps = range(len(perms))
        else:
            class_ids, reps = kernels.conjugacy_partition(perms, G.generator_indices)
        return _Classes(
            (_SylowPart(G, 0, perms, tuple(class_ids)),),
            tuple(Automorphism._from_perm(G, perms[i]) for i in reps),
            {(cid,): cid for cid in range(len(reps))},
        )
    rows, _ = _group_tables(G)
    parts, factor_classes = [], []
    for P in sylow:
        (own,) = _conjugacy(P).parts
        offset, embed = _crt_tables(G, P)
        part = _SylowPart(P, offset, own.perms, own.class_ids)
        parts.append(part)
        factor_classes.append(_class_columns(part, embed))
    ids = itertools.product(*(range(len(classes)) for classes in factor_classes))
    ranked = sorted(zip(kernels.least_keys_of_products(G.rank, rows, factor_classes), ids))
    elements = G.elements
    return _Classes(
        tuple(parts),
        tuple(Automorphism(G, tuple(elements[x] for x in key)) for key, _ in ranked),
        {cids: i for i, (_, cids) in enumerate(ranked)},
    )


def conjugacy_representatives(G: AbelianGroup) -> tuple[Automorphism, ...]:
    """One representative per conjugacy class of Aut(G).

    Each representative is the lexicographically least member of its class
    (by flattened image coordinates), and the output is sorted the same way.
    They come from the least-member scan on a carrier of its shape and from
    the listed classes on any other (see the module docstring).

    >>> [f.spec() for f in conjugacy_representatives(AbelianGroup((2, 2)))]
    ['0,1;1,0', '0,1;1,1', '1,0;0,1']
    """
    from . import polymod  # polymod imports this module

    shape = polymod.scan_shape(G)
    if shape is not None:
        return polymod.least_members(*shape)
    return _conjugacy(G).reps


def is_conjugate(G: AbelianGroup, f: Automorphism, g: Automorphism) -> Automorphism | None:
    """A witness h with f = h^-1 o g o h, or None.

    Equal maps are conjugate by the identity, returned without a search.
    Otherwise the cycle type short-circuits most negatives, and the kernel
    searches for a bijective linear h with h o f = g o h directly, without
    enumerating Aut(G).
    """
    if f.group != G or g.group != G:
        raise ValueError("both maps must act on the given group")
    if f.images == g.images:
        return identity_automorphism(G)
    if f.cycle_type() != g.cycle_type():
        return None
    found = kernels._linear_bijections(G.order, G.factors, *_group_tables(G), f.perm, g.perm)
    return Automorphism._from_perm(G, found[0]) if found else None


def lex_least_conjugate(G: AbelianGroup, f: Automorphism) -> Automorphism:
    """The lexicographically least member of f's conjugacy class.

    On a carrier (Z_p)^k + Z_m it is read from the least-member scan's
    table (`polymod.least_conjugate`), on any other from the cached classes
    (`_listed_least_conjugate`).
    """
    if f.group != G:
        raise ValueError("the map must act on the given group")
    from . import polymod  # polymod imports this module

    shape = polymod.scan_shape(G)
    if shape is not None:
        return polymod.least_conjugate(f, *shape)
    return _listed_least_conjugate(G, f)


def _listed_least_conjugate(G: AbelianGroup, f: Automorphism) -> Automorphism:
    """The least member of f's class, read from the classes of listed Aut.

    Each p-part of f is found by bisection in its part's automorphism list,
    which is ascending in the reversed key, and the parts' classes name f's
    class, whose least member is already known. A part holds G's last
    generator positions, so its reversed key is the head of G's. The key is
    read from f's generator images, each image's p-part from its
    coordinates, so neither f's full permutation nor a projection table is
    built.
    """
    table = _conjugacy(G)
    reversed_images = f.images[::-1]
    cids = []
    for P, offset, perms, class_ids in table.parts:
        gens = P.generator_indices[::-1]
        head = [tuple(map(mod, img[offset:], P.factors)) for img in reversed_images[: P.rank]]
        i = bisect.bisect_left(
            perms, tuple(map(P.index, head)), key=lambda p: tuple([p[g] for g in gens])
        )
        cids.append(class_ids[i])
    return table.reps[table.position[tuple(cids)]]
