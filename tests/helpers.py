"""Helpers shared by the test modules."""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from alexq.abelian import AbelianGroup, Element
from alexq.autgroup import Automorphism, _automorphism_perms, _conjugacy, _group_tables
from alexq.lambda_modules import LambdaModule, _image_indices, _scalar_classes
from alexq.polymod import _scan
from alexq.quandle import CayleyTable


def image_set(M: LambdaModule) -> set[Element]:
    """Im(1 - t) as a set of coordinate tuples."""
    elements = M.group.elements
    return {elements[i] for i in _image_indices(M)}


@dataclass(frozen=True)
class SubgroupStructure:
    """A subgroup of an ambient group with its own invariant-factor data.

    `basis` realizes `factors`: the map (a_1, ..., a_m) -> sum a_j * basis_j
    is a bijection from the abstract group with those invariant factors onto
    `elements`.
    """

    group: AbelianGroup
    elements: frozenset[Element]
    factors: tuple[int, ...]
    basis: tuple[Element, ...]

    def as_group(self) -> AbelianGroup:
        return AbelianGroup(self.factors)

    @cached_property
    def coordinates(self) -> dict[Element, Element]:
        """Map each subgroup element to its coordinates in `basis`."""
        G = self.group
        coords: dict[Element, Element] = {}
        for combo in itertools.product(*(range(d) for d in self.factors)):
            x = G.zero
            for a, b in zip(combo, self.basis):
                x = G.add(x, G.scalar_mul(a, b))
            coords[x] = combo
        if len(coords) != len(self.elements):
            raise RuntimeError("basis does not enumerate the subgroup bijectively")
        return coords


def _closure(G: AbelianGroup, generators) -> frozenset[Element]:
    elems = {G.zero}
    gens = list(generators)
    for g in gens:
        G.check_element(g)
    frontier = [G.zero]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = G.add(x, g)
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return frozenset(elems)


def reference_decomposition(elems, add, zero):
    """Greedy invariant-factor decomposition of an explicit abelian group.

    The recursive route over an `add` callable that
    `abelian._invariant_decomposition` must agree with. Picks an element of
    maximal order (lexicographically least on ties), splits it off, recurses
    on the quotient by the cyclic group it spans, and lifts the quotient
    basis back to representatives of the right order. Returns (factors
    ascending, basis), the basis aligned with the factors.
    """
    if len(elems) == 1:
        return (), ()

    def order_of(x):
        m, y = 1, x
        while y != zero:
            y = add(y, x)
            m += 1
        return m

    orders = {x: order_of(x) for x in elems}
    m = max(orders.values())
    b = min(x for x in elems if orders[x] == m)

    cyclic = [zero]
    y = b
    for _ in range(m - 1):
        cyclic.append(y)
        y = add(y, b)

    def rep(x):
        return min(add(x, c) for c in cyclic)

    quotient = {rep(x) for x in elems}
    qadd = lambda x, y: rep(add(x, y))
    qfactors, qbasis = reference_decomposition(quotient, qadd, zero)

    basis = []
    for c, q in zip(qbasis, qfactors):
        # q*c lands in <b>; adjust c by a multiple of b so its order drops to q
        qc = zero
        for _ in range(q):
            qc = add(qc, c)
        u = cyclic.index(qc)
        s = (-(u // q)) % (m // q)
        adjusted = c
        for _ in range(s):
            adjusted = add(adjusted, b)
        basis.append(adjusted)

    return qfactors + (m,), tuple(basis) + (b,)


def subgroup_structure(G: AbelianGroup, generators) -> SubgroupStructure:
    """Close `generators` under the group operations and recover structure.

    The checked, element-tuple route that `image_one_minus_t` must agree
    with.
    """
    elems = _closure(G, generators)
    factors, basis = reference_decomposition(elems, G.add, G.zero)
    return SubgroupStructure(group=G, elements=elems, factors=factors, basis=basis)


def enumerate_automorphisms(G: AbelianGroup) -> tuple[Automorphism, ...]:
    """Every automorphism of G, ordered by flattened image coordinates.

    The search lists Aut in its own order (ascending in the reversed key);
    this sorts it by the key, as the public function that it replaced did.
    """
    gens = G.generator_indices
    perms = sorted(_automorphism_perms(G), key=lambda p: [p[g] for g in gens])
    return tuple(Automorphism._from_perm(G, p) for p in perms)


def clear_carrier_caches() -> None:
    """Empty every per-carrier cache: `autgroup`'s tables and classes,
    `polymod`'s least-member scans and `lambda_modules`' scalar classes."""
    _group_tables.cache_clear()
    _conjugacy.cache_clear()
    _scan.cache_clear()
    _scalar_classes.cache_clear()


def conjugacy_class_sizes(G: AbelianGroup) -> tuple[int, ...]:
    """Class sizes aligned with conjugacy_representatives; they sum to |Aut|.

    A class is a product of one class per Sylow part, so its size is the
    product of how often each of its part class ids occurs in that part.
    """
    table = _conjugacy(G)
    counts = [Counter(part.class_ids) for part in table.parts]
    sizes = [0] * len(table.reps)
    for cids, i in table.position.items():
        sizes[i] = math.prod(count[cid] for count, cid in zip(counts, cids))
    return tuple(sizes)


def reference_isomorphic(Q1: CayleyTable, Q2: CayleyTable) -> tuple[int, ...] | None:
    """The oracle's search with the all-pairs closure: what it must agree with.

    Same candidates and search order as `brute_force_isomorphic`, but every
    new assignment f(x) = y is checked against every mapped z, in both
    orders, so no quandle axiom is relied on for the closure.
    """
    n = Q1.n
    if n != Q2.n:
        return None
    fp1, fp2 = Q1._fingerprints, Q2._fingerprints
    if sorted(fp1) != sorted(fp2):
        return None
    by_fp: dict[tuple, set[int]] = {}
    for b, fp in enumerate(fp2):
        by_fp.setdefault(fp, set()).add(b)
    candidates = [by_fp[fp] for fp in fp1]
    t1, t2 = Q1.table, Q2.table

    def propagate(fwd: dict[int, int], rev: dict[int, int], a: int, b: int) -> bool:
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            if x in fwd:
                if fwd[x] != y:
                    return False
                continue
            if y in rev or y not in candidates[x]:
                return False
            fwd[x] = y
            rev[y] = x
            for z in list(fwd):
                queue.append((t1[x][z], t2[y][fwd[z]]))
                queue.append((t1[z][x], t2[fwd[z]][y]))
        return True

    def search(fwd: dict[int, int], rev: dict[int, int]) -> dict[int, int] | None:
        if len(fwd) == n:
            return fwd
        best = min(
            (a for a in range(n) if a not in fwd),
            key=lambda a: (len(candidates[a] - rev.keys()), a),
        )
        for b in sorted(candidates[best] - rev.keys()):
            fwd2, rev2 = dict(fwd), dict(rev)
            if propagate(fwd2, rev2, best, b):
                result = search(fwd2, rev2)
                if result is not None:
                    return result
        return None

    solution = search({}, {})
    if solution is None:
        return None
    f = tuple(solution[a] for a in range(n))
    assert all(f[t1[a][b]] == t2[f[a]][f[b]] for a in range(n) for b in range(n))
    return f
