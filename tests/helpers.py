"""Helpers shared by the test modules."""

import itertools
from dataclasses import dataclass
from functools import cached_property

from alexq.abelian import AbelianGroup, Element, _invariant_decomposition
from alexq.lambda_modules import LambdaModule, _image_indices


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


def subgroup_structure(G: AbelianGroup, generators) -> SubgroupStructure:
    """Close `generators` under the group operations and recover structure.

    The checked, element-tuple route that `image_one_minus_t` must agree
    with.
    """
    elems = _closure(G, generators)
    factors, basis = _invariant_decomposition(elems, G.add, G.zero)
    return SubgroupStructure(group=G, elements=elems, factors=factors, basis=basis)
