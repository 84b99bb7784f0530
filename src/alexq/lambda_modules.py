"""Modules over the Laurent ring, i.e. (group, t-action) pairs.

A module here is a finite abelian group M together with an automorphism t;
the associated quandle operation is a |> b = t(a) + b - t(b). The central
computation is the image of 1 - t: two modules of equal order give
isomorphic quandles exactly when those images are isomorphic as modules,
so `image_one_minus_t` re-expresses the image as a standalone module and
`is_lambda_isomorphic` decides module isomorphism with a witness. Modules
on one carrier are isomorphic exactly when their actions are conjugate in
its Aut, so that test is `autgroup.is_conjugate`, whose kernel searches
for the witness directly. The image is computed on element indices and the
carrier's addition table; only the finished module is validated.

`canonical_label` names a module by structure: "0" for the zero module, a
direct sum of cyclic scalar actions when one exists (e.g. "Λ8/t-3"), the
polynomial divisor-chain name over elementary abelian carriers of any prime
(e.g. "(Λ2/t+1)^2⊕Λ2/t^2+1", "Λ3/t+1⊕Λ3/t^2+2t+1"), and otherwise a
carrier-plus-action fallback built from the least conjugate of t. Names
are computed from the action, not found by trial: a cyclic carrier's
scalar summands are read from the unit t is and an elementary carrier's
from its divisor chain, and each of these two routes confirms its one
candidate with a single `is_lambda_isomorphic` call run from the named
module. Any other carrier's module is named by the least conjugate of t,
a complete invariant: it is looked up among the least conjugates of the
carrier's diagonal scalar maps, and a module that is no scalar sum keeps
it as its fallback name. Two modules get equal labels if and only if they
are isomorphic: classification merges structures by the label of their
image alone, so it relies on this.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .abelian import (
    AbelianGroup,
    Element,
    _Frozen,
    _elementary_prime,
    _invariant_decomposition,
    _linear_indices,
    _prime_factorization,
    normalize_cyclic_orders,
)
from .autgroup import (
    Automorphism,
    _check_table_budget,
    _group_tables,
    is_conjugate,
    lex_least_conjugate,
    parse_phi_spec,
)
from .errors import ConsistencyError, SpecError


class LambdaModule(_Frozen):
    group: AbelianGroup
    t: Automorphism

    def __init__(self, group: AbelianGroup, t: Automorphism) -> None:
        if t.group != group:
            raise ValueError("t must be an automorphism of the carrier group")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "t", t)

    @property
    def order(self) -> int:
        return self.group.order

    def spec(self) -> str:
        """CLI form "<group>|<phi>", e.g. "4,4|0,1;3,2"."""
        return f"{self.group.spec()}|{self.t.spec()}"

    def __str__(self) -> str:
        return self.spec()


def _one_minus_t_indices(M: LambdaModule) -> list[int]:
    """The index of x - t(x) for each element index x."""
    # e_j - t(e_j), left unreduced
    images = [tuple(int(i == j) - a for i, a in enumerate(img)) for j, img in enumerate(M.t.images)]
    return _linear_indices(M.group, M.group, images)


def _image_indices(M: LambdaModule) -> set[int]:
    """Im(1 - t) as a set of element indices."""
    return set(_one_minus_t_indices(M))


def is_connected(M: LambdaModule) -> bool:
    """Whether x -> x - t(x) is bijective, i.e. the quandle has one orbit."""
    return len(_image_indices(M)) == M.order


def image_one_minus_t(M: LambdaModule) -> LambdaModule:
    """The submodule {x - t(x)} as a standalone module.

    The image subgroup is rebuilt on its own invariant factors so that
    images arising inside different carriers become directly comparable;
    the action is the restriction of t rewritten in the subgroup basis.
    The decomposition runs on element indices with the carrier's addition
    table; index order is lexicographic coordinate order, so the basis is
    the one the test reference (`tests/helpers.reference_decomposition`)
    picks on coordinate tuples. The span is the map from the image carrier
    to G that sends its generators to the basis. A connected image is M
    itself, on the standard generators, and is returned as it is.
    """
    img = _image_indices(M)
    if len(img) == M.order:
        return M
    G = M.group
    rows, _ = _group_tables(G)
    perm = M.t.perm
    if any(perm[x] not in img for x in img):
        raise ConsistencyError(f"t does not preserve Im(1-t) on {M.spec()}")
    factors, basis = _invariant_decomposition(img, rows)
    carrier = AbelianGroup(factors)
    span = _linear_indices(carrier, G, [G.element(b) for b in basis])
    position = {x: i for i, x in enumerate(span)}
    if len(position) != len(img):
        raise ConsistencyError(f"the image basis of {M.spec()} is not a basis")
    images = tuple(carrier.element(position[perm[b]]) for b in basis)
    return LambdaModule(carrier, Automorphism(carrier, images))


def is_lambda_isomorphic(M: LambdaModule, M2: LambdaModule) -> Automorphism | None:
    """A group isomorphism h with h o t = t2 o h, or None.

    Only modules with equal invariant factors can be isomorphic, so a
    witness is an automorphism of the shared carrier and the question is
    whether t and t2 are conjugate in its Aut. No image-size prefilter is
    needed: |Im(1 - t)| = |M| / #{x : t(x) = x}, and the fixed points are
    the 1-cycles of the cycle type that `is_conjugate` compares first.
    """
    if M.group != M2.group:
        return None
    return is_conjugate(M.group, M.t, M2.t)


# --- canonical labels ---------------------------------------------------


def _primary_parts(factors: tuple[int, ...]) -> list[int]:
    """The prime-power cyclic orders of the group, sorted."""
    return sorted(p**e for d in factors for p, e in _prime_factorization(d).items())


def scalar_cyclic_module(pairs: tuple[tuple[int, int], ...]) -> LambdaModule:
    """The direct sum of cyclic modules with t acting as a scalar.

    pairs: a multiset of (prime power q, unit a mod q); the carrier is put
    into invariant-factor form by combining one q per prime into each factor
    (largest with largest) and the scalar on a combined factor is the
    simultaneous residue of its constituents. No pairs give the zero module.
    """
    by_prime: dict[int, list[tuple[int, int]]] = {}
    for q, a in pairs:
        factorization = _prime_factorization(q)
        if len(factorization) != 1:
            raise ValueError(f"summand orders must be prime powers, got {q}")
        by_prime.setdefault(min(factorization), []).append((q, a))
    nslots = max((len(v) for v in by_prime.values()), default=0)
    slots: list[list[tuple[int, int]]] = [[] for _ in range(nslots)]
    for p in sorted(by_prime):
        entries = sorted(by_prime[p], reverse=True)  # largest q first
        for j, qa in enumerate(entries):
            slots[nslots - 1 - j].append(qa)
    factors = tuple(math.prod(q for q, _ in slot) for slot in slots)
    G = AbelianGroup(factors)
    images = []
    for idx, slot in enumerate(slots):
        d = factors[idx]
        c = next(c for c in range(d) if all(c % q == a for q, a in slot))
        images.append(G.scalar_mul(c, G.generators()[idx]))
    return LambdaModule(G, Automorphism(G, tuple(images)))


def cyclic_name(q: int, a: int) -> str:
    """Name of the cyclic module with t acting as the scalar a mod q.

    Small moduli are written in plus form ("Λ4/t+3" for the scalar 1,
    "Λ2/t+1"), larger ones in minus form ("Λ8/t-3"); this matches the
    naming the text reports use.
    """
    if q <= 4:
        return f"Λ{q}/t+{(q - a) % q}"
    return f"Λ{q}/t-{a}"


def _grouped(names: list[str]) -> str:
    parts = []
    for name, run in itertools.groupby(names):
        count = len(list(run))
        parts.append(name if count == 1 else f"({name})^{count}")
    return "⊕".join(parts)


def _poly_terms(coeffs: tuple[int, ...]) -> list[str]:
    """The nonzero terms of coefficients (constant first), lowest power first.

    The one term grammar: `poly_descending_name` and `polymod.Poly.__str__`
    join these terms in opposite orders, and both write "0" for none.
    """
    terms = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        if j == 0:
            terms.append(str(c))
        else:
            prefix = "" if c == 1 else str(c)
            terms.append(f"{prefix}t" if j == 1 else f"{prefix}t^{j}")
    return terms


def poly_descending_name(coeffs: tuple[int, ...]) -> str:
    """Render coefficients (constant first) with highest power first."""
    return "+".join(reversed(_poly_terms(coeffs))) or "0"


def _scalar_name(pairs: tuple[tuple[int, int], ...]) -> str:
    return _grouped(sorted(cyclic_name(q, a) for q, a in pairs))


def _confirm(named: LambdaModule, M: LambdaModule) -> None:
    """Raise unless the module a name was derived for is isomorphic to M."""
    if is_lambda_isomorphic(named, M) is None:
        raise ConsistencyError(f"{named.spec()} does not match {M.spec()}; should be impossible")


@lru_cache(maxsize=32)
def _scalar_classes(G: AbelianGroup) -> dict[tuple[Element, ...], tuple[tuple[int, int], ...]]:
    """The least conjugate of each sum of cyclic scalar modules on G, by its
    images -> the sum's summands, sorted.

    Every such sum on G is conjugate to a diagonal map diag(c_1, ..., c_r),
    c_i a unit mod d_i (`scalar_cyclic_module` builds one), whose summands
    are (q, c_i mod q) over the primary parts q of d_i. The least conjugate
    is a complete invariant of its class, and by Krull-Schmidt two
    multisets of summands never share a class. Cached per carrier, as
    `autgroup._conjugacy` is.

    >>> sorted(_scalar_classes(AbelianGroup((4, 4))).values())
    [((4, 1), (4, 1)), ((4, 1), (4, 3)), ((4, 3), (4, 3))]
    """
    units = [[c for c in range(d) if math.gcd(c, d) == 1] for d in G.factors]
    parts = [_primary_parts((d,)) for d in G.factors]
    classes: dict[tuple[Element, ...], tuple[tuple[int, int], ...]] = {}
    for cs in itertools.product(*units):
        pairs = tuple(sorted((q, c % q) for c, qs in zip(cs, parts) for q in qs))
        diagonal = Automorphism(G, tuple(map(G.scalar_mul, cs, G.generators())))
        least = lex_least_conjugate(G, diagonal)
        if classes.setdefault(least.images, pairs) != pairs:
            raise ConsistencyError(
                f"{_scalar_name(pairs)} and {_scalar_name(classes[least.images])} share "
                f"the least conjugate {least.spec()} on {G.spec()}; should be impossible"
            )
    return classes


def canonical_label(M: LambdaModule) -> str:
    """A name that is equal for two modules if and only if they are isomorphic.

    The routes, in order: "0" for the zero module; on a cyclic carrier Z_n,
    where t is a unit a, the scalar summands (q, a mod q) over the primary
    parts q of n; on an elementary carrier (Z_p)^k, the divisor chain
    (`polymod.divisor_chain`), read as the scalar summands (p, λ) over the
    roots λ of each factor when the last factor has as many distinct roots
    as its degree (t is diagonalisable), else as the chain. These two names
    are confirmed by one isomorphism witness run from the module they name,
    whose generators are eigenvectors or companion-block vectors, so the
    kernel's commuting checks fix each generator's image as soon as it is
    placed. On any other carrier the name is found from the least conjugate
    of t, a complete invariant, with no witness: the summands of the scalar
    sum with that least conjugate (`_scalar_classes`), else the fallback
    "(carrier; t=least conjugate)". The least conjugate need not be
    diagonal: on 9,9 that of the scalar sum diag(1, 8) is 0,1;1,0. One of
    each kind:

    >>> canonical_label(parse_module_spec("L16/3"))
    'Λ16/t-3'
    >>> canonical_label(parse_module_spec("L12/5"))
    'Λ3/t+1⊕Λ4/t+3'
    >>> canonical_label(parse_module_spec("2,2|0,1;1,1"))
    'Λ2/t^2+t+1'
    >>> canonical_label(parse_module_spec("2,4|1,0;0,3"))
    'Λ2/t+1⊕Λ4/t+1'
    >>> canonical_label(parse_module_spec("9,9|0,1;1,0"))
    'Λ9/t-1⊕Λ9/t-8'
    >>> canonical_label(parse_module_spec("4,4|0,1;3,2"))
    '(4,4; t=0,1;3,2)'
    """
    if M.order == 1:
        return "0"
    factors = M.group.factors
    p = _elementary_prime(M.group)
    if len(factors) == 1:
        # t is the unit a = t(1), which acts as a mod q on each primary part q
        a = M.t.images[0][0]
        pairs = tuple((q, a % q) for q in _primary_parts(factors))
    elif p is not None:
        from . import polymod  # polymod imports this module

        spec = polymod.divisor_chain(M)
        last = spec.chain[-1]
        if len(polymod._roots(last)) < last.degree:
            _confirm(polymod.build(spec), M)
            return _grouped([f"Λ{p}/{poly_descending_name(h.coeffs)}" for h in spec.chain])
        pairs = tuple(sorted((p, lam) for h in spec.chain for lam in polymod._roots(h)))
    else:
        least = lex_least_conjugate(M.group, M.t)
        pairs = _scalar_classes(M.group).get(least.images)
        if pairs is None:
            return f"({M.group.spec()}; t={least.spec()})"
        return _scalar_name(pairs)
    _confirm(scalar_cyclic_module(pairs), M)
    return _scalar_name(pairs)


# --- module spec strings -------------------------------------------------


def parse_module_spec(text: str) -> LambdaModule:
    """Parse "L16/3" or "<group>|<phi>" (e.g. "4,4|0,1;3,2").

    The group part must be the invariant-factor chain that `spec` writes
    ("1" for the trivial group), since phi's coordinates refer to that
    chain; any other list is refused, not reordered. A carrier over the
    addition-table budget is refused before a map is built.
    """
    text = text.strip()
    if text.upper().startswith("L"):
        from .linearq import LinearQuandleSpec, build_linear

        spec = LinearQuandleSpec.from_shorthand(text)
        _check_table_budget(AbelianGroup(normalize_cyclic_orders((spec.n,))))
        return build_linear(spec)
    if "|" not in text:
        raise SpecError(
            f"bad module spec {text!r}: expected 'L<n>/<a>' or '<group>|<phi>'"
        )
    group_part, phi_part = text.split("|", 1)
    try:
        G = AbelianGroup.from_spec(group_part)
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    if [int(p) for p in group_part.split(",")] != (list(G.factors) or [1]):
        raise SpecError(
            f"bad module spec {text!r}: the group part must be the invariant-factor "
            f"chain {G.spec()}, in whose coordinates the map is written"
        )
    _check_table_budget(G)
    return LambdaModule(G, parse_phi_spec(G, phi_part))
