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
carrier-plus-action fallback built from the least conjugate of t. The
scalar summands and the divisor chain are computed from the action, not
found by trial: each route derives its one candidate and confirms it with a
single `is_lambda_isomorphic` call. Two modules get equal labels if and
only if they are isomorphic: classification merges structures by the label
of their image alone, so it relies on this.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .abelian import (
    AbelianGroup,
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


@dataclass(frozen=True)
class LambdaModule:
    group: AbelianGroup
    t: Automorphism

    def __post_init__(self) -> None:
        if self.t.group != self.group:
            raise ValueError("t must be an automorphism of the carrier group")

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


def _eigen_counts(M: LambdaModule) -> Counter[tuple[int, int, int]]:
    """(p, g, rho) -> #{x of order p^g with t(x) = rho*x}, 0 < rho < p^g.

    Read off the last candidate level of `_group_tables`, which lists the
    multiples c*x, c = 1..d-1, of every x, where d is the exponent. Of those,
    c*x = 0 exactly when ord(x) divides c, which it does d/ord(x) - 1 times;
    t(x), never 0 for x != 0, lies in <x> exactly when it is in the list,
    first at c = rho.
    """
    d = M.group.factors[-1]
    perm = M.t.perm
    eigen: Counter[tuple[int, int, int]] = Counter()
    for x, multiples in enumerate(_group_tables(M.group)[1][-1]):
        if x and perm[x] in multiples:
            factorization = _prime_factorization(d // (multiples.count(0) + 1))
            if len(factorization) == 1:
                ((p, g),) = factorization.items()
                eigen[p, g, multiples.index(perm[x]) + 1] += 1
    return eigen


def _scalar_candidate(M: LambdaModule) -> tuple[tuple[int, int], ...] | None:
    """The summands M has if it is a sum of cyclic scalar modules, or None.

    Write N(q, r) = #{x : q*x = 0, t(x) = r*x} for a prime power q = p^f
    and a unit r mod q. If M is the sum of Z_{p^e_i} with t = a_i, then
    log_p N(p^f, r) - log_p N(p^(f-1), r) counts the summands with e_i >= f
    and a_i = r mod p^f, and subtracting the counts one level up leaves the
    summands with e_i = f exactly. Krull-Schmidt makes that multiset the
    only candidate; whether M really is such a sum is for the caller to
    confirm.
    """
    G = M.group
    eigen = _eigen_counts(M)
    pairs = []
    for p, top in sorted(_prime_factorization(G.factors[-1]).items()):
        # log_n[f][r] = log_p N(p^f, r); N is the order of a subgroup
        log_n = [
            {
                r: _prime_factorization(
                    1 + sum(eigen[p, g, r % p**g] for g in range(1, f + 1))
                ).get(p, 0)
                for r in range(p**f)
                if r % p
            }
            for f in range(top + 1)
        ]
        above: dict[int, int] = {}  # the counts of level f + 1, by residue
        for f in range(top, 0, -1):
            q = p**f
            carried: Counter[int] = Counter()  # the same counts, by residue mod q
            for r, c in above.items():
                carried[r % q] += c
            level = {
                r: log - log_n[f - 1].get(r % (q // p), 0) for r, log in log_n[f].items()
            }
            for r, c in level.items():
                exact = c - carried[r]
                if exact < 0:
                    return None
                pairs.extend([(q, r)] * exact)
            above = level
    pairs.sort()
    if [q for q, _ in pairs] != _primary_parts(G.factors):
        return None
    return tuple(pairs)


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


def canonical_label(M: LambdaModule) -> str:
    """A name that is equal for two modules if and only if they are isomorphic.

    The scalar-cyclic name comes first, then the divisor-chain name on an
    elementary abelian carrier, then the fallback. The first two are derived
    (`_scalar_candidate`, `polymod.divisor_chain`) and each is confirmed by
    one isomorphism witness against the module it names. One of each kind:

    >>> canonical_label(parse_module_spec("L16/3"))
    'Λ16/t-3'
    >>> canonical_label(parse_module_spec("2,2|0,1;1,1"))
    'Λ2/t^2+t+1'
    >>> canonical_label(parse_module_spec("4,4|0,1;3,2"))
    '(4,4; t=0,1;3,2)'
    """
    if M.order == 1:
        return "0"
    pairs = _scalar_candidate(M)
    if pairs is not None and is_lambda_isomorphic(M, scalar_cyclic_module(pairs)) is not None:
        return _grouped(sorted(cyclic_name(q, a) for q, a in pairs))
    p = _elementary_prime(M.group)
    if p is not None:
        # elementary abelian carrier: name by the divisor chain of the action
        from . import polymod

        spec = polymod.divisor_chain(M)
        if is_lambda_isomorphic(M, polymod.build(spec)) is None:
            raise ConsistencyError(
                f"the divisor chain {spec} does not match {M.spec()}; should be impossible"
            )
        names = [f"Λ{p}/{poly_descending_name(h.coeffs)}" for h in spec.chain]
        return _grouped(names)
    least = lex_least_conjugate(M.group, M.t)
    return f"({M.group.spec()}; t={least.spec()})"


# --- module spec strings -------------------------------------------------


def parse_module_spec(text: str) -> LambdaModule:
    """Parse "L16/3" or "<group>|<phi>" (e.g. "4,4|0,1;3,2").

    A carrier over the addition-table budget is refused before a map is built.
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
    _check_table_budget(G)
    return LambdaModule(G, parse_phi_spec(G, phi_part))
