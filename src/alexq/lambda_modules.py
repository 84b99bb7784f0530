"""Modules over the Laurent ring, i.e. (group, t-action) pairs.

A module here is a finite abelian group M together with an automorphism t;
the associated quandle operation is a |> b = t(a) + b - t(b). The central
computation is the image of 1 - t: two modules of equal order give
isomorphic quandles exactly when those images are isomorphic as modules,
so `image_one_minus_t` re-expresses the image as a standalone module and
`is_lambda_isomorphic` decides module isomorphism with a witness.

`canonical_label` names a module by structure: "0" for the zero module, a
direct sum of cyclic scalar actions when one exists (e.g. "Λ8/t-3"), the
polynomial divisor-chain name over elementary abelian carriers of any prime
(e.g. "(Λ2/t+1)^2⊕Λ2/t^2+1", "Λ3/t+1⊕Λ3/t^2+2t+1"), and otherwise a
carrier-plus-action fallback built from the least conjugate of t. Two
modules get equal labels if and only if they are isomorphic: classification
merges structures by the label of their image alone, so it relies on this.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .abelian import AbelianGroup, Element, subgroup_structure
from .autgroup import Automorphism, _group_tables, lex_least_conjugate
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


def _image_set(M: LambdaModule) -> set[Element]:
    G = M.group
    perm = M.t.perm
    return {G.sub(x, G.element(perm[i])) for i, x in enumerate(G.elements)}


def is_connected(M: LambdaModule) -> bool:
    """Whether x -> x - t(x) is bijective, i.e. the quandle has one orbit."""
    return len(_image_set(M)) == M.order


def image_one_minus_t(M: LambdaModule) -> LambdaModule:
    """The submodule {x - t(x)} as a standalone module.

    The image subgroup is rebuilt on its own invariant factors so that
    images arising inside different carriers become directly comparable;
    the action is the restriction of t rewritten in the subgroup basis.
    """
    G = M.group
    img = _image_set(M)
    S = subgroup_structure(G, img)
    coords = S.coordinates
    for x in S.elements:
        if M.t.apply(x) not in S.elements:
            raise ConsistencyError(f"t does not preserve Im(1-t) on {M.spec()}")
    carrier = S.as_group()
    images = tuple(coords[M.t.apply(b)] for b in S.basis)
    return LambdaModule(carrier, Automorphism(carrier, images))


def is_lambda_isomorphic(M: LambdaModule, M2: LambdaModule) -> Automorphism | None:
    """A group isomorphism h with h o t = t2 o h, or None.

    Only modules with equal invariant factors can be isomorphic, so a
    witness is representable as an automorphism of the shared carrier form.
    The search assigns images to the carrier generators from the last
    position upward (so partial maps cover a prefix of the element indices),
    pruning by element order, partial injectivity, and the commuting
    constraint as soon as both sides of it are determined.
    """
    if M.group != M2.group:
        return None
    if M.t.cycle_type() != M2.t.cycle_type():
        return None
    if len(_image_set(M)) != len(_image_set(M2)):
        return None

    G = M.group
    n = G.order
    k = G.rank
    if k == 0:
        return Automorphism(G, ())
    t1, t2 = M.t.perm, M2.t.perm
    elements = G.elements
    orders = [G.element_order(x) for x in elements]
    add, _ = _group_tables(G)
    candidates = [[i for i in range(n) if orders[i] == d] for d in G.factors]

    def extend(i: int, partial: list[int]) -> list[int] | None:
        d = G.factors[i]
        width = len(partial)
        for img in candidates[i]:
            new = list(partial)
            seen = bytearray(n)
            for x in partial:
                seen[x] = 1
            ok = True
            base = 0
            for _ in range(1, d):
                base = add[base * n + img]
                for x in range(width):
                    y = add[base * n + partial[x]]
                    if seen[y]:
                        ok = False
                        break
                    seen[y] = 1
                    new.append(y)
                if not ok:
                    break
            if not ok:
                continue
            span = len(new)
            # commuting constraint wherever both h(x) and h(t1(x)) exist
            for x in range(span):
                tx = t1[x]
                if tx < span and t2[new[x]] != new[tx]:
                    ok = False
                    break
            if not ok:
                continue
            if i == 0:
                return new
            result = extend(i - 1, new)
            if result is not None:
                return result
        return None

    full = extend(k - 1, [0])
    if full is None:
        return None
    return Automorphism._from_perm(G, tuple(full))


# --- canonical labels ---------------------------------------------------


def _primary_parts(factors: tuple[int, ...]) -> list[int]:
    """The prime-power cyclic orders of the group, sorted."""
    parts = []
    for d in factors:
        m = d
        p = 2
        while p * p <= m:
            if m % p == 0:
                q = 1
                while m % p == 0:
                    q *= p
                    m //= p
                parts.append(q)
            p += 1
        if m > 1:
            parts.append(m)
    return sorted(parts)


def _units(q: int) -> list[int]:
    if q == 1:
        return [0]
    return [a for a in range(q) if math.gcd(a, q) == 1]


def scalar_cyclic_module(pairs: tuple[tuple[int, int], ...]) -> LambdaModule:
    """The direct sum of cyclic modules with t acting as a scalar.

    pairs: a multiset of (prime power q, unit a mod q); the carrier is put
    into invariant-factor form by combining one q per prime into each factor
    (largest with largest) and the scalar on a combined factor is the
    simultaneous residue of its constituents.
    """
    by_prime: dict[int, list[tuple[int, int]]] = {}
    for q, a in pairs:
        p = _smallest_prime_factor(q)
        by_prime.setdefault(p, []).append((q, a))
    nslots = max(len(v) for v in by_prime.values())
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


def _smallest_prime_factor(q: int) -> int:
    p = 2
    while p * p <= q:
        if q % p == 0:
            return p
        p += 1
    return q


def _scalar_cyclic_match(M: LambdaModule) -> tuple[tuple[int, int], ...] | None:
    """The unique multiset of (prime power, scalar) summands of M, if any."""
    primary = _primary_parts(M.group.factors)
    seen = set()
    candidates = []
    for choice in itertools.product(*(_units(q) for q in primary)):
        pairs = tuple(sorted(zip(primary, choice)))
        if pairs not in seen:
            seen.add(pairs)
            candidates.append(pairs)
    for pairs in sorted(candidates):
        if is_lambda_isomorphic(M, scalar_cyclic_module(pairs)) is not None:
            return pairs
    return None


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


def poly_descending_name(coeffs: tuple[int, ...]) -> str:
    """Render coefficients (constant first) with highest power first."""
    terms = []
    for j in range(len(coeffs) - 1, -1, -1):
        c = coeffs[j]
        if c == 0:
            continue
        if j == 0:
            terms.append(str(c))
        else:
            prefix = "" if c == 1 else str(c)
            terms.append(f"{prefix}t" if j == 1 else f"{prefix}t^{j}")
    return "+".join(terms) if terms else "0"


def canonical_label(M: LambdaModule) -> str:
    """A name that is equal for two modules if and only if they are isomorphic."""
    if M.order == 1:
        return "0"
    pairs = _scalar_cyclic_match(M)
    if pairs is not None:
        names = sorted(cyclic_name(q, a) for q, a in pairs)
        return _grouped(names)
    factors = M.group.factors
    p = factors[0]
    if len(set(factors)) == 1 and _smallest_prime_factor(p) == p:
        # elementary abelian carrier: name by the divisor chain of the action
        from . import polymod

        for spec in polymod.enumerate_specs(p, M.group.rank):
            if is_lambda_isomorphic(M, polymod.build(spec)) is not None:
                names = [f"Λ{p}/{poly_descending_name(h.coeffs)}" for h in spec.chain]
                return _grouped(names)
        raise ConsistencyError(
            f"no polynomial divisor chain matches {M.spec()}; should be impossible"
        )
    least = lex_least_conjugate(M.group, M.t)
    return f"({M.group.spec()}; t={least.spec()})"


# --- module spec strings -------------------------------------------------


def parse_module_spec(text: str) -> LambdaModule:
    """Parse "L16/3" or "<group>|<phi>" (e.g. "4,4|0,1;3,2")."""
    text = text.strip()
    if text.upper().startswith("L"):
        from .linearq import LinearQuandleSpec, build_linear

        return build_linear(LinearQuandleSpec.from_shorthand(text))
    if "|" not in text:
        raise SpecError(
            f"bad module spec {text!r}: expected 'L<n>/<a>' or '<group>|<phi>'"
        )
    group_part, phi_part = text.split("|", 1)
    from .autgroup import parse_phi_spec

    try:
        G = AbelianGroup.from_spec(group_part)
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    return LambdaModule(G, parse_phi_spec(G, phi_part))
