import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alexq.abelian import (
    AbelianGroup,
    ShapeError,
    _elementary_prime,
    _linear_indices,
    enumerate_groups,
    normalize_cyclic_orders,
)
from alexq.autgroup import Automorphism, Endomorphism, conjugacy_representatives
from alexq.classify import ClassificationReport, CrossValidation, QuandleClass
from alexq.lambda_modules import LambdaModule
from alexq.linearq import LinearQuandleSpec
from alexq.polymod import Poly, PolySpec
from alexq.quandle import AxiomVerdict, CayleyTable

from helpers import subgroup_structure


def partition_count(n: int) -> int:
    """Independent partition-function oracle (Euler recurrence by DP)."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def prime_exponents(n: int) -> list[int]:
    exps = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            exps.append(e)
        p += 1
    if n > 1:
        exps.append(1)
    return exps


class TestEnumerateGroups:
    def test_order_16(self):
        assert [g.factors for g in enumerate_groups(16)] == [
            (16,),
            (2, 8),
            (4, 4),
            (2, 2, 4),
            (2, 2, 2, 2),
        ]

    def test_trivial(self):
        assert [g.factors for g in enumerate_groups(1)] == [()]

    def test_order_12(self):
        assert [g.factors for g in enumerate_groups(12)] == [(12,), (2, 6)]

    def test_counts_match_partition_functions_up_to_64(self):
        for n in range(1, 65):
            expected = math.prod(partition_count(e) for e in prime_exponents(n))
            groups = enumerate_groups(n)
            assert len(groups) == expected, n
            # pairwise non-isomorphic: distinct invariant factors
            assert len({g.factors for g in groups}) == len(groups)
            for g in groups:
                assert g.order == n

    def test_elementary_prime(self):
        # (Z_p)^k gives p; every other carrier, the trivial group included, gives None
        elementary = {
            G.factors: _elementary_prime(G)
            for n in range(1, 65)
            for G in enumerate_groups(n)
            if _elementary_prime(G) is not None
        }
        primes = [p for p in range(2, 65) if all(p % q for q in range(2, p))]
        assert elementary == {(p,) * k: p for p in primes for k in range(1, 7) if p**k <= 64}


class TestArithmetic:
    def test_addition_example(self):
        G = AbelianGroup((4, 4))
        assert G.add((3, 2), (2, 3)) == (1, 1)

    def test_inverse_law_exhaustive(self):
        for factors in [(), (5,), (2, 4), (2, 2, 2)]:
            G = AbelianGroup(factors)
            for x in G.elements:
                assert G.add(x, G.neg(x)) == G.zero

    def test_scalar_mul_wraps(self):
        G = AbelianGroup((4, 4))
        assert G.scalar_mul(5, (1, 0)) == (1, 0)

    def test_element_order(self):
        G = AbelianGroup((16,))
        assert G.element_order((2,)) == 8
        assert G.element_order((0,)) == 1

    def test_shape_errors(self):
        G = AbelianGroup((4, 4))
        with pytest.raises(ShapeError):
            G.add((1, 2, 3), (0, 0))
        with pytest.raises(ShapeError):
            G.neg((5, 0))

    def test_indexing_roundtrip(self):
        G = AbelianGroup((2, 4))
        for i, x in enumerate(G.elements):
            assert G.index(x) == i
            assert G.element(i) == x


class TestGroupSpec:
    def test_roundtrip(self):
        for text, factors in [("1", ()), ("16", (16,)), ("4,4", (4, 4))]:
            G = AbelianGroup.from_spec(text)
            assert G.factors == factors
            assert G.spec() == text

    def test_normalizes_primary_forms(self):
        assert AbelianGroup.from_spec("8,2").factors == (2, 8)
        assert AbelianGroup.from_spec("6,4").factors == (2, 12)

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            AbelianGroup.from_spec("4,x")
        with pytest.raises(ValueError):
            AbelianGroup.from_spec("0")

    def test_chain_specs_parse_to_the_normalized_factors(self):
        # an invariant-factor chain is taken as it is, any other list is
        # normalized; both give what normalize_cyclic_orders gives
        texts = [G.spec() for n in range(1, 65) for G in enumerate_groups(n)]
        for text in texts + ["8,2", "6,4", "1", "1,1"]:
            orders = [int(m) for m in text.split(",")]
            assert AbelianGroup.from_spec(text).factors == normalize_cyclic_orders(orders), text

    def test_invalid_chain_rejected(self):
        with pytest.raises(ValueError):
            AbelianGroup((3, 4))
        with pytest.raises(ValueError):
            AbelianGroup((1, 2))


def test_normalize_cyclic_orders():
    assert normalize_cyclic_orders([8, 2]) == (2, 8)
    assert normalize_cyclic_orders([2, 3]) == (6,)
    assert normalize_cyclic_orders([1, 1]) == ()
    assert normalize_cyclic_orders([12, 60]) == (12, 60)


class TestSubgroupStructure:
    def test_cyclic_image(self):
        G = AbelianGroup((16,))
        S = subgroup_structure(G, [(2,)])
        assert S.elements == frozenset((i,) for i in range(0, 16, 2))
        assert S.factors == (8,)
        # |<2>| = 16/gcd(16,2), checked without the closure machinery
        assert len(S.elements) == 16 // math.gcd(16, 2)

    def test_empty_generators(self):
        G = AbelianGroup((4, 4))
        S = subgroup_structure(G, [])
        assert S.elements == frozenset({(0, 0)})
        assert S.factors == ()

    def test_two_by_two(self):
        G = AbelianGroup((4, 4))
        S = subgroup_structure(G, [(2, 0), (0, 2)])
        assert len(S.elements) == 4
        assert S.factors == (2, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_structure_invariants(self, data):
        factors = data.draw(
            st.sampled_from([(4,), (8,), (2, 4), (2, 2, 2), (3, 3), (2, 8), (12,)])
        )
        G = AbelianGroup(factors)
        gens = data.draw(
            st.lists(st.sampled_from(G.elements), max_size=3)
        )
        S = subgroup_structure(G, gens)
        # closure under add and neg
        for x in S.elements:
            assert G.neg(x) in S.elements
            for y in S.elements:
                assert G.add(x, y) in S.elements
        # Lagrange and factor product
        assert G.order % len(S.elements) == 0
        assert math.prod(S.factors) == len(S.elements)
        # basis realizes the factors bijectively
        combos = set()
        for combo in itertools.product(*(range(d) for d in S.factors)):
            x = G.zero
            for a, b in zip(combo, S.basis):
                x = G.add(x, G.scalar_mul(a, b))
            combos.add(x)
        assert combos == S.elements
        # declared basis orders match the factors
        for d, b in zip(S.factors, S.basis):
            assert G.element_order(b) == d


def _checked_linear_indices(source, target, images):
    """The index of sum_j c_j * images[j] for each element c of source,
    through the checked group operations of target."""
    images = [tuple(c % d for c, d in zip(img, target.factors)) for img in images]
    out = []
    for x in source.elements:
        y = target.zero
        for c, img in zip(x, images):
            y = target.add(y, target.scalar_mul(c, img))
        out.append(target.index(y))
    return out


class TestIndexArithmetic:
    @pytest.mark.parametrize("order", [16, 27, 48])
    def test_linear_indices_from_each_image_carrier(self, order):
        # the image of 1 - t of every class representative, as a map from
        # its own carrier into G that sends the generators to its basis
        seen = set()
        for G in enumerate_groups(order):
            for t in conjugacy_representatives(G):
                S = subgroup_structure(G, [G.sub(e, t.apply(e)) for e in G.generators()])
                if (G, S.basis) in seen:
                    continue
                seen.add((G, S.basis))
                H = S.as_group()
                expected = _checked_linear_indices(H, G, S.basis)
                assert _linear_indices(H, G, S.basis) == expected, (G, S.basis)
        assert len(seen) > 1

    @pytest.mark.parametrize(
        "source, target, images",
        [
            ((), (2, 4), ()),
            ((6,), (), ((),)),
            ((2, 4), (4,), ((2,), (1,))),
            ((4,), (2, 2, 4), ((1, 0, 2),)),
            ((3, 9), (9,), ((3,), (7,))),
            ((2, 4), (2, 4), ((0, -2), (-1, -1))),  # unreduced images, as for 1 - t
        ],
    )
    def test_linear_indices_between_carriers(self, source, target, images):
        S, T = AbelianGroup(source), AbelianGroup(target)
        assert _linear_indices(S, T, images) == _checked_linear_indices(S, T, images)


Z2 = AbelianGroup((2,))
ONE = Automorphism(Z2, ((1,),))
ONE_REPR = "Automorphism(group=AbelianGroup(factors=(2,)), images=((1,),))"
MODULE_REPR = f"LambdaModule(group=AbelianGroup(factors=(2,)), t={ONE_REPR})"


class TestValueTypes:
    """The value types behave as frozen dataclasses did: repr, equality,
    hash and immutability, with cached properties still filling."""

    @pytest.mark.parametrize(
        "make, text, field",
        [
            (lambda: AbelianGroup((2, 4)), "AbelianGroup(factors=(2, 4))", "factors"),
            (
                lambda: Endomorphism(Z2, ((0,),)),
                "Endomorphism(group=AbelianGroup(factors=(2,)), images=((0,),))",
                "images",
            ),
            (lambda: Automorphism(Z2, ((1,),)), ONE_REPR, "group"),
            (lambda: LambdaModule(Z2, ONE), MODULE_REPR, "t"),
            (lambda: Poly(2, (1, 1, 0)), "Poly(p=2, coeffs=(1, 1))", "coeffs"),
            (
                lambda: PolySpec(2, (Poly(2, (1, 1)),)),
                "PolySpec(p=2, chain=(Poly(p=2, coeffs=(1, 1)),))",
                "chain",
            ),
            (lambda: LinearQuandleSpec(5, 2), "LinearQuandleSpec(n=5, a=2)", "a"),
            (lambda: CayleyTable([[0, 0], [1, 1]]), "CayleyTable(table=((0, 0), (1, 1)))", "table"),
            (lambda: AxiomVerdict(True), "AxiomVerdict(ok=True, axiom=None, witness=None)", "ok"),
            (
                lambda: QuandleClass(0, "L", LambdaModule(Z2, ONE), True, ((Z2, ONE),)),
                f"QuandleClass(id=0, image_label='L', image={MODULE_REPR}, connected=True, "
                f"members=((AbelianGroup(factors=(2,)), {ONE_REPR}),))",
                "image_label",
            ),
            (
                lambda: ClassificationReport(2, (), {"2": 1}, (1, 0)),
                "ClassificationReport(order=2, classes=(), per_group_counts={'2': 1}, "
                "totals=(1, 0))",
                "classes",
            ),
            (
                lambda: CrossValidation(4, 2, 2, 3, 3, True, "agree", (("1+t", "1,0;0,1"),)),
                "CrossValidation(order=4, p=2, k=2, spec_count=3, class_count=3, ok=True, "
                "detail='agree', matching=(('1+t', '1,0;0,1'),))",
                "ok",
            ),
        ],
    )
    def test_repr_equality_hash_and_immutability(self, make, text, field):
        a, b = make(), make()
        assert repr(a) == text
        assert a == b and a is not b and not a != b
        assert a != object()
        if isinstance(a, ClassificationReport):
            with pytest.raises(TypeError):  # per_group_counts is a dict
                hash(a)
        else:
            assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert a == b

    def test_automorphism_never_equals_endomorphism(self):
        images = ((1, 0), (0, 1))
        G = AbelianGroup((2, 2))
        assert Automorphism(G, images) != Endomorphism(G, images)
        assert Endomorphism(G, images) != Automorphism(G, images)
        assert Automorphism(G, images) == Automorphism(G, images)

    def test_cached_properties_fill_on_first_read(self):
        G = AbelianGroup((2, 2))
        f = Automorphism(G, ((0, 1), (1, 0)))
        Q = CayleyTable(((0, 0), (1, 1)))
        for value, name in ((G, "elements"), (f, "perm"), (Q, "_fingerprints")):
            assert name not in vars(value)
            first = getattr(value, name)
            assert vars(value)[name] is first is getattr(value, name)
        assert G.elements == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert f.perm == (0, 2, 1, 3)
