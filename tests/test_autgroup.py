import itertools
import math

import pytest

from alexq.abelian import AbelianGroup
from alexq.autgroup import (
    Automorphism,
    Endomorphism,
    _candidate_count,
    conjugacy_class_sizes,
    conjugacy_representatives,
    enumerate_automorphisms,
    identity_automorphism,
    is_conjugate,
    lex_least_conjugate,
    parse_phi_spec,
)
from alexq.errors import EnumerationBudgetError, SpecError


def brute_force_automorphism_count(factors):
    """Count bijective linear maps with no package machinery."""
    coords = list(itertools.product(*(range(d) for d in factors)))

    def order(x):
        return math.lcm(*(d // math.gcd(d, c) for d, c in zip(factors, x))) if x else 1

    k = len(factors)
    count = 0
    for images in itertools.product(coords, repeat=k):
        if any(factors[i] % order(images[i]) for i in range(k)):
            continue
        seen = set()
        for x in coords:
            y = tuple(
                sum(x[i] * images[i][j] for i in range(k)) % factors[j]
                for j in range(k)
            )
            seen.add(y)
        if len(seen) == len(coords):
            count += 1
    return count


class TestEnumeration:
    def test_cyclic_16_has_unit_count(self):
        auts = enumerate_automorphisms(AbelianGroup((16,)))
        n_units = sum(1 for a in range(16) if math.gcd(a, 16) == 1)
        assert len(auts) == n_units == 8

    def test_rank4_elementary_is_gl4(self):
        auts = enumerate_automorphisms(AbelianGroup((2, 2, 2, 2)))
        expected = (16 - 1) * (16 - 2) * (16 - 4) * (16 - 8)
        assert len(auts) == expected == 20160

    def test_z4_squared_matches_brute_force(self):
        auts = enumerate_automorphisms(AbelianGroup((4, 4)))
        assert len(auts) == brute_force_automorphism_count((4, 4)) == 96

    def test_mixed_carrier_matches_brute_force(self):
        assert len(enumerate_automorphisms(AbelianGroup((2, 4)))) == (
            brute_force_automorphism_count((2, 4))
        )

    def test_all_outputs_bijective(self):
        G = AbelianGroup((2, 4))
        for f in enumerate_automorphisms(G):
            assert sorted(f.perm) == list(range(G.order))

    def test_sorted_by_flattened_image_coordinates(self):
        auts = enumerate_automorphisms(AbelianGroup((2, 4)))
        keys = [tuple(c for img in f.images for c in img) for f in auts]
        assert keys == sorted(keys)

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetError):
            enumerate_automorphisms(AbelianGroup((2,) * 5), budget=2**24)

    def test_budget_counts_candidate_image_tuples(self):
        # generator images must be killed by their factor: 16 * 16 * 16 * 32
        G = AbelianGroup((2, 2, 2, 4))
        assert _candidate_count(G) == 131072
        with pytest.raises(EnumerationBudgetError, match="131072"):
            enumerate_automorphisms(G, budget=131071)

    def test_trivial_group(self):
        auts = enumerate_automorphisms(AbelianGroup(()))
        assert len(auts) == 1
        assert auts[0].images == ()


class TestMapAlgebra:
    def test_identity(self):
        G = AbelianGroup((4, 4))
        ident = identity_automorphism(G)
        for x in G.elements:
            assert ident.apply(x) == x

    def test_apply_is_linear_extension(self):
        G = AbelianGroup((4, 4))
        phi = Automorphism(G, ((0, 1), (3, 2)))
        assert phi.apply((1, 1)) == (3, 3)

    def test_compose_then_invert(self):
        G = AbelianGroup((2, 8))
        ident = identity_automorphism(G)
        for f in enumerate_automorphisms(G):
            assert f.compose(f.invert()) == ident
            assert f.invert().compose(f) == ident

    def test_compose_order(self):
        # compose(f, g) applies g first
        G = AbelianGroup((16,))
        f = Automorphism(G, ((3,),))
        g = Automorphism(G, ((5,),))
        assert f.compose(g).apply((1,)) == (15,)

    def test_ill_defined_map_rejected(self):
        G = AbelianGroup((2, 4))
        with pytest.raises(ValueError):
            Endomorphism(G, ((0, 1), (0, 1)))  # e1 has order 2, image order 4

    def test_non_bijective_rejected(self):
        G = AbelianGroup((4,))
        with pytest.raises(ValueError):
            Automorphism(G, ((2,),))


class TestConjugacy:
    def test_self_conjugate_with_witness(self):
        G = AbelianGroup((4, 4))
        f = Automorphism(G, ((0, 1), (3, 2)))
        h = is_conjugate(G, f, f)
        assert h is not None
        assert h.invert().compose(f).compose(h) == f

    def test_cyclic_aut_group_is_abelian(self):
        G = AbelianGroup((16,))
        f = Automorphism(G, ((3,),))
        g = Automorphism(G, ((5,),))
        assert is_conjugate(G, f, g) is None

    def test_distinct_full_image_classes_on_z4_squared(self):
        G = AbelianGroup((4, 4))
        f = Automorphism(G, ((0, 1), (1, 1)))
        g = Automorphism(G, ((0, 1), (3, 1)))
        assert is_conjugate(G, f, g) is None

    def test_witness_soundness_exhaustive_small(self):
        G = AbelianGroup((2, 2, 2))
        auts = enumerate_automorphisms(G)
        sample = auts[::17]
        for f in sample:
            for g in sample:
                h = is_conjugate(G, f, g)
                if h is not None:
                    conj = h.invert().compose(g).compose(h)
                    assert conj == f

    def test_equivalence_relation_sampled(self):
        G = AbelianGroup((2, 2, 2))
        auts = enumerate_automorphisms(G)
        sample = auts[::23]
        for f in sample:
            assert is_conjugate(G, f, f) is not None
        for f in sample:
            for g in sample:
                fg = is_conjugate(G, f, g) is not None
                gf = is_conjugate(G, g, f) is not None
                assert fg == gf
        for f in sample[:4]:
            for g in sample[:4]:
                for h in sample[:4]:
                    if (
                        is_conjugate(G, f, g) is not None
                        and is_conjugate(G, g, h) is not None
                    ):
                        assert is_conjugate(G, f, h) is not None


class TestRepresentatives:
    def test_cyclic_all_singletons(self):
        G = AbelianGroup((16,))
        reps = conjugacy_representatives(G)
        assert len(reps) == 8
        assert conjugacy_class_sizes(G) == (1,) * 8

    def test_rank4_elementary_class_count(self):
        G = AbelianGroup((2, 2, 2, 2))
        reps = conjugacy_representatives(G)
        assert len(reps) == 14
        assert sum(conjugacy_class_sizes(G)) == 20160

    def test_trivial(self):
        reps = conjugacy_representatives(AbelianGroup(()))
        assert len(reps) == 1

    def test_representatives_are_lex_least(self):
        G = AbelianGroup((2, 4))
        for rep in conjugacy_representatives(G):
            assert lex_least_conjugate(G, rep) == rep

    @pytest.mark.parametrize("factors", [(2, 4), (4, 4), (3, 9), (2, 2, 2)])
    def test_lex_least_matches_brute_force(self, factors):
        """Reference: the least generator images of h o f o h^-1 over all h."""
        G = AbelianGroup(factors)
        auts = enumerate_automorphisms(G)
        elements = G.elements
        gens = G.generator_indices
        pairs = [(h.perm, h.invert().perm) for h in auts]
        for f in auts:
            fp = f.perm
            least = min(
                tuple(elements[hp[fp[hinv[g]]]] for g in gens) for hp, hinv in pairs
            )
            assert lex_least_conjugate(G, f).images == least, f

    def test_class_sizes_sum_to_aut_order(self):
        for factors in [(2, 4), (8,), (2, 2, 2), (4, 4)]:
            G = AbelianGroup(factors)
            assert sum(conjugacy_class_sizes(G)) == len(enumerate_automorphisms(G))


def test_z4z4_conjugacy_matches_raw_matrix_computation():
    """Independent cross-check: Aut(Z4 x Z4) = GL(2, Z/4), done with raw
    matrices and no package code. Pins down the class count (14) and the
    count of classes acting fixed-point-freely under 1 - t (4), which the
    order-16 classification rests on.
    """

    def mat_mul(A, B):
        return tuple(
            tuple(sum(A[i][k] * B[k][j] for k in range(2)) % 4 for j in range(2))
            for i in range(2)
        )

    def det(A):
        return (A[0][0] * A[1][1] - A[0][1] * A[1][0]) % 4

    identity = ((1, 0), (0, 1))
    GL = [
        ((a, b), (c, d))
        for a, b, c, d in itertools.product(range(4), repeat=4)
        if det(((a, b), (c, d))) % 2 == 1
    ]
    assert len(GL) == 96
    inverses = {}
    for A in GL:
        for B in GL:
            if mat_mul(A, B) == identity:
                inverses[A] = B
                break
    unassigned = set(GL)
    classes = []
    while unassigned:
        A = next(iter(unassigned))
        orbit = {mat_mul(inverses[H], mat_mul(A, H)) for H in GL}
        classes.append(orbit)
        unassigned -= orbit
    assert sorted(len(c) for c in classes) == [1, 1, 2, 3, 3, 6, 8, 8, 8, 8, 12, 12, 12, 12]
    connected = 0
    for cls in classes:
        A = next(iter(cls))
        one_minus = tuple(
            tuple((identity[i][j] - A[i][j]) % 4 for j in range(2)) for i in range(2)
        )
        if det(one_minus) % 2 == 1:
            connected += 1
    assert len(classes) == 14
    assert connected == 4

    # and the package agrees
    G = AbelianGroup((4, 4))
    assert len(conjugacy_representatives(G)) == 14


class TestPhiSpec:
    def test_roundtrip(self):
        G = AbelianGroup((4, 4))
        f = parse_phi_spec(G, "0,1;3,2")
        assert f.spec() == "0,1;3,2"
        assert f.images == ((0, 1), (3, 2))

    def test_trivial_group_spec(self):
        G = AbelianGroup(())
        assert parse_phi_spec(G, "").spec() == ""

    def test_reduces_coordinates(self):
        G = AbelianGroup((4, 4))
        assert parse_phi_spec(G, "4,1;3,2").images[0] == (0, 1)

    def test_errors(self):
        G = AbelianGroup((4, 4))
        with pytest.raises(SpecError):
            parse_phi_spec(G, "0,1")
        with pytest.raises(SpecError):
            parse_phi_spec(G, "0,1;3,x")
        with pytest.raises(SpecError):
            parse_phi_spec(G, "2,0;0,1")  # not bijective
