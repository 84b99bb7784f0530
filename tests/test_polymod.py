import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alexq.lambda_modules import (
    _image_set,
    is_connected,
    is_lambda_isomorphic,
    parse_module_spec,
)
from alexq.polymod import (
    Poly,
    PolySpec,
    build,
    divisor_chain,
    enumerate_specs,
    monic_unit_constant_polys,
    poly_add,
    poly_divides,
    poly_divmod,
    poly_mod,
    poly_mul,
    smith_invariant_factors,
)


def p2(text: str) -> Poly:
    return Poly.from_str(2, text)


class TestArithmetic:
    def test_product_example(self):
        assert poly_mul(p2("1+t"), p2("1+t^3")) == p2("1+t+t^3+t^4")

    def test_square_cancels_cross_terms(self):
        assert poly_mul(p2("1+t+t^2"), p2("1+t+t^2")) == p2("1+t^2+t^4")

    def test_self_division(self):
        h = p2("1+t+t^4")
        assert poly_divides(h, h)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            poly_mul(Poly(2, (1, 1)), Poly(3, (1, 1)))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_mod(p2("1+t"), Poly(2, ()))

    def test_string_roundtrip(self):
        for text in ["1+t+t^4", "1", "t", "1+t^2", "2+2t^2+t^3"]:
            p = 3
            poly = Poly.from_str(p, text)
            assert Poly.from_str(p, str(poly)) == poly

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 5).filter(lambda p: p in (2, 3, 5)),
        st.lists(st.integers(0, 4), max_size=6),
        st.lists(st.integers(0, 4), min_size=1, max_size=4),
    )
    def test_divmod_law(self, p, a_coeffs, m_coeffs):
        a = Poly(p, tuple(a_coeffs))
        m = Poly(p, tuple(m_coeffs))
        if m.is_zero:
            return
        q, r = poly_divmod(a, m)
        assert r.degree < m.degree or r.is_zero
        assert poly_add(poly_mul(q, m), r) == a


class TestSmithForm:
    def test_diagonal_entries_are_recombined_into_a_chain(self):
        zero = Poly(2, ())
        # diag(t+1, t^2+1) over Z_2 is already a chain: t^2+1 = (t+1)^2
        chain = smith_invariant_factors([[p2("1+t"), zero], [zero, p2("1+t^2")]])
        assert [str(d) for d in chain] == ["1+t", "1+t^2"]
        # diag(t, t+1): coprime entries merge into 1 | t^2+t
        chain = smith_invariant_factors([[p2("t"), zero], [zero, p2("1+t")]])
        assert [str(d) for d in chain] == ["1", "t+t^2"]

    def test_zero_matrix(self):
        assert smith_invariant_factors([[Poly(2, ())] * 2] * 2) == (Poly(2, ()),) * 2

    @pytest.mark.parametrize(
        "p, k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2)]
    )
    def test_divisor_chain_inverts_build(self, p, k):
        for spec in enumerate_specs(p, k):
            assert divisor_chain(build(spec)) == spec

    def test_divisor_chain_is_invariant_under_conjugation(self):
        # t and h t h^-1 on (Z_2)^2 with h the swap: same module
        M = parse_module_spec("2,2|1,1;0,1")
        N = parse_module_spec("2,2|1,0;1,1")
        assert divisor_chain(M) == divisor_chain(N) == PolySpec(2, (p2("1+t^2"),))

    def test_divisor_chain_needs_an_elementary_carrier(self):
        for spec in ["4|1", "2,4|1,0;0,1", "6|1", "1|"]:
            with pytest.raises(ValueError):
                divisor_chain(parse_module_spec(spec))


class TestEnumerateSpecs:
    def test_degree_1(self):
        specs = enumerate_specs(2, 1)
        assert [str(s) for s in specs] == ["1+t"]

    def test_degree_2(self):
        assert [str(s) for s in enumerate_specs(2, 2)] == [
            "1+t^2",
            "1+t+t^2",
            "1+t | 1+t",
        ]

    def test_degree_4_count(self):
        assert len(enumerate_specs(2, 4)) == 14

    def test_chains_are_divisor_chains_with_unit_constants(self):
        for spec in enumerate_specs(2, 4):
            assert spec.total_degree == 4
            for h in spec.chain:
                assert h.is_monic and h.has_unit_constant
            for a, b in itertools.pairwise(spec.chain):
                assert poly_divides(a, b)

    def test_no_duplicates(self):
        specs = enumerate_specs(2, 4)
        assert len({str(s) for s in specs}) == len(specs)

    def test_odd_prime(self):
        # sanity that the machinery is not hardwired to p = 2
        specs = enumerate_specs(3, 2)
        assert all(s.total_degree == 2 for s in specs)
        chains2 = [s for s in specs if len(s.chain) == 2]
        assert all(s.chain[0] == s.chain[1] for s in chains2)


class TestBuild:
    def test_degree_one_is_identity_on_z2(self):
        M = build(enumerate_specs(2, 1)[0])
        assert M.group.factors == (2,)
        assert M.t.images == ((1,),)

    def test_companion_of_quadratic(self):
        spec = next(s for s in enumerate_specs(2, 2) if str(s) == "1+t+t^2")
        M = build(spec)
        assert M.t.images == ((0, 1), (1, 1))

    def test_two_part_chain_is_identity(self):
        spec = next(s for s in enumerate_specs(2, 2) if len(s.chain) == 2)
        M = build(spec)
        assert M.t.images == ((1, 0), (0, 1))

    def test_all_degree_4_actions_invertible(self):
        # Automorphism construction validates bijectivity
        for spec in enumerate_specs(2, 4):
            M = build(spec)
            assert sorted(M.t.perm) == list(range(16))


class TestQuotientIdentity:
    def test_single_polynomial_images(self):
        # Im(1-t) of the quotient by h is the quotient by h/(1+t) when 1+t
        # divides h, and the whole module otherwise
        one_plus_t = p2("1+t")
        for spec in enumerate_specs(2, 4):
            if len(spec.chain) != 1:
                continue
            h = spec.chain[0]
            M = build(spec)
            image_size = len(_image_set(M))
            if poly_divides(one_plus_t, h):
                quotient, r = poly_divmod(h, one_plus_t)
                assert r.is_zero
                expected = build(PolySpec(2, (quotient,)))
                assert image_size == expected.order
            else:
                assert image_size == M.order

    def test_image_sets_coincide_within_parity_class(self):
        # among 1 + at + bt^2 + ct^3 + t^4, the images with an even number
        # of terms agree as subsets of coefficient space, and likewise for
        # the odd ones (where they are everything)
        even_sets = []
        odd_sets = []
        for spec in enumerate_specs(2, 4):
            if len(spec.chain) != 1:
                continue
            h = spec.chain[0]
            M = build(spec)
            terms = sum(h.coeffs)
            (even_sets if terms % 2 == 0 else odd_sets).append(frozenset(_image_set(M)))
        assert len(even_sets) == 4 and len(odd_sets) == 4
        assert len(set(even_sets)) == 1
        assert len(set(odd_sets)) == 1
        assert odd_sets[0] == frozenset(build(enumerate_specs(2, 4)[0]).group.elements)


class TestConnectivityCriterion:
    def test_connected_iff_no_one_plus_t_divisor(self):
        one_plus_t = p2("1+t")
        starred = 0
        for spec in enumerate_specs(2, 4):
            M = build(spec)
            no_trivial_divisor = not any(
                poly_divides(one_plus_t, h) for h in spec.chain
            )
            odd_terms = all(sum(h.coeffs) % 2 == 1 for h in spec.chain)
            assert no_trivial_divisor == odd_terms == is_connected(M)
            starred += is_connected(M)
        assert starred == 5
