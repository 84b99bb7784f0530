import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alexq.abelian import AbelianGroup, _prime_factorization, enumerate_groups, sylow_parts
from alexq.autgroup import (
    ENUMERATION_BUDGET,
    Automorphism,
    Endomorphism,
    _automorphism_perms,
    _candidate_count,
    _conjugacy,
    _listed_least_conjugate,
    conjugacy_representatives,
    lex_least_conjugate,
)
from alexq.errors import EnumerationBudgetError
from alexq.lambda_modules import (
    LambdaModule,
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
    least_members,
    monic_unit_constant_polys,
    _divmod,
    _sub_mul,
    _trim,
    poly_divides,
    scan_count,
    scan_shape,
    smith_invariant_factors,
)

from helpers import image_set


def p2(text: str) -> Poly:
    return Poly.from_str(2, text)


# sha256 of the divisor chains of `pinned_modules()`, one repr a line; a
# rewrite of the Smith form must give exactly these chains
PINNED_CHAINS_SHA256 = "57d316cea23e51b7fa1be11cac0462391a6cfc1f6bd51dccc43565d2192285d1"


def pinned_modules():
    """Every conjugacy representative of each elementary carrier up to order
    130 whose Aut is listed, then, for every spec of (Z_2)^5, (Z_3)^4 and
    (Z_5)^3, its built module conjugated by a seeded random h, which is not
    in companion form."""
    primes = [q for q in range(2, 131) if all(q % d for d in range(2, q))]
    carriers = [(2,) * k for k in (2, 3, 4)] + [(3, 3), (3, 3, 3), (5, 5), (7, 7), (11, 11)]
    for factors in carriers + [(q,) for q in primes]:
        G = AbelianGroup(factors)
        for t in conjugacy_representatives(G):
            yield LambdaModule(G, t), None
    rng = random.Random(35)
    for p, k in [(2, 5), (3, 4), (5, 3)]:
        G = AbelianGroup((p,) * k)
        for spec in enumerate_specs(p, k):
            images = None
            while images is None or not Endomorphism(G, images).is_automorphism():
                images = tuple(tuple(rng.randrange(p) for _ in range(k)) for _ in range(k))
            h = Automorphism(G, images)
            yield LambdaModule(G, h.compose(build(spec).t).compose(h.invert())), spec


def product(a: list[int], b: list[int], p: int) -> list[int]:
    """a*b over Z_p, as a trimmed coefficient list."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


class TestArithmetic:
    def test_product_example(self):
        # the row step with x = 0 is -q*y, which over Z_2 is the product
        assert _sub_mul([], [1, 1], [1, 0, 0, 1], 2) == list(p2("1+t+t^3+t^4").coeffs)

    def test_square_cancels_cross_terms(self):
        assert _sub_mul([], [1, 1, 1], [1, 1, 1], 2) == list(p2("1+t^2+t^4").coeffs)

    def test_self_division(self):
        h = p2("1+t+t^4")
        assert poly_divides(h, h)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match="mixed moduli"):
            poly_divides(Poly(2, (1, 1)), Poly(3, (1, 1)))

    def test_spec_refuses_mixed_moduli(self):
        with pytest.raises(ValueError, match="share the spec modulus"):
            PolySpec(2, (Poly(3, (1, 1)),))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            _divmod([1, 1], [], 2)

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
        a = list(Poly(p, tuple(a_coeffs)).coeffs)
        m = list(Poly(p, tuple(m_coeffs)).coeffs)
        if not m:
            return
        q, r = _divmod(a, m, p)
        assert len(r) < len(m)
        qm = product(q, m, p)
        assert _trim([(x + y) % p for x, y in itertools.zip_longest(qm, r, fillvalue=0)]) == a


class TestModulus:
    def test_poly_refuses_a_composite_modulus(self):
        for p in (0, 1, 4, 6):
            with pytest.raises(ValueError, match="prime"):
                Poly(p, (2, 1))

    def test_spec_over_a_composite_modulus_is_refused(self):
        with pytest.raises(ValueError, match="prime"):
            PolySpec(6, (Poly(6, (1, 1)),))

    def test_no_specs_over_a_composite_modulus(self):
        # over Z_4 the constants 2 of 2+t^2 and 2+t are not units
        with pytest.raises(ValueError, match="prime"):
            enumerate_specs(4, 2)

    def test_unit_constant_polys_need_positive_degree(self):
        assert [str(h) for h in monic_unit_constant_polys(2, 1)] == ["1+t"]
        for degree in (0, -1):
            with pytest.raises(ValueError, match="degree"):
                monic_unit_constant_polys(2, degree)


class TestSmithForm:
    def test_diagonal_entries_are_recombined_into_a_chain(self):
        # diag(t+1, t^2+1) over Z_2 is already a chain: t^2+1 = (t+1)^2
        assert smith_invariant_factors([[[1, 1], []], [[], [1, 0, 1]]], 2) == [
            [1, 1],
            [1, 0, 1],
        ]
        # diag(t, t+1): coprime entries merge into 1 | t^2+t
        assert smith_invariant_factors([[[0, 1], []], [[], [1, 1]]], 2) == [[1], [0, 1, 1]]

    def test_zero_matrix(self):
        assert smith_invariant_factors([[[]] * 2] * 2, 2) == [[], []]

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

    def test_divisor_chain_matches_pinned_digest(self):
        chains = []
        for M, spec in pinned_modules():
            chain = divisor_chain(M)
            if spec is not None:
                assert chain == spec
            chains.append(repr(chain))
        assert len(chains) == 2161
        digest = hashlib.sha256("\n".join(chains).encode()).hexdigest()
        assert digest == PINNED_CHAINS_SHA256

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
            image_size = len(image_set(M))
            if poly_divides(one_plus_t, h):
                quotient, r = _divmod(h.coeffs, one_plus_t.coeffs, 2)
                assert not r
                expected = build(PolySpec(2, (Poly(2, tuple(quotient)),)))
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
            (even_sets if terms % 2 == 0 else odd_sets).append(frozenset(image_set(M)))
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


# (p, k) of every elementary carrier of order up to 128 whose Aut is listed
LISTED_ELEMENTARY = [
    (p, k)
    for p in range(2, 128)
    if all(p % d for d in range(2, p))
    for k in range(1, 8)
    if p**k <= 128 and _candidate_count(AbelianGroup((p,) * k)) <= ENUMERATION_BUDGET
]


class TestLeastMembers:
    @pytest.mark.parametrize("p, k", LISTED_ELEMENTARY)
    def test_least_members_are_the_aut_routes_representatives(self, p, k):
        # the same members in the same order; the class table is built past
        # its cache, so the 1,488,000 maps of 5,5,5 are freed after the test
        expected = _conjugacy.__wrapped__(AbelianGroup((p,) * k)).reps
        assert least_members(p, k) == expected

    def test_every_listed_carrier_is_checked(self):
        assert len(LISTED_ELEMENTARY) == 40
        assert {(2, 4), (3, 3), (5, 3), (11, 2), (127, 1)} <= set(LISTED_ELEMENTARY)

    @pytest.mark.parametrize(
        "p, k, count",
        [(2, 5, 1048576), (3, 4, 531441), (2, 6, 1073741824), (3, 5, 3486784401), (5, 4, 244140625)],
    )
    def test_scan_budget(self, p, k, count):
        # the scan counts the image tuples with the first image fixed: it
        # admits 2^5 and 3^4, whose Aut is over the budget, and refuses the
        # next ranks before any table is built
        assert scan_count(p, k) == count
        if count <= ENUMERATION_BUDGET:
            return
        spec = ",".join([str(p)] * k)
        with pytest.raises(EnumerationBudgetError) as exc:
            least_members(p, k)
        assert str(exc.value) == (
            f"scanning {spec} for least class members needs {count} candidate "
            "image tuples, over the budget of 16777216"
        )

    @pytest.mark.parametrize("p, k", [(2, 5), (3, 4), (5, 3)])
    def test_one_member_per_chain(self, p, k):
        # over the Aut route's reach, each member's chain is one of the
        # listed chains, met once, and the members ascend
        G = AbelianGroup((p,) * k)
        members = least_members(p, k)
        chains = [divisor_chain(LambdaModule(G, f)) for f in members]
        assert sorted(chains, key=str) == sorted(enumerate_specs(p, k), key=str)
        assert list(members) == sorted(members, key=lambda f: f.images)


def _reference_shape(G):
    """(p, k, m) by the Sylow parts: one part is (Z_p)^k with k the rank of
    G, every other part is cyclic, and a cyclic G is of order p."""
    parts = sylow_parts(G)
    for P in parts:
        (p,) = _prime_factorization(P.order)
        if (
            P.factors == (p,) * G.rank
            and all(Q.rank == 1 for Q in parts if Q != P)
            and (G.rank > 1 or G.order == p)
        ):
            return p, G.rank, G.order // P.order
    return None


# every carrier (Z_p)^k + Z_m, m > 1, of order up to 130 whose Aut is listed
LISTED_MIXED = [
    G
    for n in range(1, 131)
    for G in enumerate_groups(n)
    if (shape := scan_shape(G)) is not None
    and shape[2] > 1
    and _candidate_count(G) <= ENUMERATION_BUDGET
]


class TestMixedCarriers:
    """The scan on (Z_p)^k + Z_m against the Aut route."""

    def test_shape_matches_the_sylow_parts(self):
        carriers = [G for n in range(1, 256) for G in enumerate_groups(n)]
        assert [scan_shape(G) for G in carriers] == [_reference_shape(G) for G in carriers]

    @pytest.mark.parametrize("G", LISTED_MIXED, ids=str)
    def test_least_members_are_the_aut_routes_representatives(self, G):
        assert least_members(*scan_shape(G)) == _conjugacy(G).reps

    def test_every_listed_mixed_carrier_is_checked(self):
        # 2,2,2,2,6 (96) is the one such carrier up to 130 over the Aut budget
        assert len(LISTED_MIXED) == 40
        specs = {G.spec() for G in LISTED_MIXED}
        assert {"2,6", "2,2,6", "2,2,2,6", "3,3,6", "5,10", "2,30", "2,2,18"} <= specs
        assert "2,2,2,2,6" not in specs

    @pytest.mark.parametrize("factors", [(2, 6), (2, 2, 6), (3, 3, 6), (2, 2, 2, 6)], ids=str)
    def test_lex_least_matches_aut_route_on_conjugates(self, factors):
        # each member conjugated by seeded maps of Aut(G): the scan's table
        # and the listed classes both name the member
        G = AbelianGroup(factors)
        perms = _automorphism_perms(G)
        rng = random.Random(37)
        for f in least_members(*scan_shape(G)):
            for i in rng.sample(range(len(perms)), min(len(perms), 6)):
                h = Automorphism._from_perm(G, perms[i])
                g = h.compose(f).compose(h.invert())
                assert lex_least_conjugate(G, g) == _listed_least_conjugate(G, g) == f, g

    @pytest.mark.parametrize(
        "p, k, m, spec, count",
        [(2, 6, 3, "2,2,2,2,2,6", 1073741824), (3, 5, 2, "3,3,3,3,6", 3486784401)],
    )
    def test_scan_budget_names_the_carrier(self, p, k, m, spec, count):
        # one walk over GL_k(p) serves every unit of Z_m, so the count is
        # that of m = 1, and the message names the whole carrier
        assert scan_count(p, k) == count > ENUMERATION_BUDGET
        with pytest.raises(EnumerationBudgetError) as exc:
            least_members(p, k, m)
        assert str(exc.value) == (
            f"scanning {spec} for least class members needs {count} candidate "
            "image tuples, over the budget of 16777216"
        )
