import hashlib
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alexq import autgroup, kernels, polymod
from alexq.abelian import (
    AbelianGroup,
    ShapeError,
    _addition_rows,
    _prime_factorization,
    enumerate_groups,
    sylow_parts,
)
from alexq.autgroup import (
    Automorphism,
    Endomorphism,
    _automorphism_perms,
    _candidate_count,
    _check_budget,
    _crt_tables,
    _group_tables,
    conjugacy_representatives,
    identity_automorphism,
    is_conjugate,
    lex_least_conjugate,
    parse_phi_spec,
)
from alexq.errors import EnumerationBudgetError, SpecError

from helpers import clear_carrier_caches, conjugacy_class_sizes, enumerate_automorphisms

_CARRIERS_UP_TO_64 = [G for n in range(1, 65) for G in enumerate_groups(n)]


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
            enumerate_automorphisms(AbelianGroup((2,) * 5))

    def test_budget_counts_candidate_image_tuples(self, monkeypatch):
        # generator images must be killed by their factor: 16 * 16 * 16 * 32.
        # The guard is called directly: enumerate_automorphisms is cached by
        # carrier, so a carrier enumerated earlier would bypass it.
        G = AbelianGroup((2, 2, 2, 4))
        assert _candidate_count(G) == 131072
        monkeypatch.setattr(autgroup, "ENUMERATION_BUDGET", 131071)
        with pytest.raises(EnumerationBudgetError, match="131072"):
            _check_budget(G)
        monkeypatch.setattr(autgroup, "ENUMERATION_BUDGET", 131072)
        _check_budget(G)

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

    @pytest.mark.parametrize("factors", [(), (6,), (2, 4), (3, 9), (2, 2, 2), (2, 2, 6)])
    def test_perm_matches_checked_linear_extension(self, factors):
        # every well-defined endomorphism on the small carriers, a sample of
        # 2,2,6: the recurrence agrees with summing c_j * image_j element by
        # element through the checked group operations
        G = AbelianGroup(factors)
        killed = [[x for x in G.elements if G.scalar_mul(d, x) == G.zero] for d in factors]
        tuples = list(itertools.product(*killed))
        for images in tuples[:: max(1, len(tuples) // 400)]:
            f = Endomorphism(G, images)
            expected = []
            for x in G.elements:
                y = G.zero
                for c, img in zip(x, images):
                    y = G.add(y, G.scalar_mul(c, img))
                expected.append(G.index(y))
            assert f.perm == tuple(expected), f.spec()

    @pytest.mark.parametrize("factors", [(), (12,), (2, 4), (3, 9), (2, 2, 6)])
    def test_addition_table_matches_checked_addition(self, factors):
        G = AbelianGroup(factors)
        rows = _addition_rows(G)
        candidates = _group_tables(G)[1]
        elements = G.elements
        assert rows == [tuple(G.index(G.add(x, y)) for y in elements) for x in elements]
        assert len(candidates) == G.rank
        for d, level in zip(G.factors, candidates):
            allowed = [x for x in elements if G.scalar_mul(d, x) == G.zero]
            assert level == [
                [G.index(G.scalar_mul(c, x)) for c in range(1, d)] for x in allowed
            ]

    def test_perm_matches_kernel_enumeration(self):
        G = AbelianGroup((2, 2, 6))
        for f in enumerate_automorphisms(G):
            assert Automorphism(G, f.images).perm == f.perm

    def test_ill_defined_map_rejected(self):
        G = AbelianGroup((2, 4))
        with pytest.raises(ValueError):
            Endomorphism(G, ((0, 1), (0, 1)))  # e1 has order 2, image order 4

    def test_non_bijective_rejected(self):
        G = AbelianGroup((4,))
        with pytest.raises(ValueError):
            Automorphism(G, ((2,),))

    @pytest.mark.parametrize(
        "images, error, message",
        [
            (((1, 0),), ValueError, "expected 2 generator images for 2,4, got 1"),
            (((1,), (0, 1)), ShapeError, "element (1,) does not fit group with factors (2, 4)"),
            (((1, 0), (0, 5)), ShapeError, "coordinate 5 of (0, 5) not reduced modulo 4"),
            (((1, -1), (0, 1)), ShapeError, "coordinate -1 of (1, -1) not reduced modulo 4"),
            (
                ((0, 1), (0, 1)),
                ValueError,
                "image (0, 1) of a generator of order 2 has order 4; the map is not well defined",
            ),
            # images are checked in order: the first one's error is raised
            (
                ((0, 1), (5,)),
                ValueError,
                "image (0, 1) of a generator of order 2 has order 4; the map is not well defined",
            ),
            (((1, 0), (0, 2)), ValueError, "map 1,0;0,2 on 2,4 is not bijective"),
        ],
    )
    def test_validation_errors_are_pinned(self, images, error, message):
        G = AbelianGroup((2, 4))
        with pytest.raises(error) as raised:
            Automorphism(G, images)
        assert type(raised.value) is error
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "spec",
        ["2,2", "2,4", "4,4", "2,6", "6", "12", "2,2,2", "2,12", "3,9", "6,6", "2,2,4", "30", "2,8"],
    )
    def test_bijectivity_on_g_mod_pg_matches_the_permutation(self, spec):
        # every well-defined endomorphism: the test on G/pG agrees with the
        # permutation's image size, and builds no permutation
        G = AbelianGroup.from_spec(spec)
        killed = [[x for x in G.elements if G.scalar_mul(d, x) == G.zero] for d in G.factors]
        verdicts = set()
        for images in itertools.product(*killed):
            f = Endomorphism(G, images)
            verdict = f.is_automorphism()
            assert "perm" not in f.__dict__
            assert verdict == (len(set(f.perm)) == G.order), f.spec()
            verdicts.add(verdict)
        assert verdicts == {True, False}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bijectivity_on_g_mod_pg_matches_the_permutation_up_to_order_64(self, data):
        G = data.draw(st.sampled_from(_CARRIERS_UP_TO_64), label="carrier")
        images = tuple(
            data.draw(st.sampled_from([x for x in G.elements if G.scalar_mul(d, x) == G.zero]))
            for d in G.factors
        )
        f = Endomorphism(G, images)
        assert f.is_automorphism() == (len(set(f.perm)) == G.order)

    def test_refused_map_keeps_its_error_text_on_a_mixed_prime_carrier(self):
        # bijective mod 2 but not mod 3: 2e_2, of order 3, goes to 0
        G = AbelianGroup((2, 6))
        with pytest.raises(SpecError) as raised:
            parse_phi_spec(G, "1,0;0,3")
        assert str(raised.value) == "map 1,0;0,3 on 2,6 is not bijective"
        assert parse_phi_spec(G, "1,3;0,1").is_automorphism()


class TestConjugacy:
    def test_self_conjugate_with_witness(self):
        G = AbelianGroup((4, 4))
        f = Automorphism(G, ((0, 1), (3, 2)))
        h = is_conjugate(G, f, f)
        assert h is not None
        assert h.invert().compose(f).compose(h) == f

    @pytest.mark.parametrize(
        "factors, images", [((251,), ((3,),)), ((2, 2, 4), ((0, 1, 0), (1, 1, 0), (0, 0, 3)))]
    )
    def test_equal_maps_are_conjugate_without_a_search(self, factors, images, monkeypatch):
        # a cyclic image confirms its scalar name this way: the named module
        # has the same images
        def refuse(*args):
            raise AssertionError("the kernel searched")

        monkeypatch.setattr(kernels, "_linear_bijections", refuse)
        G = AbelianGroup(factors)
        f = Automorphism(G, images)
        assert is_conjugate(G, f, Automorphism(G, images)) == identity_automorphism(G)

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

    def test_cyclic_classes_skip_the_partition_and_match_it(self, monkeypatch):
        # Aut(Z_n) is abelian: each map is its own class, numbered in search
        # order, which is ascending in the key at rank 1. A cyclic carrier
        # with several primes composes its classes from such parts.
        partition = kernels.conjugacy_partition
        monkeypatch.setattr(kernels, "conjugacy_partition", None)
        for n in range(1, 256):
            if len(_prime_factorization(n)) > 1:
                continue
            G = AbelianGroup((n,) if n > 1 else ())
            table = autgroup._conjugacy.__wrapped__(G)
            (part,) = table.parts
            class_ids, reps = partition(part.perms, G.generator_indices)
            assert part.class_ids == tuple(class_ids), n
            assert [f.perm for f in table.reps] == [tuple(part.perms[i]) for i in reps], n

    @pytest.mark.parametrize("factors, count", [((2,) * 5, 27), ((3,) * 4, 78), ((5,) * 3, 120)])
    def test_scanned_carriers_list_no_aut(self, factors, count, monkeypatch):
        # the route is chosen from the carrier, as in classification: 2^5 and
        # 3^4, whose Aut is over the budget, are served, and no carrier of
        # the scan's shape reaches the kernel's search
        def refuse(*args):
            raise AssertionError("Aut was listed")

        clear_carrier_caches()
        monkeypatch.setattr(kernels, "_linear_bijections", refuse)
        reps = conjugacy_representatives(AbelianGroup(factors))
        assert reps == polymod.least_members(factors[0], len(factors))
        assert len(reps) == count

    def test_representatives_are_lex_least(self):
        G = AbelianGroup((2, 4))
        for rep in conjugacy_representatives(G):
            assert lex_least_conjugate(G, rep) == rep

    @pytest.mark.parametrize("spec", ["4,4|0,1;3,2", "2,12|1,6;1,5"])
    def test_listed_least_conjugate_builds_no_permutation(self, spec):
        # the class is named from the generator images alone
        group_part, phi_part = spec.split("|")
        G = AbelianGroup.from_spec(group_part)
        f = parse_phi_spec(G, phi_part)
        least = lex_least_conjugate(G, f)
        assert "perm" not in f.__dict__
        assert least in conjugacy_representatives(G)
        assert is_conjugate(G, f, least) is not None

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



class TestStorage:
    """Aut is stored one byte per element up to 256 elements, as tuples above."""

    @pytest.mark.parametrize("factors", [(), (8,), (2, 2, 4), (2, 6), (3, 3), (2, 2, 12)])
    def test_public_perms_are_tuples(self, factors):
        G = AbelianGroup(factors)
        assert all(type(p) is bytes for p in _automorphism_perms(G))
        reps = conjugacy_representatives(G)
        assert all(type(f.perm) is tuple for f in reps)
        for p in _automorphism_perms(G)[::7]:
            f = Automorphism._from_perm(G, p)
            assert type(f.perm) is tuple and f.perm == tuple(p)
            least = lex_least_conjugate(G, f)
            assert type(least.perm) is tuple and least in reps
            h = is_conjugate(G, f, least)
            assert type(h.perm) is tuple
            assert h.compose(f) == least.compose(h)
            assert Automorphism(G, h.images).perm == h.perm

    def test_stored_maps_take_under_n_plus_64_bytes_each(self):
        # a tuple of 32 ints takes 8 * 32 + 40 bytes; bytes of 32 take 65,
        # plus the slot that holds them
        G = AbelianGroup((2, 2, 2, 4))
        clear_carrier_caches()
        _group_tables(G)  # built before tracing: only the listing is measured
        tracemalloc.start()
        try:
            perms = _automorphism_perms(G)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(perms) == 21504
        assert held < len(perms) * (G.order + 64)

    @pytest.mark.parametrize(
        "factors, count, digest",
        [
            ((257,), 256, "02c90beb0cd27c125b1542738d59951c449231b1c90dc6580d6886b8e7b767d8"),
            ((17, 17), 288, "852ff21a75910171f805465f21efc3941a2a732ce091eed7234570ef9d3d4b8c"),
        ],
    )
    def test_tuple_perms_above_256_elements(self, factors, count, digest):
        # the sha256 of the representatives' specs joined by spaces, as
        # computed when every perm was a tuple
        G = AbelianGroup(factors)
        try:
            # Aut is listed once, by the classes, and read from them
            table = autgroup._conjugacy(G)
            assert all(type(p) is tuple for p in table.parts[0].perms)
            specs = [f.spec() for f in table.reps]
            assert len(specs) == count
            assert hashlib.sha256(" ".join(specs).encode()).hexdigest() == digest
            assert all(type(f.perm) is tuple for f in table.reps)
        finally:
            # Aut(17,17) as tuples is about 185 MB
            clear_carrier_caches()

def _aut_route(G):
    """Reference: Aut(G) enumerated and partitioned whole, as before the
    classes were composed from the Sylow parts. Returns (perms, class_ids,
    representative indices, class sizes)."""
    perms = _automorphism_perms(G)
    class_ids, reps = kernels.conjugacy_partition(perms, G.generator_indices)
    sizes = [0] * len(reps)
    for cid in class_ids:
        sizes[cid] += 1
    return [tuple(p) for p in perms], class_ids, reps, tuple(sizes)


def _composite_carriers(max_order):
    return [
        G
        for n in range(1, max_order + 1)
        if len(_prime_factorization(n)) >= 2
        for G in enumerate_groups(n)
    ]


def hillar_rhea_aut_order(factors):
    """|Aut| in closed form, prime by prime (Hillar & Rhea, "Automorphisms of
    finite abelian groups", Amer. Math. Monthly 114, 2007): for exponents
    e_1 <= ... <= e_k of p, with d_j the last and c_j the first position
    holding e_j, |Aut| = prod (p^d_j - p^(j-1)) (p^e_j)^(k-d_j) (p^(e_j-1))^(k-c_j+1)."""
    total = 1
    primes = sorted({p for d in factors for p in _prime_factorization(d)})
    for p in primes:
        e = sorted(v for d in factors if (v := _prime_factorization(d).get(p, 0)))
        k = len(e)
        for j in range(1, k + 1):
            d_j = max(l for l in range(1, k + 1) if e[l - 1] == e[j - 1])
            c_j = min(l for l in range(1, k + 1) if e[l - 1] == e[j - 1])
            total *= (p**d_j - p ** (j - 1)) * p ** (e[j - 1] * (k - d_j))
            total *= p ** ((e[j - 1] - 1) * (k - c_j + 1))
    return total


def _reference_crt_tables(G, P):
    """(offset, embed, project) by coordinates: y in P goes to G with
    coordinate offset + j set to y_j * u_j mod d for the CRT idempotent u_j,
    and x in G goes to P with coordinate j set to x_{offset+j} mod q_j."""
    offset = G.rank - P.rank
    tail = list(zip(G.factors[offset:], P.factors))
    units = [d // q * pow(d // q, -1, q) for d, q in tail]
    embed = [
        G.index((0,) * offset + tuple(y * u % d for y, u, (d, _) in zip(x, units, tail)))
        for x in P.elements
    ]
    project = [P.index(tuple(c % q for c, q in zip(x[offset:], P.factors))) for x in G.elements]
    return offset, embed, project


class TestSylowProduct:
    """The classes composed from the Sylow parts against the Aut route."""

    @pytest.mark.parametrize("G", _composite_carriers(48), ids=str)
    def test_crt_tables_match_coordinate_reference(self, G):
        for P in sylow_parts(G):
            offset, embed, project = _reference_crt_tables(G, P)
            assert _crt_tables(G, P) == (offset, embed), P
            assert [project[x] for x in embed] == list(range(P.order)), P

    @pytest.mark.parametrize("G", _composite_carriers(48), ids=str)
    def test_representatives_and_sizes_match_aut_route(self, G):
        perms, _, reps, sizes = _aut_route(G)
        assert [f.perm for f in conjugacy_representatives(G)] == [perms[i] for i in reps]
        assert conjugacy_class_sizes(G) == sizes

    def test_lex_least_matches_aut_route_on_every_map(self):
        for G in _composite_carriers(24):
            perms, class_ids, reps, _ = _aut_route(G)
            for perm, cid in zip(perms, class_ids):
                f = Automorphism._from_perm(G, perm)
                assert lex_least_conjugate(G, f).perm == perms[reps[cid]], (G, f)

    def test_lex_least_matches_aut_route_on_sampled_maps(self):
        G = AbelianGroup((2, 2, 2, 6))
        perms, class_ids, reps, _ = _aut_route(G)
        for i in random.Random(14).sample(range(len(perms)), 200):
            f = Automorphism._from_perm(G, perms[i])
            assert lex_least_conjugate(G, f).perm == perms[reps[class_ids[i]]], f

    def test_closed_form_aut_order_matches_enumeration(self):
        for n in range(1, 49):
            if n == 32:
                continue
            for G in enumerate_groups(n):
                assert hillar_rhea_aut_order(G.factors) == len(_automorphism_perms(G)), G

    def test_budget_guard_on_the_carrier_bounds_the_parts_and_the_scan(self):
        # The guard counts G's candidate tuples. That count is the product of
        # the parts' counts, so it bounds each part's search, and it is at
        # least |Aut(G)|, the number of maps the product scan visits.
        for n in range(1, 201):
            for G in enumerate_groups(n):
                count = _candidate_count(G)
                assert count == math.prod(_candidate_count(P) for P in sylow_parts(G)), G
                assert count >= hillar_rhea_aut_order(G.factors), G

    @pytest.mark.parametrize(
        "factors, count",
        [
            ((2, 2, 2, 2, 2), 33554432),
            ((3, 3, 3, 3), 43046721),
            ((2, 2, 2, 2, 4), 67108864),
            ((2, 2, 2, 2, 6), 100663296),
        ],
    )
    def test_budget_message_names_the_carrier(self, factors, count):
        # the Aut route refuses these carriers, and a carrier with two primes
        # as a whole, before any part is searched; 64 exits 3 with the
        # message of 2,2,2,2,4, while 2^5, 3^4 and 2,2,2,2,6 take the scan
        G = AbelianGroup(factors)
        with pytest.raises(EnumerationBudgetError) as exc:
            _automorphism_perms(G)
        assert str(exc.value) == (
            f"enumerating automorphisms of {G} needs {count} candidate "
            "image tuples, over the budget of 16777216"
        )


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

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "0,1;0,1",
                "image (0, 1) of a generator of order 2 has order 4; the map is not well defined",
            ),
            ("1,0;0,2", "map 1,0;0,2 on 2,4 is not bijective"),
            ("1,0", "expected 2 generator images for 2,4, got 1"),
            ("1,0;0,x", "bad generator image '0,x'"),
            ("1,0;1", "image '1' has 1 coordinates, expected 2"),
        ],
    )
    def test_errors_are_pinned(self, text, message):
        with pytest.raises(SpecError) as raised:
            parse_phi_spec(AbelianGroup((2, 4)), text)
        assert type(raised.value) is SpecError
        assert str(raised.value) == message

    def test_errors(self):
        G = AbelianGroup((4, 4))
        with pytest.raises(SpecError):
            parse_phi_spec(G, "0,1")
        with pytest.raises(SpecError):
            parse_phi_spec(G, "0,1;3,x")
        with pytest.raises(SpecError):
            parse_phi_spec(G, "2,0;0,1")  # not bijective
