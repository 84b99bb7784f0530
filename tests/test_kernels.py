import itertools

import pytest

from alexq.abelian import AbelianGroup, enumerate_groups
from alexq.autgroup import (
    Automorphism,
    _group_tables,
    conjugacy_representatives,
    enumerate_automorphisms,
    is_conjugate,
)
from alexq.kernels import _commuting_levels, conjugacy_partition, invert_perm
from alexq.lambda_modules import (
    LambdaModule,
    _image_indices,
    image_one_minus_t,
    is_lambda_isomorphic,
)


def _partition_by_full_expansion(perms, gens):
    """Reference route: expand each class by conjugating with every element."""
    index_of = {tuple([p[g] for g in gens]): i for i, p in enumerate(perms)}
    pulls = [[h.index(g) for g in gens] for h in perms]
    class_ids = [-1] * len(perms)
    reps = []
    for i, f in enumerate(perms):
        if class_ids[i] != -1:
            continue
        reps.append(i)
        for h, pull in zip(perms, pulls):
            class_ids[index_of[tuple([h[f[x]] for x in pull])]] = len(reps) - 1
    return class_ids, reps


@pytest.mark.parametrize("factors", [(), (8,), (2, 4), (3, 3), (4, 4), (2, 2, 2)])
def test_partition_matches_definitional_conjugacy(factors):
    G = AbelianGroup(factors)
    auts = enumerate_automorphisms(G)
    class_ids, reps = conjugacy_partition([f.perm for f in auts], G.generator_indices)
    assert len(class_ids) == len(auts)
    for i, f in enumerate(auts):
        for j in range(i, len(auts)):
            same = class_ids[i] == class_ids[j]
            assert same == (is_conjugate(G, f, auts[j]) is not None), (f, auts[j])
    # each representative is the least-index member of its class
    assert reps == [class_ids.index(c) for c in range(len(reps))]


@pytest.mark.parametrize(
    "factors", [(2, 2, 2, 2), (3, 3, 3), (2, 2, 4), (2, 4, 4), (2, 2, 12)]
)
def test_partition_matches_full_expansion(factors):
    G = AbelianGroup(factors)
    perms = [f.perm for f in enumerate_automorphisms(G)]
    gens = G.generator_indices
    assert conjugacy_partition(perms, gens) == _partition_by_full_expansion(perms, gens)


def test_invert_perm():
    p = (2, 0, 3, 1)
    inv = invert_perm(p)
    assert inv == (1, 3, 0, 2)
    assert tuple(p[i] for i in inv) == (0, 1, 2, 3)
    G = AbelianGroup((2, 4))
    for f in enumerate_automorphisms(G):
        assert tuple(f.perm[i] for i in invert_perm(f.perm)) == tuple(range(G.order))


# --- the shared search against the routes it replaced -----------------------


def _conjugates_by_full_scan(G, f):
    """Reference: each h o f o h^-1 over sorted Aut(G), keyed by its generator
    images, with the first h that gives it."""
    fp, gens = f.perm, G.generator_indices
    found = {}
    for h in enumerate_automorphisms(G):
        hp, hinv = h.perm, invert_perm(h.perm)
        found.setdefault(tuple(hp[fp[hinv[x]]] for x in gens), h)
    return found


def _isomorphic_by_prefix_search(M, M2):
    """Reference: the witness search that re-checks the whole prefix at every node."""
    if M.group != M2.group:
        return None
    if M.t.cycle_type() != M2.t.cycle_type():
        return None
    if len(_image_indices(M)) != len(_image_indices(M2)):
        return None
    G = M.group
    n, k = G.order, G.rank
    if k == 0:
        return Automorphism(G, ())
    t1, t2 = M.t.perm, M2.t.perm
    orders = [G.element_order(x) for x in G.elements]
    add, _ = _group_tables(G)
    candidates = [[i for i in range(n) if orders[i] == d] for d in G.factors]

    def extend(i, partial):
        d = G.factors[i]
        for img in candidates[i]:
            new = list(partial)
            base = 0
            for _ in range(1, d):
                base = add[base * n + img]
                new.extend(add[base * n + y] for y in partial)
            if len(set(new)) != len(new):
                continue
            span = len(new)
            if any(t1[x] < span and t2[new[x]] != new[t1[x]] for x in range(span)):
                continue
            if i == 0:
                return new
            result = extend(i - 1, new)
            if result is not None:
                return result
        return None

    full = extend(k - 1, [0])
    return None if full is None else Automorphism(G, tuple(G.element(full[g]) for g in G.generator_indices))


def _assert_intertwines(G, h, t1, t2):
    """h is a linear bijection of G with h o t1 = t2 o h."""
    assert Automorphism(G, h.images).perm == h.perm
    assert all(h.perm[t1.perm[x]] == t2.perm[h.perm[x]] for x in range(G.order))


def test_commuting_levels_list_each_pair_once_where_it_is_first_covered():
    G = AbelianGroup((2, 4, 12))
    t = enumerate_automorphisms(G)[1234]
    levels = _commuting_levels(G.factors, t.perm)
    listed = [pair for level in levels for pair in level]
    assert sorted(listed) == [(x, t.perm[x]) for x in range(1, G.order)]
    for i, level in enumerate(levels):
        covered = 1
        for d in G.factors[i:]:
            covered *= d
        for x, tx in level:
            assert max(x, tx) < covered
            assert max(x, tx) >= covered // G.factors[i]


@pytest.mark.parametrize(
    "factors, step", [((2, 4), 1), ((4, 4), 1), ((3, 3), 1), ((2, 2, 2), 7)]
)
def test_search_matches_replaced_routes_on_automorphism_pairs(factors, step):
    G = AbelianGroup(factors)
    modules = [LambdaModule(G, f) for f in enumerate_automorphisms(G)[::step]]
    for M in modules:
        f = M.t
        conjugates = _conjugates_by_full_scan(G, f)
        for M2 in modules:
            g = M2.t
            h = is_conjugate(G, f, g)
            lam = is_lambda_isomorphic(M, M2)
            expected = tuple(g.perm[x] for x in G.generator_indices) in conjugates
            assert (h is not None) == (lam is not None) == expected, (f, g)
            assert (_isomorphic_by_prefix_search(M, M2) is not None) == expected, (f, g)
            if h is not None:
                _assert_intertwines(G, h, f, g)
                _assert_intertwines(G, lam, f, g)


@pytest.mark.parametrize("order", [8, 16, 27, 48])
def test_search_matches_prefix_search_on_image_pairs(order):
    images = {}
    for G in enumerate_groups(order):
        for rep in conjugacy_representatives(G):
            image = image_one_minus_t(LambdaModule(G, rep))
            images.setdefault(image.group, {})[image.spec()] = image
    for same_carrier in images.values():
        for M, M2 in itertools.combinations_with_replacement(same_carrier.values(), 2):
            h = is_lambda_isomorphic(M, M2)
            assert (h is None) == (_isomorphic_by_prefix_search(M, M2) is None), (M, M2)
            if h is not None:
                _assert_intertwines(M.group, h, M.t, M2.t)
