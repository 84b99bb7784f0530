import itertools
import math
import random

import pytest

from alexq import kernels
from alexq.abelian import AbelianGroup, _addition_rows, _prime_factorization, enumerate_groups
from alexq.autgroup import (
    Automorphism,
    _automorphism_perms,
    _group_tables,
    conjugacy_representatives,
    is_conjugate,
)
from alexq.kernels import (
    _GENERATOR_STRIDE,
    _coset_checks,
    _generating_set,
    _linear_bijections,
    _packed_keys,
    _StabilizerChain,
    conjugacy_partition,
    enumerate_linear_bijections,
    invert_perm,
    search_rows,
)
from alexq.lambda_modules import (
    LambdaModule,
    _image_indices,
    image_one_minus_t,
    is_lambda_isomorphic,
)

from helpers import enumerate_automorphisms


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
    # bytes maps and the same maps as tuples, each sorted by key
    G = AbelianGroup(factors)
    gens = G.generator_indices
    compact = sorted(_automorphism_perms(G), key=lambda p: tuple(p[g] for g in gens))
    for perms in (compact, [f.perm for f in enumerate_automorphisms(G)]):
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


def _reference_tables(G):
    """Reference: the flat addition table add[a*n + b] and the image indices
    allowed per generator position, from the checked group operations."""
    elements = G.elements
    add = [G.index(G.add(x, y)) for x in elements for y in elements]
    allowed = [
        [i for i, x in enumerate(elements) if G.scalar_mul(d, x) == G.zero] for d in G.factors
    ]
    return add, allowed


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
    add, _ = _reference_tables(G)
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


def _reference_linear_bijections(n, factors, add, allowed, t1=None, t2=None):
    """Reference: the search that marks a fresh bitmap and translates the
    whole prefix for every candidate before testing injectivity."""
    k = len(factors)
    if k == 0:
        return [(0,)]
    if t1 is None:
        checks = [()] * k
    else:
        # each position's pairs, checked once all its cosets are built
        checks = [list(itertools.chain(*buckets)) for buckets in _coset_checks(factors, t1)]
    results = []

    def extend(i, partial):
        d = factors[i]
        width = len(partial)
        for img in allowed[i]:
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
            for x, tx in checks[i]:
                if t2[new[x]] != new[tx]:
                    ok = False
                    break
            if not ok:
                continue
            if i == 0:
                results.append(tuple(new))
                if t1 is not None:
                    return True
            elif extend(i - 1, new):
                return True
        return False

    extend(k - 1, [0])
    return results


def _key_index(perms, gens):
    return {tuple([p[g] for g in gens]): i for i, p in enumerate(perms)}


def _closure(perms, gens, index_of, chosen):
    """Reference: the indices of the group generated by chosen, grown by BFS."""
    found = {index_of[tuple(gens)]}
    queue = list(found)
    for i in queue:
        x = perms[i]
        for s in chosen:
            j = index_of[tuple([s[x[g]] for g in gens])]
            if j not in found:
                found.add(j)
                queue.append(j)
    return found


def _reference_generating_set(perms, gens, index_of):
    """Reference: the stride walk that proves generation by a BFS closure
    over the whole group."""
    count = len(perms)
    step = _GENERATOR_STRIDE % count
    while math.gcd(step, count) != 1:
        step += 1
    in_closure = bytearray(count)
    identity = index_of[tuple(gens)]
    in_closure[identity] = 1
    closure = [identity]

    def grow(s, x):
        j = index_of[tuple([s[x[g]] for g in gens])]
        if not in_closure[j]:
            in_closure[j] = 1
            closure.append(j)

    chosen = []
    cand = 0
    while len(closure) < count:
        cand = (cand + step) % count
        if in_closure[cand]:
            continue
        new = perms[cand]
        chosen.append(new)
        old = len(closure)
        for pos in range(old):
            grow(new, perms[closure[pos]])
        pos = old
        while pos < len(closure):
            x = perms[closure[pos]]
            pos += 1
            for s in chosen:
                grow(s, x)
    return chosen


ENUMERABLE_ORDERS = [n for n in range(1, 49) if n != 32]


@pytest.mark.parametrize("order", ENUMERABLE_ORDERS)
def test_search_matches_reference_search(order):
    for G in enumerate_groups(order):
        n, gens = G.order, G.generator_indices
        expected = _reference_linear_bijections(n, G.factors, *_reference_tables(G))
        rows, candidates = _addition_rows(G), _group_tables(G)[1]
        assert _linear_bijections(n, G.factors, rows, candidates) == expected, G
        assert enumerate_linear_bijections(n, G.factors, rows, candidates) == expected, G
        expected.sort(key=lambda p: tuple(p[g] for g in gens))
        assert [f.perm for f in enumerate_automorphisms(G)] == expected, G


@pytest.mark.parametrize("order", ENUMERABLE_ORDERS)
def test_search_order_is_ascending_in_reversed_key(order):
    # no sort is needed to bisect a part's list or to partition it
    for G in enumerate_groups(order):
        gens = G.generator_indices[::-1]
        keys = [tuple(p[g] for g in gens) for p in _automorphism_perms(G)]
        assert all(a < b for a, b in zip(keys, keys[1:])), G


PRIME_POWER_CARRIERS = [
    G
    for n in ENUMERABLE_ORDERS
    if len(_prime_factorization(n)) <= 1  # the trivial group is its own single part
    for G in enumerate_groups(n)
]


@pytest.mark.parametrize("G", PRIME_POWER_CARRIERS, ids=str)
def test_partition_does_not_depend_on_input_order(G):
    # classes, least members and numbering on search order and on seeded
    # shuffles are those of the input sorted by key
    gens = G.generator_indices
    perms = list(_automorphism_perms(G))
    in_sorted = [f.perm for f in enumerate_automorphisms(G)]
    class_ids, reps = conjugacy_partition(in_sorted, gens)
    class_of = dict(zip(in_sorted, class_ids))
    least = [in_sorted[i] for i in reps]
    inputs = [perms]
    for seed in (1, 2):
        shuffled = perms[:]
        random.Random(seed).shuffle(shuffled)
        inputs.append(shuffled)
    for shuffled in inputs:
        ids, found = conjugacy_partition(shuffled, gens)
        assert dict(zip(map(tuple, shuffled), ids)) == class_of, G
        assert [tuple(shuffled[i]) for i in found] == least, G


@pytest.mark.parametrize("order", ENUMERABLE_ORDERS)
def test_generating_set_matches_bfs_selection(order):
    for G in enumerate_groups(order):
        perms, gens = _automorphism_perms(G), G.generator_indices
        index_of = _key_index(perms, gens)
        chosen = _generating_set(perms, gens, index_of)
        assert chosen == _reference_generating_set(perms, gens, index_of), G
        assert len(_closure(perms, gens, index_of, chosen)) == len(perms), G
        assert len(chosen) <= 4, G


@pytest.mark.parametrize("factors", [(2, 2, 2, 2), (3, 3, 3), (2, 4, 4), (2, 2, 2, 6)])
def test_chain_order_and_members_match_bfs_closure(factors):
    G = AbelianGroup(factors)
    perms, gens = _automorphism_perms(G), G.generator_indices
    index_of = _key_index(perms, gens)
    chosen = _generating_set(perms, gens, index_of)
    # the walk stops once the last kept map completes the group, so every
    # proper prefix of chosen generates a proper subgroup
    for subset, proper in (
        ([chosen[0]], True),
        (chosen[:-1], True),
        ([chosen[0], perms[len(perms) // 2]], False),
    ):
        chain = _StabilizerChain(perms, gens, index_of)
        for s in subset:
            if s not in chain:
                chain.add(s)
        members = _closure(perms, gens, index_of, subset)
        assert chain.order() == len(members), subset
        assert [p in chain for p in perms] == [i in members for i in range(len(perms))]
        if proper:
            assert chain.order() < len(perms), subset


def _assert_intertwines(G, h, t1, t2):
    """h is a linear bijection of G with h o t1 = t2 o h."""
    assert Automorphism(G, h.images).perm == h.perm
    assert all(h.perm[t1.perm[x]] == t2.perm[h.perm[x]] for x in range(G.order))


def test_coset_checks_list_each_pair_once_where_it_is_first_covered():
    G = AbelianGroup((2, 4, 12))
    t = enumerate_automorphisms(G)[1234]
    checks = _coset_checks(G.factors, t.perm)
    listed = [pair for buckets in checks for bucket in buckets for pair in bucket]
    assert sorted(listed) == [(x, t.perm[x]) for x in range(1, G.order)]
    for i, buckets in enumerate(checks):
        # coset c of position i extends the prefix of w indices to (c+1)*w
        width = math.prod(G.factors[i + 1 :])
        assert len(buckets) == G.factors[i] - 1
        for c, bucket in enumerate(buckets, 1):
            for x, tx in bucket:
                assert c * width <= max(x, tx) < (c + 1) * width


@pytest.mark.parametrize(
    "factors, step", [((2, 4), 1), ((4, 4), 1), ((3, 3), 1), ((2, 2, 2), 7)]
)
def test_search_matches_replaced_routes_on_automorphism_pairs(factors, step):
    G = AbelianGroup(factors)
    n = G.order
    add, allowed = _reference_tables(G)
    modules = [LambdaModule(G, f) for f in enumerate_automorphisms(G)[::step]]
    for M in modules:
        f = M.t
        conjugates = _conjugates_by_full_scan(G, f)
        for M2 in modules:
            g = M2.t
            h = is_conjugate(G, f, g)
            if f.cycle_type() == g.cycle_type():
                first = _reference_linear_bijections(n, factors, add, allowed, f.perm, g.perm)
                assert (h.perm if h else None) == (first[0] if first else None), (f, g)
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


# --- perms as bytes and as tuples -------------------------------------------


@pytest.mark.parametrize("order", ENUMERABLE_ORDERS)
def test_search_gives_bytes_from_bytes_rows_and_tuples_from_tuple_rows(order):
    for G in enumerate_groups(order):
        n = G.order
        rows, candidates = _addition_rows(G), _group_tables(G)[1]
        compact = _linear_bijections(n, G.factors, search_rows(n, rows), candidates)
        assert all(type(p) is bytes and len(p) == n for p in compact), G
        assert _automorphism_perms(G) == tuple(compact), G
        assert [tuple(p) for p in compact] == _linear_bijections(n, G.factors, rows, candidates)


def test_search_rows_keep_tuples_above_one_byte_per_element():
    rows = _addition_rows(AbelianGroup((257,)))
    assert search_rows(257, rows) is rows
    rows = _addition_rows(AbelianGroup((2, 128)))
    table = search_rows(256, rows)
    assert all(type(t) is bytes and len(t) == 256 for t in table)
    assert [tuple(t) for t in table] == rows


@pytest.mark.parametrize("factors", [(2, 128), (257,), (17, 17)], ids=str)
def test_group_tables_hold_one_copy_of_the_rows_in_the_search_format(factors):
    # bytes translate tables up to 256 elements, tuples above; the search,
    # the image, the label and the Cayley table all read these rows
    G = AbelianGroup(factors)
    n, elements = G.order, G.elements
    rows = _group_tables(G)[0]
    if n <= 256:
        assert all(type(row) is bytes and len(row) == 256 for row in rows)
    else:
        assert all(type(row) is tuple and len(row) == n for row in rows)
    assert len(rows) == n
    for a, x in enumerate(elements):
        assert list(rows[a][:n]) == [G.index(G.add(x, y)) for y in elements], a


@pytest.mark.parametrize("order", ENUMERABLE_ORDERS)
def test_kernels_give_the_same_results_on_bytes_and_on_tuples(order):
    for G in enumerate_groups(order):
        gens = G.generator_indices
        compact = _automorphism_perms(G)
        tuples = [tuple(p) for p in compact]
        assert conjugacy_partition(tuples, gens) == conjugacy_partition(compact, gens), G
        chains, chosen = [], []
        for perms in (compact, tuples):
            index_of = _key_index(perms, gens)
            found = _generating_set(perms, gens, index_of)
            chosen.append([tuple(s) for s in found])
            # a proper subgroup, so that membership is not always true
            chain = _StabilizerChain(perms, gens, index_of)
            for s in found[:-1]:
                if s not in chain:
                    chain.add(s)
            chains.append((chain.order(), [p in chain for p in perms]))
        assert chosen[0] == chosen[1], G
        assert chains[0] == chains[1], G


# --- the packed-key partition of bytes maps ----------------------------------


@pytest.mark.parametrize("order", ENUMERABLE_ORDERS)
def test_packed_keys_are_the_big_endian_generator_images(order):
    for G in enumerate_groups(order):
        perms, gens = _automorphism_perms(G), G.generator_indices
        expected = [int.from_bytes(bytes(p[g] for g in gens), "big") for p in perms]
        assert list(_packed_keys(perms, gens)) == expected, G


@pytest.mark.parametrize("factors", [(2, 2, 4), (3, 9), (2, 2, 2, 2)], ids=str)
def test_partition_across_block_edges(monkeypatch, factors):
    # blocks of 7 maps split every pass; 192 and 108 maps leave a short
    # last block, and the 20,160 of 2,2,2,2 fill the last one
    monkeypatch.setattr(kernels, "CHUNK", 7)
    G = AbelianGroup(factors)
    gens = G.generator_indices
    perms = sorted(_automorphism_perms(G), key=lambda p: tuple(p[g] for g in gens))
    assert conjugacy_partition(perms, gens) == _partition_by_full_expansion(perms, gens)


def _first_intertwiner(perms, t1, t2):
    """Reference: the first h in search order with h o t1 = t2 o h."""
    for h in perms:
        if all(h[t1[x]] == t2[h[x]] for x in range(len(t1))):
            return h
    return None


@pytest.mark.parametrize("factors", [(2, 2, 2, 2), (3, 3, 3), (2, 4, 4)], ids=str)
def test_constrained_search_returns_the_first_witness(factors):
    G = AbelianGroup(factors)
    n = G.order
    perms = _automorphism_perms(G)
    rows, candidates = _group_tables(G)
    rng = random.Random(sum(factors))
    negatives = 0
    for _ in range(12):
        t1, h = rng.choice(perms), rng.choice(perms)
        h_inv = invert_perm(h)
        conjugate = bytes(h[t1[h_inv[x]]] for x in range(n))
        for t2 in (conjugate, rng.choice(perms)):
            expected = _first_intertwiner(perms, t1, t2)
            negatives += expected is None
            found = _linear_bijections(n, G.factors, rows, candidates, t1, t2)
            assert found == ([] if expected is None else [expected]), (t1, t2)
            tuples = _linear_bijections(n, G.factors, _addition_rows(G), candidates, t1, t2)
            assert tuples == [tuple(p) for p in found], (t1, t2)
    assert negatives, G
