import pytest

from alexq.abelian import AbelianGroup
from alexq.autgroup import enumerate_automorphisms, is_conjugate
from alexq.kernels import conjugacy_partition, invert_perm


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
