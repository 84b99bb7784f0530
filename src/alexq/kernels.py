"""The hot-loop kernels: the search for linear bijections and conjugacy partitioning.

They operate on flat integer tables so they stay independent of the object
layer:

- elements of a group of order n are the indices 0..n-1 (lexicographic
  coordinate order, zero element at index 0),
- `add` is the flat n*n addition table, add[a*n + b],
- permutations are tuples p of length n with p[i] = image of element i,
- `gens` are the element indices of the standard generators; a linear map
  is fixed by its generator images tuple(p[g] for g in gens).

One pruned search over generator images (`_linear_bijections`) finds
bijective linear maps h. Without constraints it lists Aut; given two
actions t1 and t2 it stops at the first h with h o t1 = t2 o h, which
decides both conjugacy in Aut and module isomorphism. The conjugacy
partition treats each class as an orbit: it finds a small generating set
S of the group, then closes each class under conjugation by S alone.
"""

from __future__ import annotations

import math


def invert_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted cycle lengths of the permutation p."""
    seen = bytearray(len(p))
    lengths = []
    for start in range(len(p)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            x = p[x]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def _commuting_levels(factors, t1):
    """The pairs (x, t1[x]) to check at each generator position.

    Once position i has its image, the partial map covers the indices below
    prod(factors[i:]). A pair is listed at the position whose prefix first
    holds both of its ends, so each pair is checked exactly once.
    """
    bounds = [math.prod(factors[i:]) for i in range(len(factors))]
    levels = [[] for _ in factors]
    for x, tx in enumerate(t1):
        top = max(x, tx)
        if top:
            i = len(factors) - 1
            while top >= bounds[i]:
                i -= 1
            levels[i].append((x, tx))
    return levels


def _linear_bijections(n, factors, add, allowed, t1=None, t2=None):
    """Bijective linear self-maps h as permutations, in search order.

    allowed: per generator position i, the candidate image indices in
        ascending order (pre-filtered by element order so every candidate
        tuple extends to a well-defined endomorphism)
    t1, t2: permutations of the elements; when given, only maps with
        h o t1 = t2 o h are kept and the search stops at the first one, so
        the result holds at most one map

    Images are assigned from the last generator position upward, so the
    partial map always covers a prefix of the element indices (the span of
    the generators chosen so far; index = sum of c_i * suffix strides). A
    repeated value in a partial map kills the whole candidate subtree, which
    is what keeps the search near the size of the output. The commuting
    constraint h[t1[x]] = t2[h[x]] is checked at the first position whose
    prefix holds both x and t1[x] (`_commuting_levels`).
    """
    k = len(factors)
    if k == 0:
        return [(0,)]
    checks = [()] * k if t1 is None else _commuting_levels(factors, t1)
    results = []

    def extend(i, partial):
        # partial maps the span of generators i+1..k-1, a prefix of indices;
        # returns True once a constrained search has its map
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
                base = add[base * n + img]  # base = c*img for c = 1, 2, ...
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


def enumerate_linear_bijections(n, factors, gen_idx, add, allowed):
    """All bijective linear self-maps, as permutations of element indices.

    factors: the invariant factors d_1 | ... | d_k
    gen_idx: element indices of the standard generators
    allowed: candidate images per generator position, see `_linear_bijections`

    Returns the permutations sorted by their generator-image tuples, which
    equals sorting by flattened image coordinates.
    """
    results = _linear_bijections(n, factors, add, allowed)
    results.sort(key=lambda p: tuple(p[g] for g in gen_idx))
    return results


# Step of the walk that picks generators: a large prime reduced mod |Aut|,
# so consecutive candidates land far apart in the sorted order. A walk in
# sorted order keeps many near-identical maps: 9 on Aut(Z2^3 + Z4), where
# this stride keeps 3 (and at most 4 on every enumerable carrier of order
# up to 48).
_GENERATOR_STRIDE = 1_000_003


def _generating_set(perms, gens, index_of):
    """A few perms that generate the whole group.

    Candidates are visited at the multiples of a stride coprime to |Aut|,
    so every index is reached and the loop ends. A candidate is kept only
    if it lies outside the closure of those kept so far; the closure is
    grown by BFS, composing on generator images (s o x sends g to s[x[g]]),
    until it holds all |Aut| elements, which proves the set generates.
    """
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
        # the old closure is closed under the earlier generators, so it
        # needs only the new one; what that adds needs all of them
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


def conjugacy_partition(perms, gens):
    """Partition a full list of automorphism permutations into conjugacy classes.

    perms must be the complete automorphism list (closed under composition
    and inverses); gens are the generator element indices. Returns
    (class_ids, reps): class_ids[i] is the class of perms[i]; reps lists one
    member index per class in discovery order. Scanning in input order makes
    each discovered representative the least-index member of its class,
    hence for input sorted by generator images the lexicographically least
    one.

    A class is the orbit of f under conjugation by Aut, and an orbit under a
    finite group is its closure under a generating set S. So the kernel
    first finds a small S (`_generating_set`), then expands each class by
    s o f o s^-1 for s in S, costing |Aut| * |S| conjugates in all instead
    of |Aut| * #classes. Each conjugate is identified by its generator images
    alone, s(f(s^-1(g))) for g in gens, so only s^-1 on the generators is
    stored, and a conjugate costs k lookups.
    """
    index_of = {tuple([p[g] for g in gens]): i for i, p in enumerate(perms)}
    conj = [(s, [s.index(g) for g in gens]) for s in _generating_set(perms, gens, index_of)]
    class_ids = [-1] * len(perms)
    reps = []
    for i in range(len(perms)):
        if class_ids[i] != -1:
            continue
        cid = len(reps)
        reps.append(i)
        class_ids[i] = cid
        stack = [i]
        while stack:
            f = perms[stack.pop()]
            for s, pull in conj:
                j = index_of[tuple([s[f[x]] for x in pull])]
                if class_ids[j] == -1:
                    class_ids[j] = cid
                    stack.append(j)
    return class_ids, reps
