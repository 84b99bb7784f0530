"""The hot-loop kernels: automorphism enumeration and conjugacy partitioning.

They operate on flat integer tables so they stay independent of the object
layer:

- elements of a group of order n are the indices 0..n-1 (lexicographic
  coordinate order, zero element at index 0),
- `add` is the flat n*n addition table, add[a*n + b],
- permutations are tuples p of length n with p[i] = image of element i,
- `gens` are the element indices of the standard generators; a linear map
  is fixed by its generator images tuple(p[g] for g in gens).
"""

from __future__ import annotations


def invert_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def enumerate_linear_bijections(n, factors, gen_idx, add, allowed):
    """All bijective linear self-maps, as permutations of element indices.

    factors: the invariant factors d_1 | ... | d_k
    gen_idx: element indices of the standard generators
    allowed: per generator position i, the candidate image indices in
        ascending order (callers pre-filter by element order so every
        candidate tuple extends to a well-defined endomorphism)

    Returns the permutations sorted by their generator-image tuples, which
    equals sorting by flattened image coordinates.

    Images are assigned from the last generator position upward, so the
    partial map always covers a prefix of the element indices (the span of
    the generators chosen so far; index = sum of c_i * suffix strides). A
    repeated value in a partial map kills the whole candidate subtree, which
    is what keeps the search near the size of the output.
    """
    k = len(factors)
    if k == 0:
        return [(0,)]

    results = []

    def extend(i, partial):
        # partial maps the span of generators i+1..k-1, a prefix of indices
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
            if i == 0:
                results.append(tuple(new))
            else:
                extend(i - 1, new)

    extend(k - 1, [0])
    results.sort(key=lambda p: tuple(p[g] for g in gen_idx))
    return results


def conjugacy_partition(perms, gens):
    """Partition a full list of automorphism permutations into conjugacy classes.

    perms must be the complete automorphism list (closed under composition
    and inverses); gens are the generator element indices. Returns
    (class_ids, reps): class_ids[i] is the class of perms[i]; reps lists one
    member index per class in discovery order. Scanning in input order makes
    each discovered representative the least-index member of its class,
    hence for input sorted by generator images the lexicographically least
    one.

    The class of f is expanded as its orbit {h o f o h^-1 : h in Aut}. Each
    conjugate is identified by its generator images alone, h(f(h^-1(g))) for
    g in gens, so only h^-1 on the generators is stored (`pulls`), and a
    conjugate costs k lookups instead of a full n-element permutation.
    """
    index_of = {tuple([p[g] for g in gens]): i for i, p in enumerate(perms)}
    pulls = [[p.index(g) for g in gens] for p in perms]
    class_ids = [-1] * len(perms)
    reps = []
    for i, f in enumerate(perms):
        if class_ids[i] != -1:
            continue
        cid = len(reps)
        reps.append(i)
        for h, pull in zip(perms, pulls):
            class_ids[index_of[tuple([h[f[x]] for x in pull])]] = cid
    return class_ids, reps
