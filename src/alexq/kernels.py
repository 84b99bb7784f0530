"""The hot-loop kernels: the search for linear bijections and conjugacy partitioning.

They operate on integer tables so they stay independent of the object
layer:

- elements of a group of order n are the indices 0..n-1 (lexicographic
  coordinate order, zero element at index 0),
- `rows` is the addition table, one row per element: rows[a][b] is the
  index of a + b; `search_rows` gives each row as a `bytes` translate
  table when n <= 256 and keeps tuples of ints above,
- `candidates` lists per generator position i, for each image allowed
  there (its order divides d_i) in ascending order, its multiples c*img,
  c = 1..d_i-1,
- a permutation p has length n with p[i] = image of element i; the search
  gives `bytes` when its rows are `search_rows` tables (n <= 256, one byte
  per element) and tuples of ints when they are the tuple rows, and every
  kernel takes either,
- `gens` are the element indices of the standard generators; a linear map
  is fixed by its generator images tuple(p[g] for g in gens), its key.

One pruned search over generator images (`_linear_bijections`) finds
bijective linear maps h. Without constraints it lists Aut; given two
actions t1 and t2 it stops at the first h with h o t1 = t2 o h, which
decides both conjugacy in Aut and module isomorphism. The partial map at
each node sends a span of generators onto a subgroup H, and a candidate
image img for the next generator, of order d, extends it injectively
exactly when the multiples c*img, c = 1..d-1, all lie outside H, so a
candidate costs at most d-1 bitmap lookups before anything is built; a
survivor's cosets m + H are read off rows of the addition table in C, by
`bytes.translate` on a bytes partial map and by one itemgetter on a tuple.
`rows` and `candidates` depend on the group alone, so a caller builds them
once per group (`autgroup._group_tables`, in the `search_rows` format). The
search assigns images from the last generator to the first, each in
ascending order, so Aut comes out ascending in the reversed key
(p[g_k-1], ..., p[g_0]) and is never sorted.

The conjugacy partition treats each class as an orbit: it finds a small
generating set S of the group, then closes each class under conjugation by
S alone. That S generates is proved by a Schreier-Sims stabilizer chain on
the base `gens` (`_StabilizerChain`), whose order is the product of its
basic orbit lengths, so no closure over the whole group is built. Each s
in S costs one pass that computes the conjugate s o f o s^-1 of every map
f in C: the columns at s^-1(g) are mapped by s into keys, and the key
index turns them into a table of indices, so the closure only follows
those tables. A key is one packed int on bytes maps, whose pass
translates blocks of joined maps by s, and a tuple on tuple maps, whose
pass reads each column by one getter. The input may come in any order:
one BFS (`_orbits`) closes every class and keeps its least key, and the
classes are numbered by those keys.

The classes of a carrier with several primes are products of classes of
its Sylow parts. `least_keys_of_products` finds the least member of each
product by adding up the parts' generator images through the carrier's
addition rows, so such a carrier's classes need neither its full list of
automorphisms nor any conjugation.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from operator import itemgetter


Perm = bytes | tuple[int, ...]

# The largest group whose element indices fit in one byte each, and the
# length of a `bytes.translate` table
BYTES_LIMIT = 256


def search_rows(n: int, rows: list[tuple[int, ...]]) -> list[bytes] | list[tuple[int, ...]]:
    """The addition rows in the format the search gives its perms.

    Up to BYTES_LIMIT elements, row m becomes a bytes object padded to 256,
    the `bytes.translate` table of y -> m + y, so a perm is one byte per
    element; above that the tuple rows are returned as they are. The
    quandle oracle reads Cayley-table rows, and the maps it applies to a
    whole table, in the same format.
    """
    if n > BYTES_LIMIT:
        return rows
    pad = bytes(BYTES_LIMIT - n)
    return [bytes(row) + pad for row in rows]


def invert_perm(p: Perm) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Sorted cycle lengths of the permutation p, fixed points included.

    >>> cycle_type(bytes([1, 0, 2]))
    (1, 2)
    >>> cycle_type((1, 2, 3, 0))
    (4,)
    """
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


def _coset_checks(factors, t1):
    """The pairs (x, t1[x]) to check, per generator position and per coset.

    At position i the partial map covers the first w = prod(factors[i+1:])
    indices, and its c-th new coset (c = 1..d_i-1) extends it to (c+1)*w,
    so the pair is complete once coset max(x, t1[x]) // w is in. Each pair
    is listed once, at the position with w <= max(x, t1[x]) < w*d_i, in
    bucket max(x, t1[x]) // w - 1.
    """
    widths = [math.prod(factors[i + 1 :]) for i in range(len(factors))]
    checks = [[[] for _ in range(d - 1)] for d in factors]
    for x, tx in enumerate(t1):
        top = max(x, tx)
        if top:
            i = len(factors) - 1
            while top >= widths[i] * factors[i]:
                i -= 1
            checks[i][top // widths[i] - 1].append((x, tx))
    return checks


def _linear_bijections(n, factors, rows, candidates, t1=None, t2=None):
    """Bijective linear self-maps h as permutations, in search order.

    rows, candidates: the group's addition rows and candidate multiples;
        the maps are bytes when rows are `search_rows` tables, else tuples
    t1, t2: permutations of the elements; when given, only maps with
        h o t1 = t2 o h are kept and the search stops at the first one, so
        the result holds at most one map

    Images are assigned from the last generator position upward, so the
    partial map always covers a prefix of the element indices (the span of
    the generators chosen so far; index = sum of c_i * suffix strides), and
    generator i, whose index is the length of the prefix before it, goes to
    the candidate itself. The candidates of a position are tried in
    ascending order, so the maps come out ascending in their reversed keys.
    The partial map sends that span injectively onto a subgroup H, and
    giving generator i (of order d) the image img adds the values
    c*img + H, c = 1..d-1. These cosets are new and pairwise distinct
    exactly when no c*img lies in H, so each node marks H once and a
    candidate is rejected after at most d-1 lookups. A survivor's cosets
    are read from rows of the addition table, by `bytes.translate` or by
    one getter per node. A rejected candidate kills its whole subtree,
    which is what keeps the search near the size of the output. The
    commuting constraint h[t1[x]] = t2[h[x]] is checked as soon as the
    partial map holds both x and t1[x]: right after the coset that
    completes the pair is appended (`_coset_checks`), so a failing
    candidate builds no further cosets.
    """
    k = len(factors)
    compact = isinstance(rows[0], bytes)
    identity = bytes(1) if compact else (0,)
    if k == 0:
        return [identity]
    checks = [None] * k if t1 is None else _coset_checks(factors, t1)
    results = []

    def commuting_cosets(new, coset, multiples, buckets):
        # new extended by the cosets of multiples, or None as soon as a
        # pair that a coset completes fails to commute
        for m, pairs in zip(multiples, buckets):
            new += coset(rows[m])
            if pairs and any(t2[new[x]] != new[tx] for x, tx in pairs):
                return None
        return new

    def extend(i, partial):
        # partial maps the span of generators i+1..k-1, a prefix of indices,
        # onto H; returns True once a constrained search has its map
        buckets = checks[i]
        in_h = bytearray(n)
        for y in partial:
            in_h[y] = 1
        # coset(rows[m]) is the coset m + H in partial's format; the
        # one-element tuple partial is the root's (0,)
        if compact:
            coset = partial.translate
        else:
            coset = itemgetter(*partial) if len(partial) > 1 else lambda row: (row[0],)
        for multiples in candidates[i]:
            for m in multiples:
                if in_h[m]:
                    break
            else:
                if buckets is None:
                    # the enumeration keeps this plain loop: a zip with
                    # empty buckets per survivor made it a third slower
                    new = partial
                    for m in multiples:
                        new += coset(rows[m])
                else:
                    new = commuting_cosets(partial, coset, multiples, buckets)
                    if new is None:
                        continue
                if i == 0:
                    results.append(new)
                    if t1 is not None:
                        return True
                elif extend(i - 1, new):
                    return True
        return False

    extend(k - 1, identity)
    # extend refers to itself through its closure; breaking that cycle frees
    # results with the caller's last reference, not at the next collection
    del extend
    return results


def enumerate_linear_bijections(n, factors, rows, candidates):
    """All bijective linear self-maps, as permutations of element indices.

    factors: the invariant factors d_1 | ... | d_k
    rows, candidates: the group's addition rows and candidate multiples

    Returns the permutations in search order, which is ascending in the
    reversed key (p[g_k-1], ..., p[g_0]); `conjugacy_partition` takes them
    in any order.
    """
    return _linear_bijections(n, factors, rows, candidates)


def least_keys_of_products(k, rows, factor_classes):
    """The least key and the size of each product of classes.

    A key is a tuple of k element indices, the generator images of a map.
    Each factor gives a summand at every key position, and a member of a
    product of classes, one class per factor, is the position-wise sum of
    its factors' summands. factor_classes lists per factor its classes, each
    as k columns: the summands of the class's members at that position, in
    one member order.

    Returns (least key, member count) per tuple of classes, in
    itertools.product order. A product is built as k columns by folding in
    one class at a time: the side with fewer members is walked, and the
    other is translated whole by one of `rows` (the addition table) per
    walked member, so the work is linear in the size of the product and
    needs no conjugation.
    """
    out = []
    for combo in itertools.product(*factor_classes):
        cols = [[0]] * k
        for columns in combo:
            small, large = (cols, columns) if len(cols[0]) <= len(columns[0]) else (columns, cols)
            new = [[] for _ in range(k)]
            for t in range(len(small[0])):
                for col, y, side in zip(new, [c[t] for c in small], large):
                    col += map(rows[y].__getitem__, side) if y else side
            cols = new
        out.append((min(zip(*cols)), len(cols[0])))
    return out


class _StabilizerChain:
    """A subgroup of Aut as a Schreier-Sims stabilizer chain on the base gens.

    Level l holds generators S_l of the subgroup fixing gens[:l] and the
    orbit of gens[l] under them; each orbit point b maps to (u, w), where u
    is the generator-image tuple of a product of S_l sending gens[l] to b
    and w is the permutation of its inverse. Maps are composed on generator
    images (s o x sends g to s[x[g]]) and looked up in the full list `perms`
    through `index_of`, so no permutation is built.

    `add` extends level l by one map (Sims 1970; Seress, "Permutation Group
    Algorithms", 2003): it closes the orbit, and every Schreier generator
    u_{s(b)}^-1 o s o u_b, which fixes gens[:l+1], is sifted through the
    levels below and added to level l+1 when it is not already there. A
    linear map is fixed by its generator images, so the subgroup fixing all
    of gens is trivial: a map that sifts through every level is the
    identity, and the group order is the product of the orbit lengths.
    """

    def __init__(self, perms, gens, index_of):
        self._perms = perms
        self._gens = gens
        self._index_of = index_of
        identity = tuple(gens)
        self._levels = [([], {b: (identity, perms[index_of[identity]])}) for b in gens]

    def order(self) -> int:
        return math.prod(len(orbit) for _, orbit in self._levels)

    def _sifts(self, images, level) -> bool:
        """Whether the map with these generator images lies in the group at level."""
        for l in range(level, len(self._gens)):
            entry = self._levels[l][1].get(images[l])
            if entry is None:
                return False
            inverse = entry[1]
            images = [inverse[x] for x in images]
        return True

    def __contains__(self, perm) -> bool:
        return self._sifts([perm[g] for g in self._gens], 0)

    def add(self, perm, level=0) -> None:
        """Extend the group at level by perm, which fixes gens[:level] and lies outside it."""
        perms, gens, index_of = self._perms, self._gens, self._index_of
        generators, orbit = self._levels[level]
        generators.append(perm)
        # the pairs (b, s) not seen before: the new map on the old points,
        # then every map on each point the orbit gains
        old = len(orbit)
        points = list(orbit)
        for pos, b in enumerate(points):
            u, _ = orbit[b]
            for s in generators if pos >= old else (perm,):
                image = [s[x] for x in u]
                c = image[level]
                entry = orbit.get(c)
                if entry is None:
                    su = perms[index_of[tuple(image)]]
                    inverse = perms[index_of[tuple([su.index(g) for g in gens])]]
                    orbit[c] = (tuple(image), inverse)
                    points.append(c)
                    continue
                inverse = entry[1]
                schreier = [inverse[x] for x in image]
                if not self._sifts(schreier, level + 1):
                    self.add(perms[index_of[tuple(schreier)]], level + 1)


# Step of the walk that picks generators: a large prime reduced mod |Aut|,
# so consecutive candidates land far apart in the search order. A walk in
# search order keeps many near-identical maps: 10 on Aut(Z2^3 + Z4), where
# this stride keeps 4 (and at most 4 on every enumerable carrier of order
# up to 48).
_GENERATOR_STRIDE = 1_000_003


def _generating_set(perms, gens, index_of):
    """A few perms that generate the whole group.

    Candidates are visited at the multiples of a stride coprime to |Aut|,
    so the walk reaches every index once. A candidate is kept only if it
    lies outside the group generated by those kept so far, which is decided
    by sifting it through their stabilizer chain; the walk stops when the
    chain's order is |Aut|, which proves the set generates.
    """
    count = len(perms)
    step = _GENERATOR_STRIDE % count
    while math.gcd(step, count) != 1:
        step += 1
    chain = _StabilizerChain(perms, gens, index_of)
    chosen = []
    for j in range(1, count + 1):
        if chain.order() == count:
            break
        new = perms[j * step % count]
        if new not in chain:
            chosen.append(new)
            chain.add(new)
    return chosen


# Maps per block when bytes maps are joined for the C-level passes: a block
# of n-byte maps is CHUNK * n bytes, and its keys take 8 bytes per map
CHUNK = 4096


def _blocks(perms):
    """The bytes maps joined in blocks of CHUNK, one block alive at a time."""
    for a in range(0, len(perms), CHUNK):
        yield b"".join(perms[a : a + CHUNK])


def _pack(block, n, columns):
    """The packed keys of the n-byte maps joined in block, read at columns.

    Byte columns[i] of each map becomes digit i, most significant first, of
    a native 8-byte word, so each word, read as an unsigned "Q", is
    int.from_bytes(bytes(p[c] for c in columns), "big").
    """
    buf = bytearray(8 * (len(block) // n))
    last = len(columns) - 1
    for i, c in enumerate(columns):
        buf[last - i if sys.byteorder == "little" else 7 - last + i :: 8] = block[c::n]
    return buf


def _packed_keys(perms, gens):
    """The key of each bytes map as one int, in an array("Q").

    The key int.from_bytes(bytes(p[g] for g in gens), "big") fits in 8 bytes
    (a group of at most 256 elements has rank at most 8), and the ints sort
    as the generator-image tuples do.

    >>> list(_packed_keys([bytes([0, 2, 1, 3]), bytes([0, 1, 3, 2])], [1, 2]))
    [513, 259]
    """
    keys = array("Q")
    for block in _blocks(perms):
        keys.frombytes(_pack(block, len(perms[0]), gens))
    return keys


class _PackedIndex:
    """An index by generator-image tuple over an index by packed key."""

    __slots__ = ("_index",)

    def __init__(self, index):
        self._index = index

    def __getitem__(self, images):
        return self._index[int.from_bytes(bytes(images), "big")]


def _conjugation_table(perms, gens, s, index_of):
    """sigma_s: the index of s o f o s^-1 for each map f, as array("i").

    The conjugate's key is s applied to the columns at s^-1(g), g in gens.
    On bytes maps one `translate` per block gives s o f for every map f of
    the block and the columns are packed; on tuple maps each column is read
    by one getter over perms and zipped into tuple keys.
    """
    pulled = [s.index(g) for g in gens]
    if not isinstance(s, bytes):
        columns = (map(s.__getitem__, map(itemgetter(c), perms)) for c in pulled)
        return array("i", map(index_of.__getitem__, zip(*columns)))
    n = len(perms[0])
    table = s + bytes(BYTES_LIMIT - n)
    sigma = array("i")
    for block in _blocks(perms):
        packed = memoryview(_pack(block.translate(table), n, pulled)).cast("Q")
        sigma.extend(map(index_of.__getitem__, packed))
    return sigma


def _orbits(count, tables, key):
    """The orbits of 0..count-1 under the moves i -> table[i], one BFS each.

    Returns (class_ids, least): the orbit of each index, numbered in
    discovery order, and per orbit (its least key, the index holding it).
    """
    class_ids = [-1] * count
    least = []
    for i in range(count):
        if class_ids[i] != -1:
            continue
        cid = len(least)
        class_ids[i] = cid
        orbit = [i]
        for f in orbit:
            for table in tables:
                j = table[f]
                if class_ids[j] == -1:
                    class_ids[j] = cid
                    orbit.append(j)
        low_i = min(orbit, key=key)
        least.append((key(low_i), low_i))
    return class_ids, least


def conjugacy_partition(perms, gens):
    """Partition a full list of automorphism permutations into conjugacy classes.

    perms must be the complete automorphism list (closed under composition
    and inverses), in any order; gens are the generator element indices.
    Returns (class_ids, reps): class_ids[i] is the class of perms[i], and
    reps[c] is the index of the least member of class c by key. The classes
    are numbered in ascending order of those least keys, so for input
    sorted by key every representative is the least-index member of its
    class and the classes come in discovery order.

    A class is the orbit of f under conjugation by Aut, and an orbit under a
    finite group is its closure under a generating set S. So the kernel
    first finds a small S (`_generating_set`, proved by a stabilizer chain),
    then closes each class under f -> s o f o s^-1 for s in S (`_orbits`),
    costing |Aut| * |S| conjugates in all instead of |Aut| * #classes. Each
    conjugate is identified by its generator images alone,
    s(f(s^-1(g))) for g in gens, so only s^-1 on the generators is needed.
    Every conjugate is computed in C before the closure: one pass per s
    maps the columns at s^-1(g) by s, and the key index turns those keys
    into the move table sigma_s (`_conjugation_table`). A key is packed
    into one int on bytes maps (`_packed_keys`) and is a tuple on tuple
    maps. The perms may be bytes or tuples, not a mix.
    """
    count = len(perms)
    if len(gens) < 2:
        # Aut of a cyclic (or trivial) group is abelian: every class is a singleton
        reps = sorted(range(count), key=lambda i: [perms[i][g] for g in gens])
        return list(invert_perm(reps)), reps
    compact = isinstance(perms[0], bytes)
    keys = _packed_keys(perms, gens) if compact else list(map(itemgetter(*gens), perms))
    index_of = dict(zip(keys, range(count)))
    chosen = _generating_set(perms, gens, _PackedIndex(index_of) if compact else index_of)
    tables = [_conjugation_table(perms, gens, s, index_of) for s in chosen]
    # the tables no longer need the key index, and they go before the
    # renumbering builds a second id list, so the peak memory stays that of
    # the closure
    del index_of
    class_ids, least = _orbits(count, tables, keys.__getitem__)
    del tables
    order = sorted(range(len(least)), key=least.__getitem__)
    rank = invert_perm(order)
    return [rank[cid] for cid in class_ids], [least[cid][1] for cid in order]
