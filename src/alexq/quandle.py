"""Concrete quandles as Cayley tables, plus a table-level isomorphism oracle.

The oracle is deliberately independent of the module machinery: it sees
only n x n tables and decides isomorphism by pruned backtracking over
element bijections. It exists to validate the image-module criterion, so
`check_axioms`, `orbits`, the fingerprints and `brute_force_isomorphic`
read nothing but the table. Only the builder, `alexander_table`, looks at
a module, and it reads the carrier's index addition table and the indices
of x - t(x).

The search only pairs elements with equal fingerprints: orbit size, the
multiplicities of the element's row, the row's fixed points, and the
cycle type of its right multiplication x -> x |> a. Every R_b is an
automorphism, as R_{a |> b} = R_b . R_a . R_b^-1 (Joyce, J. Pure Appl.
Algebra 23, 1982), so these fields are constant on each orbit and are
computed once per orbit. A table computes its fingerprints once and keeps
them, so they are freed with it. Computing them reads the axiom check,
which also runs once per table and is kept on it. It tests
right-invertibility and self-distributivity only on a generating set S,
and only once per distinct column (see `check_axioms`).

The same identity lets every closure run over generators instead of over
all pairs. Once the R_s with s in S are known to be automorphisms, the
subquandle S generates is the orbit of S under those R_s, and they
generate the group of all R_b. So the axiom check grows its subquandle by
the generators' columns, `orbits` moves elements only by them, and the
search checks f(x |> s) = f(x) |> f(s) only for the elements s it has
chosen: about n |S| steps instead of n^2.

A step over the whole table runs in C, in the format `kernels.search_rows`
gives the table's rows. On bytes rows (up to 256 elements) the oracle
reads a table as bytes (`CayleyTable._compact`): the n^2 entries row after
row, each column, and each row padded to a `bytes.translate` table.
Whether a map f is a homomorphism, which is both the self-distributivity
check of one R_c and the final check of a witness, is then two
translates: the whole table moved by f against the rows f(a) read at f,
joined. On tuple rows the columns are tuples, and the same check composes
each row with itemgetter. The compact form is built the first time the
oracle needs it, not with the table, and is kept on it like the axiom
verdict and the fingerprints.

Table file format: line 1 holds n, lines 2..n+1 hold n space-separated
zero-based entries; row a, column b is a |> b. Only blank lines may follow.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable
from functools import cached_property
from itertools import chain
from operator import getitem, itemgetter

from .abelian import _Frozen
from .autgroup import _group_tables
from .errors import TableParseError
from .kernels import cycle_type, search_rows
from .lambda_modules import LambdaModule, _one_minus_t_indices


class MalformedTableError(ValueError):
    """The table is not square or has out-of-range entries."""


class QuandleAxiomError(ValueError):
    """An operation required a quandle but the table fails an axiom."""


class CayleyTable(_Frozen):
    table: tuple[tuple[int, ...], ...]

    def __init__(self, table: Iterable[Iterable[int]]) -> None:
        table = tuple(tuple(row) for row in table)
        n = len(table)
        labels = set(range(n))
        for a, row in enumerate(table):
            if len(row) != n:
                raise MalformedTableError(f"row {a} has {len(row)} entries, expected {n}")
            # entries are looked at one by one only in a row that has a bad one
            if not labels.issuperset(row):
                b, v = next((b, v) for b, v in enumerate(row) if v not in labels)
                raise MalformedTableError(f"entry [{a}][{b}] = {v} out of range for order {n}")
        object.__setattr__(self, "table", table)

    @property
    def n(self) -> int:
        return len(self.table)

    @cached_property
    def _compact(self) -> tuple:
        """The table as the oracle composes it: (entries, columns, rows).

        columns[c] is R_c as a map (a -> a |> c), and rows[a] is row a as a
        lookup table in the format `search_rows` gives it. On bytes rows
        entries is the n^2 entries row after row, and all three are bytes,
        each row a `bytes.translate` table. On tuple rows all three are
        tuples, composed with itemgetter, and entries is the table's own
        rows, so no flat copy of the n^2 entries is kept. Built the first
        time the oracle needs it and kept on the table, so it is freed
        with it.
        """
        t, n = self.table, self.n
        rows = search_rows(n, t)
        if rows is t:  # kept as they are: tuple rows
            return t, list(zip(*t)), t
        flat = bytes(chain.from_iterable(t))
        return flat, [flat[c::n] for c in range(n)], rows

    @cached_property
    def _axiom_check(self) -> tuple[AxiomVerdict, list[int]]:
        """`_axioms(self)`, run once per table and kept on it."""
        return _axioms(self)

    @cached_property
    def _fingerprints(self) -> tuple[tuple, ...]:
        """Per-element invariants preserved by any quandle isomorphism.

        For element a: the size of its orbit, the multiplicities of row a,
        the number of b with a |> b = a, and the cycle type of R_a (column
        a). An isomorphism f maps a to an element with equal fields, as
        f . R_a = R_{f(a)} . f. Column multiplicities are all 1 in a quandle
        and the fixed points of R_a are its 1-cycles, so neither is a field.

        Each R_b is an automorphism, so every field is constant on an orbit
        (the orbit of a under the R_b), and it is computed once per orbit,
        from the orbit's least member. Computed once per table and kept on
        it, so they are freed with it.
        """
        t = self.table
        columns = self._compact[1]
        fingerprints: list[tuple] = [()] * self.n
        for block in orbits(self):
            a = block[0]
            row = t[a]
            fp = (
                len(block),
                tuple(sorted(Counter(row).values())),
                row.count(a),
                cycle_type(columns[a]),
            )
            for x in block:
                fingerprints[x] = fp
        return tuple(fingerprints)

    def to_text(self) -> str:
        lines = [str(self.n)]
        lines.extend(" ".join(str(v) for v in row) for row in self.table)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> CayleyTable:
        lines = text.splitlines()
        if not lines or not lines[0].strip():
            raise TableParseError("missing order line", line=1)
        try:
            n = int(lines[0].strip())
        except ValueError:
            raise TableParseError(f"bad order {lines[0].strip()!r}", line=1) from None
        if n < 1:
            raise TableParseError(f"order must be positive, got {n}", line=1)
        rows = []
        for i in range(n):
            lineno = i + 2
            if i + 1 >= len(lines):
                raise TableParseError(f"expected {n} table rows, found {i}", line=lineno)
            tokens = lines[i + 1].split()
            if len(tokens) != n:
                raise TableParseError(
                    f"expected {n} entries, found {len(tokens)}", line=lineno
                )
            row = []
            for col, tok in enumerate(tokens, start=1):
                try:
                    v = int(tok)
                except ValueError:
                    raise TableParseError(
                        f"bad entry {tok!r}", line=lineno, column=col
                    ) from None
                if not 0 <= v < n:
                    raise TableParseError(
                        f"entry {v} out of range [0, {n})", line=lineno, column=col
                    )
                row.append(v)
            rows.append(tuple(row))
        for lineno, line in enumerate(lines[n + 1 :], start=n + 2):
            if line.strip():
                raise TableParseError(f"expected {n} table rows, found more", line=lineno)
        return cls(tuple(rows))


class AxiomVerdict(namedtuple("AxiomVerdict", "ok axiom witness", defaults=(None, None))):
    """Pass, or the first axiom that fails and a witness tuple where it fails."""

    __slots__ = ()

    def describe(self) -> str:
        if self.ok:
            return "pass"
        return f"fail: {self.axiom} violated at {self.witness}"


def alexander_table(M: LambdaModule) -> CayleyTable:
    """The operation table of a |> b = t(a) + b - t(b).

    Elements are indexed in lexicographic coordinate order, so tables built
    from equal modules are identical. Each entry t(a) + (b - t(b)) is read
    from the carrier's index addition table.
    """
    rows, _ = _group_tables(M.group)
    diff = _one_minus_t_indices(M)
    return CayleyTable(tuple(tuple(map(rows[ta].__getitem__, diff)) for ta in M.t.perm))


def check_axioms(Q: CayleyTable) -> AxiomVerdict:
    """Verify idempotence, right-invertibility, and self-distributivity.

    Returns the first failing axiom with a witness tuple rather than
    raising; malformed tables raise before any axiom is looked at.

    Right-invertibility and self-distributivity say together that every
    right multiplication R_c: x -> x |> c is an automorphism. Both are
    checked only for c in a generating set S, grown greedily: if R_c and
    R_d are automorphisms, so is R_{c |> d} = R_d . R_c . R_d^-1 (Joyce,
    J. Pure Appl. Algebra 23, 1982), so the subquandle that S generates is
    the orbit of S under the R_s, and once that orbit is everything, every
    R_c lies in the group the R_s generate. Each R_c is compared over the
    whole table at once, and a column equal to one already checked is not
    checked again. When a check fails, every column is scanned and then
    the full a, b, c loop runs, so the witness is the first column that is
    not a permutation, or else the lexicographically first failing triple.
    The check runs once per table, which keeps the verdict for `orbits`
    and the oracle.
    """
    return Q._axiom_check[0]


def _axioms(Q: CayleyTable) -> tuple[AxiomVerdict, list[int]]:
    """`check_axioms`'s verdict, and on a pass the generating set it checked.

    The R_s of the generating set generate Inn(Q), so a closure that
    respects them respects every R_b.
    """
    t = Q.table
    n = Q.n
    entries, columns, rows = Q._compact
    if tuple(map(getitem, t, range(n))) != tuple(range(n)):
        a = next(a for a, row in enumerate(t) if row[a] != a)
        return AxiomVerdict(False, "idempotence", (a,)), []
    generators = _distributes_on_generators(entries, columns, rows)
    if generators is not None:
        return AxiomVerdict(True), generators
    for b, column in enumerate(columns):
        if len(set(column)) != n:
            return AxiomVerdict(False, "right-invertibility", (b,)), []
    rng = range(n)
    for a in rng:
        ta = t[a]
        for b in rng:
            ab = ta[b]
            for c in rng:
                if t[ab][c] != t[ta[c]][t[b][c]]:
                    return AxiomVerdict(False, "self-distributivity", (a, b, c)), []
    raise RuntimeError("a generator failed self-distributivity but no triple did; bug")


def _distributes_on_generators(entries, columns, rows) -> list[int] | None:
    """A generating set of the table whose every R_c is an automorphism, or None.

    Takes the table's `_compact` form. Checked elements are added in
    increasing order, skipping those already in the subquandle the earlier
    ones generate. Each checked R_c is then an automorphism, so that
    subquandle is the orbit of the checked elements under their own
    columns, and it is grown that way after each one.
    Whether R_c is an automorphism depends only on column c as a map, so a
    column equal to one already checked is not checked again (on a trivial
    quandle every column is the identity), and the subquandle, closed under
    that column already, grows from c alone.
    """
    n = len(columns)
    checked: set = set()  # the generators' distinct columns
    inside: set[int] = set()
    generators: list[int] = []
    for c in range(n):
        if c in inside:
            continue
        column = columns[c]
        if column in checked:
            start = [c]
        else:
            # R_c is a permutation, and (a |> b) |> c == (a |> c) |> (b |> c)
            if len(set(column)) != n or not _is_homomorphism(column, entries, rows):
                return None
            checked.add(column)
            # c and every member moved by R_c
            start = [c, *map(column.__getitem__, inside)]
        generators.append(c)
        _grow(inside, start, checked)
        if len(inside) == n:
            break
    return generators


def _is_homomorphism(f, entries, rows) -> bool:
    """Whether f(a |> b) == f(a) |> f(b) for every a and b.

    entries and rows come from the `_compact` forms of the source and the
    target table, and f is a map in their format. The left side is the
    source table moved by f; the right side is, for each a, row f(a) of
    the target read at f. On bytes each side is composed over the whole
    table by `bytes.translate`; on tuples each row is, by itemgetter.
    """
    if isinstance(f, bytes):
        moved = entries.translate(search_rows(len(f), [f])[0])
        return moved == b"".join(map(f.translate, map(rows.__getitem__, f)))
    at_f = itemgetter(*f)
    return all(itemgetter(*row)(f) == at_f(rows[fa]) for row, fa in zip(entries, f))


def orbits(Q: CayleyTable) -> tuple[tuple[int, ...], ...]:
    """Blocks of the equivalence generated by a ~ a |> b (and its inverse).

    Blocks are sorted internally and by least member; the quandle is
    connected iff there is a single block. Each block is an orbit of
    Inn(Q), the group the R_b generate. The R_s of the generating set that
    the axiom check returns generate it too, so an element is moved only
    by their distinct columns. A block grows from the row of its least
    member, as a |> b = R_b(a) lies in the orbit of a; on an Alexander
    quandle that row is already the whole orbit, a coset of Im(1 - t).

    >>> R3 = CayleyTable(((0, 2, 1), (2, 1, 0), (1, 0, 2)))  # 2b - a mod 3
    >>> check_axioms(R3).describe(), orbits(R3)
    ('pass', ((0, 1, 2),))
    >>> orbits(CayleyTable(((0, 0, 0), (1, 1, 1), (2, 2, 2))))  # trivial
    ((0,), (1,), (2,))
    """
    verdict, generators = Q._axiom_check
    if not verdict.ok:
        raise QuandleAxiomError(verdict.describe())
    t = Q.table
    columns = Q._compact[1]
    moves = {columns[s] for s in generators}
    blocks = []
    seen: set[int] = set()
    for a in range(Q.n):
        if a in seen:
            continue
        block: set[int] = set()
        _grow(block, t[a], moves)
        seen |= block
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def _grow(inside: set[int], start: Iterable[int], moves: Iterable) -> None:
    """Add to `inside` the start elements and all they reach along `moves`.

    Each move is a permutation given as a column of `_compact`. Members of
    `inside` are not moved again, so their images must already be in
    `inside` or in `start`.
    """
    frontier = set(start) - inside
    while frontier:
        inside |= frontier
        reached: set[int] = set()
        for move in moves:
            reached.update(map(move.__getitem__, frontier))
        frontier = reached - inside


def _most_constrained(classes: list[set[int]], fwd: dict[int, int]) -> int:
    """The unmapped element with the fewest free candidates, least on ties.

    classes: the elements of the first table grouped by fingerprint. An
    element's candidates are the members of its class in the second table,
    and the map sends each class into its match, so the free ones number
    the unmapped members of the element's own class.
    """
    return min((len(free), min(free)) for free in (c.difference(fwd) for c in classes) if free)[1]


def brute_force_isomorphic(Q1: CayleyTable, Q2: CayleyTable) -> tuple[int, ...] | None:
    """A bijection f with f(a |> b) = f(a) |> f(b), or None.

    Both tables must already satisfy the quandle axioms. Order mismatch is
    just a negative answer. The search matches elements most-constrained
    first and filters candidates by per-element fingerprints. The elements
    it chooses form a set S, and it propagates forced values
    f(x |> s) = f(x) |> f(s) for s in S as soon as x is mapped, failing fast
    on conflicts. That is enough: the fingerprints run the axiom check on
    both tables, so R_{x |> s} = R_s . R_x . R_s^-1 holds in each, and a map
    that respects every R_s with s in S is a homomorphism on the orbit of S
    under those R_s, which is the subquandle S generates. The returned
    bijection is re-checked on all pairs before being handed out.
    """
    n = Q1.n
    if n != Q2.n:
        return None
    fp1 = Q1._fingerprints
    fp2 = Q2._fingerprints
    if sorted(fp1) != sorted(fp2):
        return None
    by_fp: dict[tuple, set[int]] = {}  # shared, never mutated
    for b, fp in enumerate(fp2):
        by_fp.setdefault(fp, set()).add(b)
    candidates = [by_fp[fp] for fp in fp1]
    by_fp1: dict[tuple, set[int]] = {}
    for a, fp in enumerate(fp1):
        by_fp1.setdefault(fp, set()).add(a)
    classes1 = list(by_fp1.values())

    t1, t2 = Q1.table, Q2.table
    columns1 = Q1._compact[1]
    columns2 = Q2._compact[1]

    def propagate(
        fwd: dict[int, int], rev: dict[int, int], generators: list[tuple[int, int]]
    ) -> bool:
        """Map the new generator (a, b) = generators[-1], and close under
        f(x |> s) = f(x) |> f(s) for every generator s with image f(s)."""
        a, b = generators[-1]
        column_a, column_b = columns1[a], columns2[b]
        # a pair whose x |> s is mapped is checked where it is made; the
        # others are queued. First every mapped x against the new generator.
        queue = []
        for x, y in fwd.items():
            u, v = column_a[x], column_b[y]
            if u not in fwd:
                queue.append((u, v))
            elif fwd[u] != v:
                return False
        queue.append((a, b))
        while queue:
            x, y = queue.pop()
            if x in fwd:
                if fwd[x] != y:
                    return False
                continue
            if y in rev or y not in candidates[x]:
                return False
            fwd[x] = y
            rev[y] = x
            # each newly mapped x against every generator
            row1, row2 = t1[x], t2[y]
            for s, fs in generators:
                u, v = row1[s], row2[fs]
                if u not in fwd:
                    queue.append((u, v))
                elif fwd[u] != v:
                    return False
        return True

    def search(
        fwd: dict[int, int], rev: dict[int, int], generators: list[tuple[int, int]]
    ) -> dict[int, int] | None:
        if len(fwd) == n:
            return fwd
        best = _most_constrained(classes1, fwd)
        for b in sorted(candidates[best] - rev.keys()):
            fwd2, rev2 = dict(fwd), dict(rev)
            generators2 = [*generators, (best, b)]
            if propagate(fwd2, rev2, generators2):
                result = search(fwd2, rev2, generators2)
                if result is not None:
                    return result
        return None

    solution = search({}, {}, [])
    if solution is None:
        return None
    f = tuple(solution[a] for a in range(n))
    # f in the tables' format: bytes or a tuple
    if not _is_homomorphism(type(columns1[0])(f), Q1._compact[0], Q2._compact[2]):
        raise RuntimeError("search returned a non-homomorphism; bug")
    return f
