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
them, so they are freed with it. Computing them runs the axiom check,
which tests self-distributivity only on a generating set, and only once
per distinct column (see `check_axioms`).

Table file format: line 1 holds n, lines 2..n+1 hold n space-separated
zero-based entries; row a, column b is a |> b. Only blank lines may follow.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .autgroup import _group_tables
from .errors import TableParseError
from .kernels import cycle_type
from .lambda_modules import LambdaModule, _one_minus_t_indices


class MalformedTableError(ValueError):
    """The table is not square or has out-of-range entries."""


class QuandleAxiomError(ValueError):
    """An operation required a quandle but the table fails an axiom."""


@dataclass(frozen=True)
class CayleyTable:
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        n = len(self.table)
        for a, row in enumerate(self.table):
            if len(row) != n:
                raise MalformedTableError(f"row {a} has {len(row)} entries, expected {n}")
            for b, v in enumerate(row):
                if not 0 <= v < n:
                    raise MalformedTableError(
                        f"entry [{a}][{b}] = {v} out of range for order {n}"
                    )

    @property
    def n(self) -> int:
        return len(self.table)

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
        fingerprints: list[tuple] = [()] * self.n
        for block in orbits(self):
            a = block[0]
            row = t[a]
            fp = (
                len(block),
                tuple(sorted(Counter(row).values())),
                row.count(a),
                cycle_type(tuple(map(itemgetter(a), t))),
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


@dataclass(frozen=True)
class AxiomVerdict:
    ok: bool
    axiom: str | None = None
    witness: tuple[int, ...] | None = None

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

    Self-distributivity says that every right multiplication
    R_c: x -> x |> c is an endomorphism. Once the columns are known to be
    permutations, it is checked only for c in a generating set, grown
    greedily: if R_c and R_d are automorphisms, so is
    R_{c |> d} = R_d . R_c . R_d^-1 (Joyce, J. Pure Appl. Algebra 23,
    1982), so the elements whose R is an automorphism form a subquandle,
    and a set that generates Q covers every c. Each R_c is compared one
    whole row at a time, and a column equal to one already checked is not
    checked again. When a check fails, the full a, b, c loop runs
    instead, so the witness is the lexicographically first failing triple.
    """
    t = Q.table
    n = Q.n
    for a in range(n):
        if t[a][a] != a:
            return AxiomVerdict(False, "idempotence", (a,))
    columns = list(zip(*t))
    for b, column in enumerate(columns):
        if len(set(column)) != n:
            return AxiomVerdict(False, "right-invertibility", (b,))
    if _distributes_on_generators(t, columns):
        return AxiomVerdict(True)
    rng = range(n)
    for a in rng:
        ta = t[a]
        for b in rng:
            ab = ta[b]
            for c in rng:
                if t[ab][c] != t[ta[c]][t[b][c]]:
                    return AxiomVerdict(False, "self-distributivity", (a, b, c))
    raise RuntimeError("a generator failed self-distributivity but no triple did; bug")


def _distributes_on_generators(
    t: tuple[tuple[int, ...], ...], columns: list[tuple[int, ...]]
) -> bool:
    """Whether R_c is an endomorphism for each c of a generating set of t.

    Needs permutation columns. Checked elements are added in increasing
    order, skipping those already in the subquandle the earlier ones
    generate, and that subquandle is closed under |> after each one.
    Whether R_c is an endomorphism depends only on column c as a map, so a
    column equal to one already checked is not checked again (on a trivial
    quandle every column is the identity).
    """
    n = len(t)
    # row_at[a](seq) = (seq[a |> b] for b): the images of row a under seq
    row_at = [itemgetter(*row) for row in t]
    checked: set[tuple[int, ...]] = set()
    inside: set[int] = set()
    members: list[int] = []
    for c in range(n):
        if c in inside:
            continue
        column = columns[c]
        if column not in checked:
            at_column = itemgetter(*column)
            # (a |> b) |> c == (a |> c) |> (b |> c) for every b, one row a at a time
            if any(row_at[a](column) != at_column(t[ac]) for a, ac in enumerate(column)):
                return False
            checked.add(column)
        queue = [c]
        while queue:
            x = queue.pop()
            if x in inside:
                continue
            inside.add(x)
            members.append(x)
            # x |> y and y |> x for every member y, minus those already inside
            new = set(map(t[x].__getitem__, members))
            new.update(map(columns[x].__getitem__, members))
            new -= inside
            queue.extend(new)
        if len(inside) == n:
            break
    return True


def orbits(Q: CayleyTable) -> tuple[tuple[int, ...], ...]:
    """Blocks of the equivalence generated by a ~ a |> b (and its inverse).

    Blocks are sorted internally and by least member; the quandle is
    connected iff there is a single block. As each R_b is a permutation of
    finite order, the block of a is everything reachable from a along rows.
    """
    verdict = check_axioms(Q)
    if not verdict.ok:
        raise QuandleAxiomError(verdict.describe())
    t = Q.table
    blocks = []
    seen: set[int] = set()
    for a in range(Q.n):
        if a in seen:
            continue
        block = {a}
        frontier = [a]
        while frontier:
            new = set(t[frontier.pop()]) - block
            block |= new
            frontier.extend(new)
        seen |= block
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def brute_force_isomorphic(Q1: CayleyTable, Q2: CayleyTable) -> tuple[int, ...] | None:
    """A bijection f with f(a |> b) = f(a) |> f(b), or None.

    Both tables must already satisfy the quandle axioms. Order mismatch is
    just a negative answer. The search matches elements most-constrained
    first, filters candidates by per-element fingerprints, and propagates
    forced values f(a |> b) = f(a) |> f(b) as soon as both arguments are
    mapped, failing fast on conflicts. The returned bijection is re-checked
    on all pairs before being handed out.
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

    t1, t2 = Q1.table, Q2.table

    def propagate(fwd: dict[int, int], rev: dict[int, int], a: int, b: int) -> bool:
        """Assign f(a) = b and close under the homomorphism condition."""
        queue = [(a, b)]
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
            for z in list(fwd):
                queue.append((t1[x][z], t2[y][fwd[z]]))
                queue.append((t1[z][x], t2[fwd[z]][y]))
        return True

    def search(fwd: dict[int, int], rev: dict[int, int]) -> dict[int, int] | None:
        if len(fwd) == n:
            return fwd
        # most constrained unmapped element first
        best = min(
            (a for a in range(n) if a not in fwd),
            key=lambda a: (len(candidates[a] - rev.keys()), a),
        )
        for b in sorted(candidates[best] - rev.keys()):
            fwd2, rev2 = dict(fwd), dict(rev)
            if propagate(fwd2, rev2, best, b):
                result = search(fwd2, rev2)
                if result is not None:
                    return result
        return None

    solution = search({}, {})
    if solution is None:
        return None
    f = tuple(solution[a] for a in range(n))
    for a in range(n):
        for b in range(n):
            if f[t1[a][b]] != t2[f[a]][f[b]]:
                raise RuntimeError("search returned a non-homomorphism; bug")
    return f
