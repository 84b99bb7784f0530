"""Command-line interface and report serialization.

Verbs: classify, linear, cayley, check, iso, image, cross-validate.
Exit status: 0 success, 1 negative verdict (iso/check/cross-validate false),
2 usage error, 3 enumeration budget exceeded. Every error path prints a
single line starting with "error:" to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from ._version import __version__
from .classify import ClassificationReport, classify_order, cross_validate, per_carrier_counts
from .errors import EnumerationBudgetError, SpecError, TableParseError
from .lambda_modules import (
    LambdaModule,
    canonical_label,
    image_one_minus_t,
    is_lambda_isomorphic,
    parse_module_spec,
)
from .linearq import classify_linear
from .quandle import CayleyTable, alexander_table, brute_force_isomorphic, check_axioms


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="alexq", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="classify all Alexander quandles of an order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.add_argument("--connected-only", action="store_true")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="processes that classify carriers at once, this one included",
    )

    p = sub.add_parser("linear", help="isomorphism classes of linear quandles mod n")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("cayley", help="emit the Cayley table of a module spec")
    p.add_argument("--module", required=True)
    p.add_argument("--out")

    p = sub.add_parser("check", help="verify the quandle axioms of a table file")
    p.add_argument("--table", required=True)

    p = sub.add_parser("iso", help="decide isomorphism of two quandles")
    p.add_argument("--a", required=True, metavar="SPEC_OR_FILE")
    p.add_argument("--b", required=True, metavar="SPEC_OR_FILE")

    p = sub.add_parser("image", help="canonical label of the image module of 1-t")
    p.add_argument("--module", required=True)

    p = sub.add_parser("cross-validate", help="polynomial route vs conjugacy route")
    p.add_argument("--order", type=int, required=True)

    return parser


# --- report serialization --------------------------------------------------


def _filtered(report: ClassificationReport, connected_only: bool) -> ClassificationReport:
    if not connected_only:
        return report
    classes = tuple(qc for qc in report.classes if qc.connected)
    per_group = per_carrier_counts(report.per_group_counts, classes)
    totals = (len(classes), len(classes))
    return ClassificationReport(report.order, classes, per_group, totals)


def report_to_json(report: ClassificationReport) -> str:
    obj = {
        "order": report.order,
        "generated_by": f"alexq {__version__}",
        "classes": [
            {
                "id": qc.id,
                "image_label": qc.image_label,
                "image": {"group": qc.image.group.spec(), "t": qc.image.t.spec()},
                "connected": qc.connected,
                "members": [
                    {"group": g.spec(), "phi": phi.spec()} for g, phi in qc.members
                ],
            }
            for qc in report.classes
        ],
        "totals": {"classes": report.totals[0], "connected": report.totals[1]},
    }
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def report_to_csv(report: ClassificationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "image_label", "connected", "members"])
    for qc in report.classes:
        writer.writerow([qc.id, qc.image_label, str(qc.connected).lower(), len(qc.members)])
    return buf.getvalue()


def report_to_text(report: ClassificationReport) -> str:
    """Tabular layout: one section per carrier, star marks connected."""
    lines = [f"order {report.order}"]
    for carrier in report.per_group_counts:
        rows = []
        for qc in report.classes:
            for g, phi in qc.members:
                if g.spec() == carrier:
                    rows.append((phi, qc))
        rows.sort(key=lambda row: row[0].images)
        lines.append("")
        lines.append(f"carrier {carrier} ({report.per_group_counts[carrier]} classes)")
        for phi, qc in rows:
            star = "*" if qc.connected else " "
            lines.append(f"  {star} t={phi.spec() or 'id':<16} ->  {qc.image_label}")
    lines.append("")
    lines.append(f"{report.totals[0]} classes, {report.totals[1]} connected")
    return "\n".join(lines) + "\n"


# --- verb handlers ----------------------------------------------------------


def _cmd_classify(args) -> int:
    report = classify_order(args.order, jobs=args.jobs)
    report = _filtered(report, args.connected_only)
    if args.format == "json":
        sys.stdout.write(report_to_json(report))
    elif args.format == "csv":
        sys.stdout.write(report_to_csv(report))
    else:
        sys.stdout.write(report_to_text(report))
    return 0


def _cmd_linear(args) -> int:
    classes = classify_linear(args.n)
    for i, cls in enumerate(classes, start=1):
        members = ", ".join(str(a) for a in cls)
        print(f"class {i}: {{{members}}}")
    print(f"{len(classes)} classes")
    return 0


def _load_table(path: str) -> CayleyTable:
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from None
    try:
        return CayleyTable.from_text(text)
    except TableParseError as exc:
        raise SpecError(f"{path}: {exc}") from None


def _cmd_cayley(args) -> int:
    M = parse_module_spec(args.module)
    text = alexander_table(M).to_text()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SpecError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(args) -> int:
    verdict = check_axioms(_load_table(args.table))
    print(verdict.describe())
    return 0 if verdict.ok else 1


def _table_or_module(text: str) -> tuple[CayleyTable | None, LambdaModule | None]:
    if os.path.exists(text):
        return _load_table(text), None
    return None, parse_module_spec(text)


def _cmd_iso(args) -> int:
    table_a, mod_a = _table_or_module(args.a)
    table_b, mod_b = _table_or_module(args.b)
    if mod_a is not None and mod_b is not None:
        # image-module criterion; orders must match for the criterion to apply
        same = mod_a.order == mod_b.order and (
            is_lambda_isomorphic(image_one_minus_t(mod_a), image_one_minus_t(mod_b))
            is not None
        )
        method = "image-module criterion"
    else:
        qa = table_a if table_a is not None else alexander_table(mod_a)
        qb = table_b if table_b is not None else alexander_table(mod_b)
        for name, q in (("a", qa), ("b", qb)):
            verdict = check_axioms(q)
            if not verdict.ok:
                raise SpecError(f"table {name} is not a quandle ({verdict.describe()})")
        witness = brute_force_isomorphic(qa, qb)
        same = witness is not None
        method = "table search"
        if same:
            print("witness: " + " ".join(str(v) for v in witness))
    print(f"{'isomorphic' if same else 'not isomorphic'} ({method})")
    return 0 if same else 1


def _cmd_image(args) -> int:
    M = parse_module_spec(args.module)
    print(canonical_label(image_one_minus_t(M)))
    return 0


def _cmd_cross_validate(args) -> int:
    result = cross_validate(args.order)
    print(("ok: " if result.ok else "mismatch: ") + result.detail)
    return 0 if result.ok else 1


_HANDLERS = {
    "classify": _cmd_classify,
    "linear": _cmd_linear,
    "cayley": _cmd_cayley,
    "check": _cmd_check,
    "iso": _cmd_iso,
    "image": _cmd_image,
    "cross-validate": _cmd_cross_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.verb](args)
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SpecError, TableParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
