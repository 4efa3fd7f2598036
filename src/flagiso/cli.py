"""Command-line front end.

Every verdict-producing subcommand prints a single stable token on the first
stdout line (ISOMORPHIC, NOT_ISOMORPHIC, EQUIVALENT, NOT_EQUIVALENT,
INCONCLUSIVE, WITNESS_VALID, WITNESS_INVALID); explanatory prose follows on
later lines.  Exit codes: 0 for any computed decision, 2 for invalid input
(file, parse, or validation), 1 for internal errors.  A reader that closes
stdout early (``flagiso classify ... | head -1``) ends the output quietly
with exit 0: every command writes only after its decision is computed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import io
from .algebras import check_grading, invariants, realize
from .division import pauli, trivial_division
from .errors import FlagisoError, GroupMismatch
from .groups import Group, build_abelian
from .iso import (
    EQUIVALENT,
    ISOMORPHIC,
    InvariantMismatch,
    SearchExhausted,
    equiv_check,
    equiv_elementary,
    iso_algebras,
    verify_witness,
)
from .tables import enumerate_classes

__all__ = ["main", "entrypoint"]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader is gone; point stdout at the null device so that the
        # interpreter's final flush of what is still buffered cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except FlagisoError as e:
        print(_format_error(e), file=sys.stderr)
        return 2
    except Exception as e:  # anything else is a bug, not bad input
        print(f"internal error: {e}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


def _format_error(e: FlagisoError) -> str:
    if e.code in ("file-error", "parse-error"):
        return str(e)
    if isinstance(e, GroupMismatch):
        return f"validation error: group mismatch: {e}"
    return f"validation error: {e}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagiso",
        description="Exact isomorphism and equivalence decisions for group "
        "gradings on upper block triangular matrix algebras.",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("validate", help="check a presentation file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dims", help="print homogeneous component dimensions")
    p.add_argument("file")
    p.add_argument("--radical", action="store_true", help="include the radical filtration")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("iso", help="decide graded isomorphism of two presentations")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--witness", metavar="PATH", help="write the witness JSON on success")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("equiv-check", help="necessary conditions for graded equivalence")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_equiv_check)

    p = sub.add_parser(
        "equiv-elementary", help="decide graded equivalence of elementary gradings"
    )
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_equiv_elementary)

    p = sub.add_parser("classify", help="enumerate isomorphism classes of degree tuples")
    p.add_argument("--group", required=True, help='group file or "abelian:f1,f2,..."')
    p.add_argument("--blocks", required=True, help='comma-separated block sizes, e.g. "1,1"')
    p.add_argument(
        "--division",
        default="trivial",
        help='"trivial", "pauli:t:u,v" (element names), or a division JSON file',
    )
    p.add_argument("--budget", type=int, help="cap on the number of enumerated tuples")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify-witness", help="re-check a witness file against two presentations")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("witness")
    p.set_defaults(func=cmd_verify_witness)

    return parser


# -- subcommands ----------------------------------------------------------------


def cmd_validate(args) -> int:
    p = io.load_presentation(args.file)
    grp = p.group
    print("OK")
    print(f"group order {grp.size}")
    print(
        f"division support size {len(p.division.support.members)} "
        f"root order {p.division.order}"
    )
    print("blocks " + ",".join(str(b) for b in p.shape.blocks))
    print("tuple " + ",".join(p.degree_names()))
    return 0


def cmd_dims(args) -> int:
    p = io.load_presentation(args.file)
    alg = realize(p)
    report = check_grading(alg)
    if not report.ok:
        raise AssertionError(f"grading law violated: {report.violations[:3]}")
    inv = invariants(alg)
    grp = p.group
    for u, d in inv.dims:
        print(f"{grp.name_of(u)}: {d}")
    if args.radical:
        for c, dims in inv.radical_dims:
            for u, d in dims:
                print(f"J^{c} {grp.name_of(u)}: {d}")
    return 0


def cmd_iso(args) -> int:
    a = io.load_presentation(args.a)
    b = io.load_presentation(args.b)
    verdict = iso_algebras(a, b)
    if verdict.kind == ISOMORPHIC and args.witness:
        # written before any output, so a refused path leaves stdout empty
        io.save_witness(verdict.witness, args.witness)
    print(verdict.kind)
    if verdict.kind == ISOMORPHIC:
        w = verdict.witness
        grp = a.group
        print(f"shift {grp.name_of(w.shift)}")
        print("sigma " + ",".join(str(s + 1) for s in w.sigma))
        print("h " + ",".join(grp.name_of(h) for h in w.correctors))
        if args.witness:
            print(f"witness written to {args.witness}")
    else:
        _print_certificate(verdict.certificate)
    return 0


def _print_certificate(cert) -> None:
    if isinstance(cert, InvariantMismatch):
        print(f"invariant mismatch: {cert.detail}")
    elif isinstance(cert, SearchExhausted):
        print(f"search exhausted: {cert.detail}")
        if cert.invariant_mismatch is not None:
            print(f"invariant mismatch: {cert.invariant_mismatch.detail}")


def cmd_equiv_check(args) -> int:
    a = io.load_presentation(args.a)
    b = io.load_presentation(args.b)
    verdict = equiv_check(a, b)
    print(verdict.kind)
    if verdict.reason:
        print(verdict.reason)
    return 0


def cmd_equiv_elementary(args) -> int:
    a = io.load_presentation(args.a)
    b = io.load_presentation(args.b)
    verdict = equiv_elementary(a, b)
    print(verdict.kind)
    if verdict.kind == EQUIVALENT:
        ew = verdict.equiv_witness
        g1, g2 = a.group, b.group
        for v in sorted(ew.lam):
            print(f"lambda {g1.name_of(v)} -> {g2.name_of(ew.lam[v])}")
        print("sigma " + ",".join(str(s + 1) for s in ew.sigma))
    elif verdict.reason:
        print(verdict.reason)
    return 0


def cmd_verify_witness(args) -> int:
    a = io.load_presentation(args.a)
    b = io.load_presentation(args.b)
    w = io.load_witness(args.witness, a, b)
    report = verify_witness(realize(a), realize(b), w)
    print("WITNESS_VALID" if report.ok else "WITNESS_INVALID")
    print(f"checked {report.checked_pairs} basis pairs")
    for line in report.failures[:5]:
        print(line)
    if len(report.failures) > 5:
        print(f"... and {len(report.failures) - 5} more failures")
    return 0


def cmd_classify(args) -> int:
    group = _parse_group_arg(args.group)
    blocks = _parse_blocks(args.blocks)
    division = _parse_division_arg(args.division, group)
    cls = enumerate_classes(group, blocks, division, budget=args.budget)
    print(f"CLASSES {cls.count}")
    rows = cls.rows()
    for names, size in rows:
        print(f"tuple {','.join(names)}  orbit {size}")
    for k, (names, size) in enumerate(rows, start=1):
        print(
            json.dumps(
                {"v": 1, "class": k, "tuple": list(names), "orbit_size": size},
                separators=(",", ":"),
            )
        )
    return 0


# -- argument parsing helpers ----------------------------------------------------


def _shown(value: str, limit: int = 64) -> str:
    """value's repr, or past limit characters the repr of its first limit
    characters and its length: an oversized value is not echoed whole."""
    if len(value) <= limit:
        return repr(value)
    return f"{value[:limit]!r}... ({len(value)} characters)"


def _parse_group_arg(value: str) -> Group:
    if value.startswith("abelian:"):
        spec = value[len("abelian:") :]
        try:
            factors = [int(tok) for tok in spec.split(",")]
        except ValueError:
            raise FlagisoError(f"cannot parse abelian factors from {_shown(value)}") from None
        return build_abelian(factors)
    return io.load_group_file(value)


def _parse_blocks(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in value.split(","))
    except ValueError:
        raise FlagisoError(f"cannot parse block sizes from {_shown(value)}") from None


def _split_element_names(text: str) -> list[str]:
    # element names may themselves contain commas, e.g. "(1,0)"; split only
    # on commas outside parentheses
    out: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch == "," and depth == 0:
            out.append(text[start:i])
            start = i + 1
    out.append(text[start:])
    return [s.strip() for s in out if s.strip()]


def _parse_division_arg(value: str, group: Group):
    if value == "trivial":
        return trivial_division(group)
    if value.startswith("pauli:"):
        parts = value.split(":")
        if len(parts) != 3:
            raise FlagisoError(
                f'cannot parse {_shown(value)}; expected "pauli:t:u-name,v-name"'
            )
        try:
            t = int(parts[1])
        except ValueError:
            raise FlagisoError(f"pauli order {_shown(parts[1])} is not an integer") from None
        names = _split_element_names(parts[2])
        if len(names) != 2:
            raise FlagisoError(
                f'cannot parse {_shown(value)}; expected "pauli:t:u-name,v-name"'
            )
        return pauli(t, group, (names[0], names[1]))
    return io.load_division_file(value, group)


if __name__ == "__main__":
    entrypoint()
