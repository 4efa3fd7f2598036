"""Seeded inputs, correctness checks and the four benchmark workloads.

Every workload turns a seed into a deck of operations.  An operation is one
call a user would make (an ``iso_algebras`` query, a ``classify`` or
``enumerate_classes`` call, one ``python -m flagiso`` process) plus a check of
its output against an expectation fixed outside all timing: by construction
(rewrites are isomorphic), by an oracle computed during set-up
(``canonical_form`` of both sides, library calls for CLI output), or by a
recorded golden (class counts).  Each operation has kind ``a`` or ``b``; the
two kinds of a workload are timed separately because different layers
dominate them.

Library calls go through module attributes (``fiso.iso_algebras``, not a
name imported once), so the traced run sees them through the tracer's
wrappers.
"""

from __future__ import annotations

import contextlib
import io as stdio
import itertools
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

import flagiso.algebras as falg
import flagiso.cli as fcli
import flagiso.cocycles as fcoc
import flagiso.division as fdiv
import flagiso.groups as fgrp
import flagiso.io as fio
import flagiso.iso as fiso
import flagiso.presentations as fpres
import flagiso.tables as ftab
from flagiso.errors import InvalidInput

CLASSIFY_BUDGET = 100_000  # passed explicitly, so FLAGISO_BUDGET cannot change a run


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    ``check(result)`` returns None when the output is correct, else a reason.
    ``weight`` is the work the call did in the workload's unit (tuples for
    ``classify``), and ``queries`` the number of iso_algebras calls it makes
    directly, for the tracer self-check.
    """

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    weight: int = 1
    queries: int = 0


# -- groups, divisions, presentations --------------------------------------------


def symmetric_group(n: int, rng: random.Random) -> fgrp.Group:
    """S_n as a table group, with its elements listed in a seed-chosen order."""
    perms = list(itertools.permutations(range(n)))
    rng.shuffle(perms)
    index = {p: k for k, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
    return fgrp.Group(table, ["".join(map(str, p)) for p in perms])


def random_pauli(t: int, group: fgrp.Group, rng: random.Random) -> fdiv.GradedDivisionAlgebra:
    """A clock-and-shift division on a seed-chosen pair of commuting order-t elements."""
    order_t = [x for x in group.elements() if group.order_of(x) == t]
    for _ in range(1000):
        u, v = rng.sample(order_t, 2)
        try:
            return fdiv.pauli(t, group, (u, v))
        except InvalidInput:
            continue
    raise RuntimeError(f"no pauli embedding of order {t} found in {group}")


def twisted(d: fdiv.GradedDivisionAlgebra, rng: random.Random):
    """d with its cocycle multiplied by the coboundary of a seed-chosen u: H -> mu_m."""
    coc = d.cocycle
    grp = d.group
    m = coc.order
    members = d.support.members
    u = {h: (0 if h == grp.identity else rng.randrange(m)) for h in members}
    tbl = [
        [(coc.val(a, b) + u[a] + u[b] - u[grp.mul(a, b)]) % m for b in members]
        for a in members
    ]
    return fdiv.GradedDivisionAlgebra(fcoc.validate_cocycle(d.support, m, tbl))


def twisted_cyclic(group: fgrp.Group, gen: str, rng: random.Random):
    """Division on the cyclic subgroup <gen>, cohomologous to trivial but not equal to it."""
    sub = fgrp.subgroup_closure(group, [group.elem_by_name(gen).index])
    base = fdiv.GradedDivisionAlgebra(fcoc.trivial_cocycle(sub, len(sub.members)))
    return twisted(base, rng)


def random_presentation(d, blocks, rng: random.Random):
    g = d.group
    return fpres.make_presentation(d, blocks, [rng.randrange(g.size) for _ in range(sum(blocks))])


def rewrite(p, rng: random.Random):
    """An isomorphic copy of p: shift, in-block shuffle, coset moves, cohomologous twist."""
    grp = p.group
    q = fpres.shift_presentation(p, rng.randrange(grp.size))
    degs = list(q.degrees)
    for blk in q.shape.block_positions():
        vals = [degs[i] for i in blk]
        rng.shuffle(vals)
        for i, v in zip(blk, vals):
            degs[i] = v
    support = q.division.support.members
    degs = [grp.mul(x, rng.choice(support)) for x in degs]
    return fpres.make_presentation(twisted(q.division, rng), q.shape.blocks, degs)


# -- checks -------------------------------------------------------------------------


def check_iso_verdict(p, q, expect_iso: bool):
    """Check a Verdict from iso_algebras(p, q) independently of the engine.

    YES: the witness must satisfy q[i] = p[sigma[i]] * h[sigma[i]] * g, read
    off the Cayley table, with every h in supp D of p.  NO: the certificate
    must be an InvariantMismatch or a SearchExhausted over all |G| shifts.
    """
    table = p.group.table
    size = p.group.size

    def check(v) -> str | None:
        if expect_iso:
            if v.kind != fiso.ISOMORPHIC:
                return f"expected ISOMORPHIC, got {v.kind}"
            w = v.witness
            if w is None:
                return "ISOMORPHIC without a witness"
            n = p.shape.n
            if sorted(w.sigma) != list(range(n)) or len(w.correctors) != n:
                return "witness sigma/correctors have the wrong shape"
            support = set(p.division.support.members)
            if any(h not in support for h in w.correctors):
                return "witness corrector outside supp D"
            for i in range(n):
                k = w.sigma[i]
                if q.degrees[i] != table[table[p.degrees[k]][w.correctors[k]]][w.shift]:
                    return f"witness tuple relation fails at position {i + 1}"
            return None
        if v.kind != fiso.NOT_ISOMORPHIC:
            return f"expected NOT_ISOMORPHIC, got {v.kind}"
        cert = v.certificate
        if isinstance(cert, fiso.InvariantMismatch):
            return None
        if isinstance(cert, fiso.SearchExhausted):
            if cert.shifts_tried != size:
                return f"search exhausted after {cert.shifts_tried} of {size} shifts"
            return None
        return f"NOT_ISOMORPHIC without a certificate: {cert!r}"

    return check


def check_table(golden: int, total: int, cross_checked: bool):
    def check(res) -> str | None:
        cls = getattr(res, "classification", res)
        if cls.count != golden:
            return f"class count {cls.count}, golden {golden}"
        if cls.total != total or sum(cls.orbit_sizes) != total:
            return "orbit sizes do not partition the tuple space"
        if cross_checked and not (res.pairwise_checked and res.membership_checked):
            return "a class-table cross-check was skipped"
        return None

    return check


# -- workloads ----------------------------------------------------------------------


class Workload:
    """Base: ``setup`` builds inputs (timed as setup_s), ``prepare`` fixes the
    expected outputs (untimed), ``deck`` lists one pass of operations."""

    name = ""
    setup_repeats = 5
    kinds = {"a": "a", "b": "b"}  # report names of the two operation kinds
    throughput_kinds = ("a", "b")  # kinds whose weight counts as throughput
    throughput_name = ""

    def __init__(self, root: str, seed: int, small: bool = False, inject_wrong: bool = False):
        self.root = root
        self.seed = seed
        self.small = small
        self.inject_wrong = inject_wrong

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute expectations for the inputs of the latest setup; untimed."""

    def deck(self) -> list[Op]:
        raise NotImplementedError

    def trace_deck(self) -> list[Op]:
        return self.deck()

    def warm_up(self) -> None:
        """Work done once before timing starts."""

    def close(self) -> None:
        """Release whatever setup created (files, directories)."""


class IsoWorkload(Workload):
    """Closed-loop iso_algebras queries: kind a expects ISOMORPHIC, kind b NOT."""

    kinds = {"a": "iso_yes", "b": "iso_no"}
    throughput_name = "iso_qps"
    # (label, group builder, division builder, shapes, (a pairs, b pairs) per shape)
    types: list = []
    trace_ops = 0

    def setup(self) -> None:
        rng = random.Random(self.seed)
        pairs = []
        types = self.types[:2] if self.small else self.types
        for label, make_group, make_div, shapes, (n_yes, n_no) in types:
            grp = make_group(rng)
            d = make_div(grp, rng)
            for blocks in shapes:
                for _ in range(1 if self.small else n_yes):
                    p = random_presentation(d, blocks, rng)
                    pairs.append((label, p, rewrite(p, rng), True))
                for _ in range(1 if self.small else n_no):
                    p = random_presentation(d, blocks, rng)
                    pairs.append((label, p, random_presentation(d, blocks, rng), None))
        rng.shuffle(pairs)
        self.pairs = pairs
        self.draw_rng = random.Random(self.seed + 1)

    def prepare(self) -> None:
        # the second side of a NOT pair is redrawn until the canonical forms
        # differ; the draw uses its own stream, so every setup from one seed
        # ends with the same inputs
        rng = self.draw_rng
        out = []
        for label, p, q, expect in self.pairs:
            if expect is None:
                cf = fiso.canonical_form(p)
                for _ in range(1000):
                    if fiso.canonical_form(q) != cf:
                        break
                    q = random_presentation(p.division, p.shape.blocks, rng)
                else:
                    raise RuntimeError(f"{label}: no non-isomorphic partner found for a pair")
                expect = False
            out.append((label, p, q, expect))
        self.pairs = out

    def deck(self) -> list[Op]:
        ops = []
        for k, (label, p, q, expect) in enumerate(self.pairs):
            claimed = (not expect) if (self.inject_wrong and k == 0) else expect
            ops.append(
                Op(
                    "a" if expect else "b",
                    label,
                    lambda p=p, q=q: fiso.iso_algebras(p, q),
                    check_iso_verdict(p, q, claimed),
                    queries=1,
                )
            )
        return ops

    def trace_deck(self) -> list[Op]:
        return self.deck()[: self.trace_ops] if not self.small else self.deck()


def _abelian(*factors):
    return lambda rng: fgrp.build_abelian(list(factors))


def _pauli(t):
    return lambda grp, rng: random_pauli(t, grp, rng)


def _trivial(grp, rng):
    return fdiv.trivial_division(grp)


class IsoDense(IsoWorkload):
    """Large algebras (dim 40-160) over supports of order <= 4: certification-bound."""

    name = "iso_dense"
    types = [
        ("Z2xZ4 pauli2", _abelian(2, 4), _pauli(2), [(2, 2, 2), (1, 2, 3)], (10, 10)),
        ("Z2^3 pauli2", _abelian(2, 2, 2), _pauli(2), [(3, 3), (2, 2, 2, 2)], (10, 10)),
        ("Z8 twisted", _abelian(8), lambda g, rng: twisted_cyclic(g, "(2)", rng),
         [(2, 2, 2), (3, 3)], (10, 10)),
        ("S4 trivial", lambda rng: symmetric_group(4, rng), _trivial,
         [(2, 2, 2, 2), (4, 4)], (10, 10)),
        ("Z12 trivial", _abelian(12), _trivial, [(2, 2, 2, 2), (3, 3, 2)], (10, 10)),
    ]
    trace_ops = 100


class IsoWide(IsoWorkload):
    """Small algebras over supports of order 9 and 16: shift-search-bound."""

    name = "iso_wide"
    types = [
        ("Z3xZ6 pauli3", _abelian(3, 6), _pauli(3), [(1, 1), (1, 2), (1, 1, 1)], (12, 4)),
        ("Z6xZ6 pauli3", _abelian(6, 6), _pauli(3), [(1, 1), (1, 2), (1, 1, 1)], (12, 4)),
        ("Z4xZ4xZ2 pauli4", _abelian(4, 4, 2), _pauli(4), [(1, 1), (1, 2)], (1, 1)),
    ]
    trace_ops = 40


class Classify(Workload):
    """classify() over 576-7776 tuples (kind a) and enumerate_classes with
    both cross-checks on small instances (kind b)."""

    name = "classify"
    kinds = {"a": "classify", "b": "enumerate"}
    throughput_kinds = ("a",)
    throughput_name = "classify_tuples_per_s"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        s3 = symmetric_group(3, rng)
        s4 = symmetric_group(4, rng)
        z4 = fgrp.build_abelian([4])
        z6 = fgrp.build_abelian([6])
        z24 = fgrp.build_abelian([2, 4])
        pz = random_pauli(2, z24, rng)
        triv = fdiv.trivial_division
        z8 = fgrp.build_abelian([8])
        z22 = fgrp.build_abelian([2, 2])
        pz22 = random_pauli(2, z22, rng)
        # (kind, label, group, blocks, division, golden class count); each
        # call takes well under a second, so a run repeats every one of them
        if self.small:
            inst = [
                ("a", "Z4 trivial (1,1,1)", z4, (1, 1, 1), triv(z4), 16),
                ("b", "Z2xZ4 pauli (1,1)", z24, (1, 1), pz, 2),
            ]
        else:
            inst = [
                ("a", "Z4 trivial (2,2,2)", z4, (2, 2, 2), triv(z4), 252),
                ("a", "S3 trivial (1,1,1,1,1)", s3, (1, 1, 1, 1, 1), triv(s3), 1296),
                ("a", "Z2xZ4 pauli (1,1,1,1)", z24, (1, 1, 1, 1), pz, 8),
                ("a", "Z8 trivial (2,2)", z8, (2, 2), triv(z8), 164),
                ("a", "S4 trivial (1,1)", s4, (1, 1), triv(s4), 24),
                ("b", "Z6 trivial (1,2)", z6, (1, 2), triv(z6), 21),
                ("b", "S3 trivial (1,1,1)", s3, (1, 1, 1), triv(s3), 36),
                ("b", "Z2^2 pauli (1,1,1)", z22, (1, 1, 1), pz22, 1),
                ("b", "Z2xZ4 pauli (1,1)", z24, (1, 1), pz, 2),
                ("b", "Z4 trivial (1,1,1)", z4, (1, 1, 1), triv(z4), 16),
            ]
        rng.shuffle(inst)
        self.instances = inst

    def deck(self) -> list[Op]:
        ops = []
        for kind, label, grp, blocks, d, golden in self.instances:
            total = grp.size ** sum(blocks)
            if kind == "a":
                run = lambda g=grp, b=blocks, d=d: fiso.classify(g, b, d, budget=CLASSIFY_BUDGET)
            else:
                run = lambda g=grp, b=blocks, d=d: ftab.enumerate_classes(
                    g, b, d, budget=CLASSIFY_BUDGET
                )
            ops.append(Op(kind, label, run, check_table(golden, total, kind == "b"), weight=total))
        return ops


class Cli(Workload):
    """One ``python -m flagiso`` child at a time over a fixed command list.

    Kind a runs on the committed presentations/ fixtures (plus one classify),
    kind b on files this workload writes, over table groups S4 and S5.
    """

    name = "cli"
    kinds = {"a": "cli_fixture", "b": "cli_table"}
    throughput_name = "cli_calls_per_s"
    setup_repeats = 3

    def __init__(self, root, seed, small=False, inject_wrong=False):
        super().__init__(root, seed, small, inject_wrong)
        out = os.path.join(root, "perfbench", "out")
        os.makedirs(out, exist_ok=True)
        # witness and presentation files live here, never in presentations/
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=out)
        self.env = dict(os.environ)
        self.env.pop("FLAGISO_BUDGET", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")] + [x for x in [os.environ.get("PYTHONPATH")] if x]
        )

    def _f(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def setup(self) -> None:
        rng = random.Random(self.seed)
        s4 = symmetric_group(4, rng)
        s5 = symmetric_group(5, rng)
        v4 = fdiv.pauli(2, s4, ("1032", "2301"))  # Klein four-group, normal in S4
        p4a = random_presentation(v4, (2, 1), rng)
        p4b = rewrite(p4a, rng)
        t5 = fdiv.trivial_division(s5)
        p5a = random_presentation(t5, (1, 2, 1), rng)
        p5b = rewrite(p5a, rng)
        self.pres = {"s4a": p4a, "s4b": p4b, "s5a": p5a, "s5b": p5b}
        for key, p in self.pres.items():
            fio.save_presentation(p, self._f(key + ".json"))

    def prepare(self) -> None:
        """Expected first stdout line of every command, from in-process library calls."""
        fx = lambda name: os.path.join(self.root, "presentations", name)  # noqa: E731
        f = self._f
        load = fio.load_presentation

        def iso_token(a, b):
            return fiso.iso_algebras(load(a), load(b)).kind

        def dims_line(path):
            p = load(path)
            u, d = falg.invariants(falg.realize(p)).dims[0]
            return f"{p.group.name_of(u)}: {d}"

        def equiv_token(fn, a, b):
            return fn(load(a), load(b)).kind

        cmds_a = [
            (["validate", fx("klein_pauli.json")], "OK"),
            (["dims", "--radical", fx("z3_eaa.json")], dims_line(fx("z3_eaa.json"))),
            (["iso", fx("klein_pauli.json"), fx("klein_pauli_shifted.json"),
              "--witness", f("wk.json")],
             iso_token(fx("klein_pauli.json"), fx("klein_pauli_shifted.json"))),
            (["verify-witness", fx("klein_pauli.json"), fx("klein_pauli_shifted.json"),
              f("wk.json")], "WITNESS_VALID"),
            (["equiv-check", fx("z2_ea.json"), fx("z4_eb.json")],
             equiv_token(fiso.equiv_check, fx("z2_ea.json"), fx("z4_eb.json"))),
            (["equiv-elementary", fx("z2_ea.json"), fx("z4_eb.json")],
             equiv_token(fiso.equiv_elementary, fx("z2_ea.json"), fx("z4_eb.json"))),
            (["classify", "--group", "abelian:6", "--blocks", "1,2"], "CLASSES 21"),
        ]
        cmds_b = [
            (["validate", f("s5a.json")], "OK"),
            (["dims", "--radical", f("s4a.json")], dims_line(f("s4a.json"))),
            (["iso", f("s4a.json"), f("s4b.json"), "--witness", f("w4.json")], "ISOMORPHIC"),
            (["verify-witness", f("s4a.json"), f("s4b.json"), f("w4.json")], "WITNESS_VALID"),
            (["iso", f("s5a.json"), f("s5b.json"), "--witness", f("w5.json")], "ISOMORPHIC"),
            (["verify-witness", f("s5a.json"), f("s5b.json"), f("w5.json")], "WITNESS_VALID"),
            (["equiv-elementary", f("s5a.json"), f("s5b.json")],
             equiv_token(fiso.equiv_elementary, f("s5a.json"), f("s5b.json"))),
        ]
        if self.small:
            cmds_a, cmds_b = cmds_a[:1], cmds_b[:1]
        self.commands = [("a", c) for c in cmds_a] + [("b", c) for c in cmds_b]

    def warm_up(self) -> None:
        """One child before timing, so byte-code caches exist before any call is timed."""
        subprocess.run(
            [sys.executable, "-m", "flagiso", "--help"], cwd=self.root, env=self.env,
            capture_output=True, timeout=120, check=False,
        )

    def deck(self) -> list[Op]:
        def child(argv):
            return subprocess.run(
                [sys.executable, "-m", "flagiso", *argv], cwd=self.root, env=self.env,
                capture_output=True, text=True, timeout=120, check=False,
            )

        return [
            Op(kind, argv[0], lambda argv=argv: child(argv), _check_cli(want),
               queries=int(argv[0] == "iso"))
            for kind, (argv, want) in self.commands
        ]

    def trace_deck(self) -> list[Op]:
        """The same commands, through cli.main in this process."""

        def in_process(argv):
            out, err = stdio.StringIO(), stdio.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = fcli.main(list(argv))
            return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())

        return [
            Op(kind, argv[0], lambda argv=argv: in_process(argv), _check_cli(want),
               queries=int(argv[0] == "iso"))
            for kind, (argv, want) in self.commands
        ]

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _check_cli(want: str):
    def check(proc) -> str | None:
        if proc.returncode != 0:
            return f"exit code {proc.returncode}: {proc.stderr.strip()[:200]}"
        first = proc.stdout.split("\n", 1)[0]
        if first != want:
            return f"first line {first!r}, expected {want!r}"
        return None

    return check


WORKLOADS = {w.name: w for w in (IsoDense, IsoWide, Classify, Cli)}
