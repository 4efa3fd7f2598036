import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import NONASSOC_LOOP, make_sym, validate_cocycle_by_triples, z2_bilinear

from flagiso import (
    ISOMORPHIC,
    GradedDivisionAlgebra,
    GradingReport,
    GroupMismatch,
    InvalidInput,
    build_abelian,
    build_witness,
    compose_witness,
    invert_witness,
    iso_algebras,
    make_presentation,
    pauli,
    realize,
    subgroup_closure,
    trivial_cocycle,
    validate_cocycle,
    verify_witness,
)
from flagiso.cli import main
from flagiso.io import (
    division_from_obj,
    division_to_obj,
    group_from_obj,
    group_to_obj,
    load_json_file,
    load_presentation,
    load_witness,
    presentation_from_obj,
    save_presentation,
    save_witness,
    witness_from_obj,
    witness_to_obj,
)

FIXTURES = Path(__file__).resolve().parent.parent / "presentations"


def fx(name: str) -> str:
    return str(FIXTURES / name)


# -- json plumbing ---------------------------------------------------------------


def test_load_json_file_errors(tmp_path):
    with pytest.raises(InvalidInput) as ei:
        load_json_file(str(tmp_path / "missing.json"))
    assert ei.value.code == "file-error"
    assert str(ei.value).startswith("file error:")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidInput) as ei:
        load_json_file(str(bad))
    assert ei.value.code == "parse-error"
    assert str(ei.value).startswith("parse error:")


# -- groups ----------------------------------------------------------------------


def test_group_round_trip():
    grp = build_abelian([2, 3])
    back = group_from_obj(group_to_obj(grp))
    assert back == grp
    assert back.names == grp.names


def test_group_from_obj_rejections():
    with pytest.raises(InvalidInput) as ei:
        group_from_obj({"kind": "weird"})
    assert ei.value.code == "bad-schema"
    with pytest.raises(InvalidInput):
        group_from_obj({"kind": "abelian", "factors": [2, "x"]})
    with pytest.raises(InvalidInput):
        group_from_obj({"factors": [2]})


# -- division parts -----------------------------------------------------------------


def test_division_round_trip_preserves_cocycle():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    back = division_from_obj(division_to_obj(d), grp)
    assert back.support.members == d.support.members
    assert back.order == d.order
    assert back.cocycle.values == d.cocycle.values


def test_twisted_values_follow_listed_support_order():
    grp = build_abelian([4])
    obj = {
        "kind": "twisted",
        "support": ["(2)", "(0)"],  # deliberately not in sorted order
        "root_order": 2,
        "values": [[1, 0], [0, 0]],  # sigma((2),(2)) = -1
    }
    d = division_from_obj(obj, grp)
    assert d.support.members == (0, 2)
    assert d.cocycle.val(2, 2) == 1
    assert d.cocycle.val(0, 0) == 0


def test_division_from_obj_rejections():
    grp = build_abelian([4])
    base = {
        "kind": "twisted",
        "support": ["(0)", "(2)"],
        "root_order": 2,
        "values": [[0, 0], [0, 1]],
    }
    ok = division_from_obj(base, grp)
    assert ok.cocycle.val(2, 2) == 1

    with pytest.raises(InvalidInput):
        division_from_obj({**base, "support": ["(0)", "(2)", "(2)"]}, grp)
    with pytest.raises(InvalidInput):
        division_from_obj({**base, "root_order": 0}, grp)
    with pytest.raises(InvalidInput):
        division_from_obj({**base, "values": [[0, 0]]}, grp)
    with pytest.raises(InvalidInput):
        division_from_obj({**base, "values": [[0, 0], [0, "x"]]}, grp)
    with pytest.raises(InvalidInput):
        division_from_obj({"kind": "pauli", "t": 2, "images": ["(1)"]}, grp)
    with pytest.raises(InvalidInput):
        division_from_obj({"kind": "mystery"}, grp)


# -- presentations --------------------------------------------------------------------


def test_presentation_round_trip(tmp_path):
    grp = build_abelian([2, 2])
    p = make_presentation(pauli(2, grp, [2, 1]), [2, 1], [0, 3, 1])
    path = str(tmp_path / "p.json")
    save_presentation(p, path)
    q = load_presentation(path)
    assert q.degrees == p.degrees
    assert q.shape.blocks == p.shape.blocks
    assert q.group == p.group
    assert q.division.cocycle.values == p.division.cocycle.values


def test_presentation_fixture_files_load():
    p = load_presentation(fx("z2_ea.json"))
    assert p.group.size == 2
    assert p.degrees == (0, 1)
    kp = load_presentation(fx("klein_pauli.json"))
    assert len(kp.division.support.members) == 4
    assert kp.degrees == (0, 2)


def test_presentation_schema_rejections():
    with pytest.raises(InvalidInput) as ei:
        presentation_from_obj({"v": 2})
    assert ei.value.code == "bad-schema"
    with pytest.raises(InvalidInput):
        presentation_from_obj({"v": 1, "group": {"kind": "abelian", "factors": [2]}})
    with pytest.raises(InvalidInput):
        presentation_from_obj(
            {
                "v": 1,
                "group": {"kind": "abelian", "factors": [2]},
                "division": {"kind": "trivial"},
                "blocks": "1,1",
                "tuple": ["(0)", "(1)"],
            }
        )


# -- witnesses ------------------------------------------------------------------------


def klein_pauli_witness():
    p = load_presentation(fx("klein_pauli.json"))
    q = load_presentation(fx("klein_pauli_shifted.json"))
    v = iso_algebras(p, q)
    assert v.kind == "ISOMORPHIC"
    return p, q, v.witness


def test_witness_schema_shape():
    p, q, w = klein_pauli_witness()
    obj = witness_to_obj(w)
    assert set(obj) == {"v", "g", "sigma", "h", "mu", "root_order", "map"}
    assert obj["v"] == 1
    assert obj["sigma"] == [s + 1 for s in w.sigma]
    assert all(isinstance(x, str) for x in obj["h"])
    assert sorted(obj["mu"]) == sorted(
        q.group.name_of(h) for h in q.division.support.members
    )
    froms = [tuple(e["from"]) for e in obj["map"]]
    assert froms == sorted(froms)
    assert all(e["from"][0] >= 1 and e["from"][1] >= 1 for e in obj["map"])
    assert len(obj["map"]) == realize(p).dim


def test_witness_round_trip_verifies(tmp_path):
    p, q, w = klein_pauli_witness()
    path = str(tmp_path / "w.json")
    save_witness(w, path)
    back = load_witness(path, p, q)
    assert back.shift == w.shift
    assert back.sigma == w.sigma
    assert back.correctors == w.correctors
    assert back.mapping == w.mapping
    assert verify_witness(realize(p), realize(q), back).ok


def test_witness_structural_rejections():
    p, q, w = klein_pauli_witness()
    good = witness_to_obj(w)

    bad = {**good, "sigma": [1, 1]}
    with pytest.raises(InvalidInput) as ei:
        witness_from_obj(bad, p, q)
    assert ei.value.code == "invalid-witness-data"

    bad = {**good, "h": good["h"][:1]}
    with pytest.raises(InvalidInput):
        witness_from_obj(bad, p, q)

    bad = {**good, "mu": {"(0,0)": 0}}
    with pytest.raises(InvalidInput):
        witness_from_obj(bad, p, q)

    bad = {**good, "root_order": 0}
    with pytest.raises(InvalidInput):
        witness_from_obj(bad, p, q)

    dup = json.loads(json.dumps(good))
    dup["map"].append(dup["map"][0])
    with pytest.raises(InvalidInput) as ei:
        witness_from_obj(dup, p, q)
    assert "twice" in str(ei.value)

    bad = json.loads(json.dumps(good))
    bad["map"][0]["from"] = [0, 1, "(0,0)"]
    with pytest.raises(InvalidInput):
        witness_from_obj(bad, p, q)

    bad = {**good, "map": {}}
    with pytest.raises(InvalidInput) as ei:
        witness_from_obj(bad, p, q)
    assert ei.value.code == "invalid-witness-data"
    assert str(ei.value) == "witness: map must be a list"

    # a corrector outside the source support, the one provenance check made on
    # load: the Klein support is all of its group, so over Z2 with a trivial one
    a, b = load_presentation(fx("z2_ea.json")), load_presentation(fx("z2_ae.json"))
    bad = {**witness_to_obj(iso_algebras(a, b).witness), "h": ["(1)", "(0)"]}
    with pytest.raises(InvalidInput) as ei:
        witness_from_obj(bad, a, b)
    assert ei.value.code == "invalid-witness-data"
    assert str(ei.value) == "witness: correctors must lie in the division support"


def test_semantic_corruption_loads_then_fails_verification():
    # the loader is a structure check; lies about scalars are verify's business
    p, q, w = klein_pauli_witness()
    obj = witness_to_obj(w)
    obj["map"][0]["scalar_exp"] += 1
    back = witness_from_obj(obj, p, q)
    report = verify_witness(realize(p), realize(q), back)
    assert not report.ok
    assert any("scalar mismatch" in f for f in report.failures)


def test_shift_field_is_provenance_not_semantics():
    # verification is about the mapping; g/sigma/h/mu only explain how it was built
    p, q, w = klein_pauli_witness()
    obj = witness_to_obj(w)
    grp = p.group
    obj["g"] = grp.name_of(grp.mul(w.shift, 2))  # wrong but well-formed
    back = witness_from_obj(obj, p, q)
    assert verify_witness(realize(p), realize(q), back).ok
    obj["mu"] = {name: exp + 1 for name, exp in obj["mu"].items()}  # no corrector either
    back = witness_from_obj(obj, p, q)
    assert verify_witness(realize(p), realize(q), back).ok
    with pytest.raises(InvalidInput, match="mu is not a corrector"):  # checked as caller data
        build_witness(p, q, w.shift, w.sigma, w.correctors, back.mu)

    obj["g"] = "(9,9)"  # not even an element: rejected at load
    with pytest.raises(InvalidInput) as ei:
        witness_from_obj(obj, p, q)
    assert "unknown element name" in str(ei.value)


def test_invert_and_compose_check_loaded_witness_data():
    # over S3 with support <(1,0,2)>, a loaded g that breaks the tuple relation
    # must be refused before invert or compose computes with it
    grp, _, idx = make_sym(3)
    d = GradedDivisionAlgebra(trivial_cocycle(subgroup_closure(grp, [idx[(1, 0, 2)]])))
    p = make_presentation(d, (1, 1), ["012", "120"])
    w = iso_algebras(p, p).witness
    obj = witness_to_obj(w)
    assert verify_witness(realize(p), realize(p), invert_witness(witness_from_obj(obj, p, p))).ok
    obj["g"] = "021"
    back = witness_from_obj(obj, p, p)
    for run in (
        lambda: invert_witness(back),
        lambda: compose_witness(back, w),
        lambda: compose_witness(w, back),
    ):
        with pytest.raises(InvalidInput) as ei:
            run()
        assert ei.value.code == "invalid-witness-data"
        assert "tuple relation fails at position 1" in str(ei.value)


# -- command line ----------------------------------------------------------------------


def test_cli_validate(capsys):
    assert main(["validate", fx("z2_ea.json")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "OK",
        "group order 2",
        "division support size 1 root order 1",
        "blocks 1,1",
        "tuple (0),(1)",
    ]


def test_cli_validates_a_twisted_z2_to_the_6(tmp_path, capsys):
    """A bilinear cocycle on Z2^6 (|H| = 64) saved as a twisted division
    validates; with one entry flipped it exits 2 on the triple that the
    all-triples check names first."""
    sub, table = z2_bilinear(6)
    p = make_presentation(GradedDivisionAlgebra(validate_cocycle(sub, 2, table)), [2], [0, 0])
    path = tmp_path / "z2_6.json"
    save_presentation(p, str(path))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == [
        "OK",
        "group order 64",
        "division support size 64 root order 2",
    ]
    doc = json.loads(path.read_text())
    doc["division"]["values"][37][21] ^= 1
    table[37][21] ^= 1
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInput) as want:
        validate_cocycle_by_triples(sub, 2, table)
    assert want.value.code == "cocycle-identity"
    with pytest.raises(InvalidInput) as got:
        load_presentation(str(path))
    assert (got.value.code, str(got.value)) == (want.value.code, str(want.value))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"validation error: {want.value}\n")


def test_cli_dims(capsys):
    assert main(["dims", fx("z3_eaa.json")]) == 0
    assert capsys.readouterr().out.splitlines() == ["(0): 2", "(1): 1"]
    assert main(["dims", "--radical", fx("z3_eaa.json")]) == 0
    assert capsys.readouterr().out.splitlines() == ["(0): 2", "(1): 1", "J^1 (1): 1"]


def test_cli_dims_checks_the_grading_law(monkeypatch, capsys):
    failing = GradingReport(False, 1, ("deg(x) = y",))
    monkeypatch.setattr("flagiso.cli.check_grading", lambda alg: failing)
    assert main(["dims", fx("z3_eaa.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: grading law violated")


def test_cli_iso_yes_with_witness_file(tmp_path, capsys):
    wpath = str(tmp_path / "w.json")
    code = main(["iso", fx("z2_ea.json"), fx("z2_ae.json"), "--witness", wpath])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "ISOMORPHIC"
    assert out[1] == "shift (1)"
    assert out[2] == "sigma 1,2"
    assert out[3] == "h (0),(0)"
    assert out[4] == f"witness written to {wpath}"

    code = main(["verify-witness", fx("z2_ea.json"), fx("z2_ae.json"), wpath])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "WITNESS_VALID"
    assert out[1] == "checked 9 basis pairs"


def test_cli_iso_no_with_certificate(capsys):
    code = main(["iso", fx("z3_ea.json"), fx("z3_eaa.json")])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "NOT_ISOMORPHIC"
    assert out[1] == (
        "search exhausted: searched all 3 shifts with blockwise coset matching "
        "over a support of size 1"
    )
    assert out[2] == "invariant mismatch: dim at degree (1): 0 vs 1"


def test_cli_iso_no_with_a_radical_power_certificate(tmp_path, capsys):
    files = []
    for name, degrees in (("eea", ["(0)", "(0)", "(1)"]), ("eae", ["(0)", "(1)", "(0)"])):
        path = tmp_path / f"{name}.json"
        doc = {"v": 1, "group": {"kind": "abelian", "factors": [2]},
               "division": {"kind": "trivial"}, "blocks": [1, 1, 1], "tuple": degrees}
        path.write_text(json.dumps(doc), encoding="utf-8")
        files.append(str(path))
    code = main(["iso", *files])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "NOT_ISOMORPHIC",
        "search exhausted: searched all 2 shifts with blockwise coset matching "
        "over a support of size 1",
        "invariant mismatch: radical power 2 dimension profile differs",
    ]


def test_cli_iso_no_on_two_block_shapes(tmp_path, capsys):
    path = tmp_path / "z2_one_block.json"
    doc = {"v": 1, "group": {"kind": "abelian", "factors": [2]},
           "division": {"kind": "trivial"}, "blocks": [2], "tuple": ["(0)", "(1)"]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["iso", fx("z2_ea.json"), str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == "NOT_ISOMORPHIC\ninvariant mismatch: block shapes differ: (1, 1) vs (2,)\n"


def test_cli_iso_group_mismatch_exits_2(capsys):
    code = main(["iso", fx("z2_ea.json"), fx("z3_ea.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("validation error: group mismatch:")


@pytest.mark.parametrize(
    "witness_pair, source, target",
    [
        ("z2_ea.json", "z2_ea.json", "z3_eaa.json"),  # was WITNESS_VALID
        ("z2_ea.json", "z2_ea.json", "z3_ea.json"),  # was exit 1
        ("z2_ea.json", "z2_ea.json", "z4_eb.json"),  # was exit 1
        ("z2_ea.json", "klein_pauli.json", "z2_ea.json"),
        ("klein_pauli.json", "klein_pauli.json", "z2_ea.json"),  # was a mu message
        ("klein_pauli.json", "z3_ea.json", "klein_pauli.json"),
    ],
)
def test_cli_verify_witness_across_groups_exits_2(tmp_path, capsys, witness_pair, source, target):
    """A witness checked against presentations over two groups is unusable input,
    refused before any element name in it is resolved."""
    wpath = str(tmp_path / "w.json")
    assert main(["iso", fx(witness_pair), fx(witness_pair), "--witness", wpath]) == 0
    capsys.readouterr()
    code = main(["verify-witness", fx(source), fx(target), wpath])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("validation error: group mismatch:")


def test_verify_witness_refuses_algebras_over_two_groups():
    p = load_presentation(fx("z2_ea.json"))
    w = iso_algebras(p, p).witness
    with pytest.raises(GroupMismatch):
        verify_witness(realize(p), realize(load_presentation(fx("z3_eaa.json"))), w)


def test_cli_corrupted_witness_is_a_decision_not_an_error(tmp_path, capsys):
    wpath = str(tmp_path / "w.json")
    main(["iso", fx("klein_pauli.json"), fx("klein_pauli_shifted.json"), "--witness", wpath])
    capsys.readouterr()

    obj = json.loads(Path(wpath).read_text())
    obj["map"][3]["scalar_exp"] = (obj["map"][3]["scalar_exp"] + 1) % 2
    Path(wpath).write_text(json.dumps(obj))
    code = main(
        ["verify-witness", fx("klein_pauli.json"), fx("klein_pauli_shifted.json"), wpath]
    )
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "WITNESS_INVALID"
    assert out[1].startswith("checked ")
    assert any("scalar mismatch" in line for line in out[2:])


# verify-witness on the klein_pauli fixture pair's witness with one corruption,
# as printed when the scalar step walked every nonzero product
INVALID_REPORTS = {
    "scalar": """\
WITNESS_INVALID
checked 144 basis pairs
scalar mismatch at (0, 0, 1) * (0, 0, 2): exponent 1 != 0 (mod 2)
scalar mismatch at (0, 0, 1) * (0, 0, 3): exponent 0 != 1 (mod 2)
scalar mismatch at (0, 0, 2) * (0, 0, 1): exponent 0 != 1 (mod 2)
scalar mismatch at (0, 0, 2) * (0, 0, 3): exponent 0 != 1 (mod 2)
scalar mismatch at (0, 0, 3) * (0, 0, 1): exponent 1 != 0 (mod 2)
... and 5 more failures
""",
    "swapped to": """\
WITNESS_INVALID
checked 144 basis pairs
nonzero product (0, 0, 0) * (0, 0, 0) maps to a zero product
nonzero product (0, 0, 0) * (0, 0, 1) maps to a zero product
nonzero product (0, 0, 0) * (0, 0, 2) maps to a zero product
nonzero product (0, 0, 0) * (0, 0, 3) maps to a zero product
nonzero product (0, 0, 0) * (0, 1, 0) maps to a zero product
... and 4 more failures
""",
}


@pytest.mark.parametrize("corruption", sorted(INVALID_REPORTS))
def test_cli_invalid_witness_reports_match_the_goldens(tmp_path, capsys, corruption):
    """An invalid report names every failing pair, byte for byte, although a valid
    witness has its scalars checked on generator products only."""
    a, b = fx("klein_pauli.json"), fx("klein_pauli_shifted.json")
    wpath = tmp_path / "w.json"
    assert main(["iso", a, b, "--witness", str(wpath)]) == 0
    obj = json.loads(wpath.read_text())
    entries = obj["map"]
    if corruption == "scalar":
        entries[3]["scalar_exp"] = (entries[3]["scalar_exp"] + 1) % 2
    else:
        entries[0]["to"], entries[6]["to"] = entries[6]["to"], entries[0]["to"]
    wpath.write_text(json.dumps(obj))
    capsys.readouterr()
    code = main(["verify-witness", a, b, str(wpath)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, INVALID_REPORTS[corruption], "")


def test_cli_witness_with_a_corrector_outside_the_support_exits_2(tmp_path, capsys):
    """Loading refuses correctors outside the source support, although h is
    provenance that verify-witness does not otherwise read."""
    wpath = tmp_path / "w.json"
    main(["iso", fx("z2_ea.json"), fx("z2_ae.json"), "--witness", str(wpath)])
    capsys.readouterr()
    obj = json.loads(wpath.read_text())
    assert obj["h"] == ["(0)", "(0)"]
    obj["h"][0] = "(1)"
    wpath.write_text(json.dumps(obj))
    code = main(["verify-witness", fx("z2_ea.json"), fx("z2_ae.json"), str(wpath)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        f"validation error: witness file {wpath}: correctors must lie in the division support\n"
    )


def test_cli_structurally_broken_witness_exits_2(tmp_path, capsys):
    wpath = str(tmp_path / "w.json")
    main(["iso", fx("z2_ea.json"), fx("z2_ae.json"), "--witness", wpath])
    capsys.readouterr()
    obj = json.loads(Path(wpath).read_text())
    obj["sigma"] = [1, 1]
    Path(wpath).write_text(json.dumps(obj))
    code = main(["verify-witness", fx("z2_ea.json"), fx("z2_ae.json"), wpath])
    captured = capsys.readouterr()
    assert code == 2
    assert "validation error:" in captured.err
    assert "permutation" in captured.err


def test_cli_equiv_check(capsys):
    code = main(["equiv-check", fx("z2_ea.json"), fx("z4_eb.json")])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "INCONCLUSIVE"
    assert "all necessary conditions hold" in out[1]


def test_cli_equiv_elementary(capsys):
    code = main(["equiv-elementary", fx("z2_ea.json"), fx("z4_eb.json")])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out == ["EQUIVALENT", "lambda (0) -> (0)", "lambda (1) -> (1)", "sigma 1,2"]

    code = main(["equiv-elementary", fx("z2_ea.json"), fx("z2_ee.json")])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "NOT_EQUIVALENT"
    assert "degree value sets" in out[1]


def test_cli_equiv_elementary_answers_both_orders(tmp_path, capsys):
    """The off-diagonal cells carry four distinct degrees over Z8 but three over
    Z2^3, so no relabeling maps components one-to-one: NOT_EQUIVALENT either way,
    although a relabeling that is a function on components exists from Z8."""
    files = []
    for factors, degrees in (([8], ["(6)", "(7)", "(1)"]),
                             ([2, 2, 2], ["(1,1,1)", "(0,1,1)", "(1,1,0)"])):
        path = tmp_path / f"z{len(factors)}.json"
        doc = {"v": 1, "group": {"kind": "abelian", "factors": factors},
               "division": {"kind": "trivial"}, "blocks": [2, 1], "tuple": degrees}
        path.write_text(json.dumps(doc), encoding="utf-8")
        files.append(str(path))
    for a, b in (files, files[::-1]):
        code = main(["equiv-elementary", a, b])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "NOT_EQUIVALENT"


def test_cli_classify(capsys):
    code = main(["classify", "--group", "abelian:3", "--blocks", "1,1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "CLASSES 3"
    assert out[1] == "tuple (0),(0)  orbit 3"
    assert out[2] == "tuple (0),(1)  orbit 3"
    assert out[3] == "tuple (0),(2)  orbit 3"
    records = [json.loads(line) for line in out[4:]]
    assert records == [
        {"v": 1, "class": 1, "tuple": ["(0)", "(0)"], "orbit_size": 3},
        {"v": 1, "class": 2, "tuple": ["(0)", "(1)"], "orbit_size": 3},
        {"v": 1, "class": 3, "tuple": ["(0)", "(2)"], "orbit_size": 3},
    ]


def test_cli_classify_pauli_division(tmp_path, capsys):
    """The Klein Pauli division, by name or from a division file, classifies alike."""
    args = ["classify", "--group", "abelian:2,2", "--blocks", "1,1", "--division"]
    code = main([*args, "pauli:2:(1,0),(0,1)"])
    named = capsys.readouterr().out
    assert code == 0
    assert named.splitlines()[0] == "CLASSES 1"
    path = tmp_path / "pauli.json"
    d = pauli(2, build_abelian([2, 2]), ["(1,0)", "(0,1)"])
    path.write_text(json.dumps({"v": 1, **division_to_obj(d)}))
    assert main([*args, str(path)]) == 0
    assert capsys.readouterr().out == named


def test_cli_classify_budget_exit(capsys):
    code = main(["classify", "--group", "abelian:4", "--blocks", "1,1", "--budget", "15"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "validation error: enumeration of 4^2 = 16 tuples exceeds budget 15\n"
    )


@pytest.mark.parametrize(
    "group, blocks, power",
    [("abelian:3", "10000", "3^10000"), ("abelian:2", "100000000", "2^100000000")],
)
def test_cli_classify_refuses_huge_counts_without_printing_them(capsys, group, blocks, power):
    """A count past the integer-to-string limit is named by its power, and refused at once."""
    code = main(["classify", "--group", group, "--blocks", blocks])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err == (
        f"validation error: enumeration of {power} tuples exceeds budget 100000\n"
    )


def test_cli_classify_refuses_a_count_with_a_huge_exponent_without_printing_it(capsys):
    """A 4,000-digit block size parses; the refusal names neither it nor the count."""
    code = main(["classify", "--group", "abelian:2", "--blocks", "7" * 4000])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err == (
        "validation error: enumeration of 2^n, n of more than 64 bits, tuples exceeds budget"
        " 100000\n"
    )


def test_cli_classify_budgets_a_one_element_group_as_order_two(tmp_path, capsys):
    """Its lone tuple would realize an algebra of dimension 80200: refused at once."""
    path = tmp_path / "g1.json"
    path.write_text(json.dumps({"v": 1, "kind": "table", "table": [[0]], "names": ["e"]}))
    code = main(["classify", "--group", str(path), "--blocks", "400"])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err == (
        "validation error: enumeration of 2^400 tuples exceeds budget 100000"
        " (a one-element group is budgeted as order 2)\n"
    )


def test_cli_file_and_parse_errors(tmp_path, capsys):
    code = main(["validate", str(tmp_path / "nope.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("file error:")

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{", encoding="utf-8")
    code = main(["validate", str(garbled)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("parse error:")


def hostile_json_commands(tmp_path, literal):
    """argv for validate, dims, verify-witness and classify --division, each
    reading one file that holds literal as the value of an integer field."""

    def write(name, obj, key):
        path = tmp_path / name
        path.write_text(json.dumps({**obj, key: 0}).replace(f'"{key}": 0', f'"{key}": {literal}'))
        return str(path)

    a, b = fx("klein_pauli.json"), fx("klein_pauli_shifted.json")
    assert main(["iso", a, b, "--witness", str(tmp_path / "w.json")]) == 0
    witness = json.loads((tmp_path / "w.json").read_text())
    pres = write("p.json", json.loads((FIXTURES / "z2_ea.json").read_text()), "v")
    division = {"v": 1, "kind": "twisted", "support": ["(0)"], "values": [[0]]}
    return [
        ["validate", pres],
        ["dims", pres],
        ["verify-witness", a, b, write("w2.json", witness, "root_order")],
        ["classify", "--group", "abelian:2", "--blocks", "1,1",
         "--division", write("d.json", division, "root_order")],
    ]


@pytest.mark.parametrize(
    "literal, reason",
    [
        ("7" * 5000, "integer literal with too many digits"),  # the int limit is 4,300 digits
        ("[" * 100_000 + "]" * 100_000, "nesting too deep"),
    ],
    ids=["5000-digit integer", "100000-deep list"],
)
def test_cli_refuses_oversized_json_literals_with_exit_2(tmp_path, capsys, literal, reason):
    """json.loads raises a plain ValueError for an integer past the digit limit and
    a RecursionError for deep nesting; both are parse errors, with and without
    python -O, and the literal is not echoed."""
    commands = hostile_json_commands(tmp_path, literal)
    capsys.readouterr()
    for argv in commands:
        code = main(argv)
        captured = capsys.readouterr()
        want = (2, "", f"parse error: {argv[-1]}: {reason}\n")
        assert (code, captured.out, captured.err) == want
        res = run_cli(*argv, optimize=True)
        assert (res.returncode, res.stdout, res.stderr) == want


# every command that reads a file: (id, argv with FILE where it reads the
# hostile file, the kind of file read there); WITNESS is a valid witness file
FILE_READS = [
    ("validate", ["validate", "FILE"], "presentation"),
    ("dims", ["dims", "FILE"], "presentation"),
    ("iso", ["iso", "FILE", fx("z2_ae.json")], "presentation"),
    ("equiv-check", ["equiv-check", fx("z2_ea.json"), "FILE"], "presentation"),
    ("equiv-elementary", ["equiv-elementary", "FILE", fx("z2_ae.json")], "presentation"),
    ("verify-witness", ["verify-witness", fx("z2_ea.json"), "FILE", "WITNESS"], "presentation"),
    ("verify-witness-file", ["verify-witness", fx("z2_ea.json"), fx("z2_ae.json"), "FILE"], "witness"),
    ("classify-group", ["classify", "--group", "FILE", "--blocks", "1"], "group"),
    ("classify-division",
     ["classify", "--group", "abelian:2", "--blocks", "1", "--division", "FILE"], "division"),
]


@pytest.mark.parametrize(
    "argv, kind, name",
    [
        pytest.param(argv, kind, name, id=f"{command}-{label}")
        for label, name in [("not-utf8", None), ("lone-surrogate", "\ud800"), ("line-break", "a\nb")]
        for command, argv, kind in FILE_READS
        if name is None or kind in ("presentation", "group")
    ],
)
def test_cli_refuses_undecodable_files_and_unprintable_names_with_exit_2(
    tmp_path, capsys, argv, kind, name
):
    """A file that is not UTF-8 is a parse error, and its bytes are not echoed.
    A table name that is not printable is a validation error: a lone surrogate
    cannot be encoded on stdout, and a line break would split a line of output.
    Both exit 2 with nothing on stdout, with and without python -O."""
    path = tmp_path / "hostile.json"
    if name is None:
        path.write_bytes(b"\xff\xfe\x00bad")
        err = f"parse error: {path}: not UTF-8 text\n"
    else:
        group = {"kind": "table", "table": [[0, 1], [1, 0]], "names": ["e", name]}
        obj = {"v": 1, **group} if kind == "group" else {
            "v": 1, "group": group, "division": {"kind": "trivial"},
            "blocks": [1, 1], "tuple": ["e", name],
        }
        path.write_text(json.dumps(obj))
        err = f"validation error: table name {name!r} at position 1 is not printable\n"
    witness = tmp_path / "w.json"
    assert main(["iso", fx("z2_ea.json"), fx("z2_ae.json"), "--witness", str(witness)]) == 0
    capsys.readouterr()
    argv = [{"FILE": str(path), "WITNESS": str(witness)}.get(arg, arg) for arg in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", err)
    res = run_cli(*argv, optimize=True)
    assert (res.returncode, res.stdout, res.stderr) == (2, "", err)


@pytest.mark.parametrize(
    "obj, reason",
    [({"kind": "trivial"}, "is missing required key 'v'"),
     ({"v": 2, "kind": "trivial"}, 'must declare "v": 1')],
    ids=["missing-v", "wrong-v"],
)
def test_cli_refuses_a_division_file_without_version_1(tmp_path, capsys, obj, reason):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(obj))
    code = main(["classify", "--group", "abelian:2", "--blocks", "1", "--division", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", f"validation error: division file {path} {reason}\n"
    )


def test_cli_iso_refuses_an_unwritable_witness_path_before_printing(tmp_path, capsys):
    wpath = tmp_path / "no-such-dir" / "w.json"
    code = main(["iso", fx("z2_ea.json"), fx("z2_ae.json"), "--witness", str(wpath)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("file error:")


def test_cli_bad_arguments(capsys):
    code = main(["classify", "--group", "abelian:x", "--blocks", "1,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot parse abelian factors" in captured.err

    code = main(["classify", "--group", "abelian:2", "--blocks", "zero"])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot parse block sizes" in captured.err

    for blocks in ("1,,1", "1,", ",1"):  # an empty entry is an error, not skipped
        code = main(["classify", "--group", "abelian:2", "--blocks", blocks])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot parse block sizes" in captured.err

    code = main(["classify", "--group", "abelian:2,,2", "--blocks", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot parse abelian factors" in captured.err

    code = main(["classify", "--group", "abelian:2", "--blocks", "1,1", "--division", "pauli:x"])
    captured = capsys.readouterr()
    assert code == 2

    with pytest.raises(SystemExit):
        main(["iso"])  # argparse handles missing positionals
    capsys.readouterr()


BOOL_TABLE = {"kind": "table", "table": [[False, True], [True, False]], "names": ["(0)", "(1)"]}


def run_mutated(tmp_path, capsys, target, path, value):
    """Set the field at ``path`` of a document to ``value`` and run the command reading it.

    ``target`` is a presentations/ fixture or an inline presentation (run
    through ``validate``), or "witness": the klein_pauli fixture pair's
    witness (run through ``verify-witness``).
    """
    if target == "witness":
        a, b = fx("klein_pauli.json"), fx("klein_pauli_shifted.json")
        src = tmp_path / "w.json"
        assert main(["iso", a, b, "--witness", str(src)]) == 0
        obj = json.loads(src.read_text(encoding="utf-8"))
        argv = ["verify-witness", a, b]
    elif isinstance(target, dict):
        obj = json.loads(json.dumps(target))
        argv = ["validate"]
    else:
        obj = json.loads((FIXTURES / target).read_text(encoding="utf-8"))
        argv = ["validate"]
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    code = main([*argv, str(bad)])
    return code, capsys.readouterr()


@pytest.mark.parametrize(
    "target,path,value",
    [
        pytest.param("z2_ea.json", ("v",), True, id="v-true"),
        pytest.param("z2_ea.json", ("blocks",), [True, True], id="blocks-true"),
        pytest.param("z2_ea.json", ("group",), BOOL_TABLE, id="table-bool-entries"),
        pytest.param("z2_ea.json", ("group",), {**BOOL_TABLE, "table": 5}, id="table-not-a-list"),
        pytest.param("z2_ea.json", ("group",), {**BOOL_TABLE, "table": [[0, 1], [1, 0]], "names": 5},
                     id="table-names-not-a-list"),
        pytest.param("klein_pauli.json", ("division", "t"), 2.0, id="pauli-t-float"),
        pytest.param("klein_pauli.json", ("division", "t"), "2", id="pauli-t-string"),
        pytest.param("witness", ("v",), True, id="witness-v-true"),
        pytest.param("witness", ("root_order",), True, id="root-order-true"),
        pytest.param("witness", ("sigma",), [True, 2], id="sigma-true"),
        pytest.param("witness", ("mu", "(0,0)"), "1", id="mu-string"),
        pytest.param("witness", ("mu", "(0,0)"), [1], id="mu-list"),
        pytest.param("witness", ("mu", "(0,0)"), None, id="mu-null"),
        pytest.param("witness", ("mu", "(0,0)"), 1.5, id="mu-float"),
        pytest.param("witness", ("map", 0, "from", 0), True, id="map-position-true"),
        pytest.param("witness", ("map", 0, "scalar_exp"), True, id="scalar-exp-true"),
    ],
)
def test_cli_rejects_malformed_integers(tmp_path, capsys, target, path, value):
    """Every integer field is an int in the file; bool, float, string and null are errors."""
    code, captured = run_mutated(tmp_path, capsys, target, path, value)
    assert code == 2, captured.out
    assert captured.err.startswith("validation error:")


# a table group with single-character names and a twisted division over all of it
TWISTED_TABLE = {
    "v": 1,
    "group": {"kind": "table", "table": [[0, 1], [1, 0]], "names": ["0", "1"]},
    "division": {"kind": "twisted", "support": ["0", "1"], "root_order": 1,
                 "values": [[0, 0], [0, 0]]},
    "blocks": [1, 1],
    "tuple": ["0", "1"],
}


@pytest.mark.parametrize(
    "target,path,value",
    [
        pytest.param("z2_ea.json", ("tuple", 0), 0, id="tuple-index"),
        pytest.param("klein_pauli.json", ("division", "images", 0), 2, id="pauli-image-index"),
        pytest.param(TWISTED_TABLE, ("division", "support", 0), 0, id="support-entry-index"),
        pytest.param(TWISTED_TABLE, ("division", "support"), 1, id="support-int"),
        pytest.param(TWISTED_TABLE, ("division", "support"), 1.5, id="support-float"),
        pytest.param(TWISTED_TABLE, ("division", "support"), True, id="support-bool"),
        pytest.param(TWISTED_TABLE, ("division", "support"), None, id="support-null"),
        pytest.param(TWISTED_TABLE, ("division", "support"), "01", id="support-string"),
        pytest.param(TWISTED_TABLE, ("division", "support"), {"0": 0, "1": 0}, id="support-dict"),
        pytest.param(TWISTED_TABLE, ("group", "names", 0), ["0"], id="names-entry-list"),
        pytest.param(TWISTED_TABLE, ("group", "names", 0), {"0": 0}, id="names-entry-dict"),
        pytest.param(TWISTED_TABLE, ("group", "names"), [0, 1], id="names-ints"),
        pytest.param("witness", ("g",), 0, id="witness-g-index"),
        pytest.param("witness", ("h", 0), 0, id="witness-h-index"),
        pytest.param("witness", ("map", 0, "from", 2), 0, id="map-element-index"),
    ],
)
def test_cli_rejects_element_indices_and_malformed_lists(tmp_path, capsys, target, path, value):
    """Element fields are names, never indices; support and names are lists (of strings)."""
    code, captured = run_mutated(tmp_path, capsys, target, path, value)
    assert code == 2, captured.out
    assert captured.err.startswith("validation error:")


def test_cli_refuses_groups_above_the_order_cap(capsys):
    code = main(["classify", "--group", "abelian:16,17", "--blocks", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("validation error:")
    assert "group order 272 exceeds the cap of 256" in captured.err


@pytest.mark.parametrize("command", ["validate", "classify"])
def test_cli_refuses_long_abelian_factor_lists_without_printing_the_order(
    tmp_path, capsys, command
):
    """2^20000 has too many digits to print; the order is refused, not formatted."""
    factors = [2] * 20_000
    if command == "validate":
        doc = {"v": 1, "group": {"kind": "abelian", "factors": factors},
               "division": {"kind": "trivial"}, "blocks": [1], "tuple": ["(0)"]}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        args = ["validate", str(path)]
    else:
        args = ["classify", "--group", "abelian:" + ",".join(map(str, factors)), "--blocks", "1"]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "validation error: group order of more than 64 bits exceeds the cap of 256\n"
    )


LONG_FACTORS = [2] * 400_000 + [1]
BAD_FACTORS = [
    ("validate", LONG_FACTORS, "every factor must be at least 2, got 1 at position 400000 of 400001"),
    ("classify", LONG_FACTORS, "every factor must be at least 2, got 1 at position 400000 of 400001"),
    ("validate", [2, 1], "every factor must be at least 2, got [2, 1]"),
    ("classify", [2, 1], "every factor must be at least 2, got [2, 1]"),
    ("validate", [True, 3], "abelian factors must be a list of integers"),
    ("validate", [2.5], "abelian factors must be a list of integers"),
    ("validate", ["a"], "abelian factors must be a list of integers"),
]


@pytest.mark.parametrize("command, factors, message", BAD_FACTORS)
def test_cli_names_one_bad_abelian_factor(tmp_path, capsys, command, factors, message):
    """A bad factor exits 2 with one short line, however long the list."""
    if command == "validate":
        doc = {"v": 1, "group": {"kind": "abelian", "factors": factors},
               "division": {"kind": "trivial"}, "blocks": [1], "tuple": ["(0)"]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        args = ["validate", str(path)]
    else:
        args = ["classify", "--group", "abelian:" + ",".join(map(str, factors)), "--blocks", "1"]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"validation error: {message}\n"


HUGE = "7" * 5000  # past the 4,300-digit limit of int()


@pytest.mark.parametrize(
    "args, start",
    [
        (
            ["--group", "abelian:" + HUGE, "--blocks", "1"],
            "cannot parse abelian factors from 'abelian:7",
        ),
        (["--group", "abelian:2", "--blocks", HUGE], "cannot parse block sizes from '7"),
        (
            ["--group", "abelian:2,2", "--blocks", "1", "--division", f"pauli:{HUGE}:(1,0),(0,1)"],
            "pauli order '7",
        ),
    ],
    ids=["group", "blocks", "division"],
)
def test_cli_shortens_oversized_values_in_messages(capsys, args, start):
    """A 5,000-digit value is echoed as a prefix and its length, on one short line."""
    code = main(["classify", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"validation error: {start}")
    assert captured.err.count("\n") == 1 and len(captured.err.encode()) < 300
    assert "characters)" in captured.err


DIGITS = "9" * 4000  # within int()'s limit: the value parses and is refused afterwards


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ["--group", "abelian:2", "--blocks", DIGITS + ",0"],
            "block sizes must be positive, got 0 at position 1 of 2",
        ),
        (
            ["--group", "abelian:2", "--blocks", "-" + DIGITS],
            f"block sizes must be positive, got -{DIGITS[:63]}... (4001 characters) at position 0 of 1",
        ),
        (
            ["--group", f"abelian:{DIGITS},1", "--blocks", "1"],
            "every factor must be at least 2, got 1 at position 1 of 2",
        ),
        (
            ["--group", "abelian:2", "--blocks", ",".join(["1"] * 20_000 + ["0"])],
            "block sizes must be positive, got 0 at position 20000 of 20001",
        ),
    ],
    ids=["huge-block", "huge-negative-block", "huge-factor", "long-blocks"],
)
def test_cli_names_one_bad_entry_of_an_oversized_list(capsys, args, message):
    """A list with a huge entry, or of more than 16 entries, is not echoed whole."""
    code = main(["classify", *args])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, f"validation error: {message}\n")
    assert len(captured.err.encode()) < 300


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ["--group", "abelian:x", "--blocks", "1"],
            "cannot parse abelian factors from 'abelian:x'",
        ),
        (["--group", "abelian:2", "--blocks", "zero"], "cannot parse block sizes from 'zero'"),
        (
            ["--group", "abelian:2", "--blocks", "1", "--division", "pauli:x"],
            '''cannot parse 'pauli:x'; expected "pauli:t:u-name,v-name"''',
        ),
        (
            ["--group", "abelian:2", "--blocks", "1", "--division", "pauli:x:(0),(1)"],
            "pauli order 'x' is not an integer",
        ),
        (
            ["--group", "abelian:2", "--blocks", "1", "--division", "pauli:2:a,b,c"],
            '''cannot parse 'pauli:2:a,b,c'; expected "pauli:t:u-name,v-name"''',
        ),
        # 64 characters are still echoed whole
        (
            ["--group", "abelian:2", "--blocks", "x" * 64],
            f"cannot parse block sizes from {'x' * 64!r}",
        ),
    ],
    ids=["group", "blocks", "division", "pauli-order", "pauli-names", "64-characters"],
)
def test_cli_echoes_short_values_whole(capsys, args, message):
    code = main(["classify", *args])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, f"validation error: {message}\n")


def test_cli_pauli_fixture_round(capsys):
    code = main(["iso", fx("klein_pauli.json"), fx("klein_pauli_shifted.json")])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "ISOMORPHIC"


def child_env():
    """The environment for a flagiso child: this tree's src/ first on PYTHONPATH."""
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def run_cli(*args, optimize=False):
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "flagiso", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )


def test_cli_optimized_mode_matches_normal_mode(tmp_path):
    """Under python -O (asserts stripped) verdicts, witnesses and exit codes are unchanged."""
    cases = [
        ("z2_ea.json", "z2_ae.json", "ISOMORPHIC"),
        ("klein_pauli.json", "klein_pauli_shifted.json", "ISOMORPHIC"),
        ("z3_ea.json", "z3_eaa.json", "NOT_ISOMORPHIC"),
    ]
    for a, b, verdict in cases:
        outcomes = []
        for optimize in (False, True):
            wpath = tmp_path / f"w-{a}-{optimize}.json"
            res = run_cli("iso", fx(a), fx(b), "--witness", str(wpath), optimize=optimize)
            outcome = [(res.returncode, res.stdout.splitlines()[:1])]
            if wpath.exists():
                outcome.append(wpath.read_bytes())
                res = run_cli("verify-witness", fx(a), fx(b), str(wpath), optimize=optimize)
                outcome.append((res.returncode, res.stdout.splitlines()[:1]))
                obj = json.loads(wpath.read_text())
                obj["map"][-1]["to"] = obj["map"][0]["to"]  # no longer injective
                wpath.write_text(json.dumps(obj))
                res = run_cli("verify-witness", fx(a), fx(b), str(wpath), optimize=optimize)
                outcome.append((res.returncode, res.stdout.splitlines()[:1]))
            outcomes.append(outcome)
        normal, optimized = outcomes
        assert normal[0] == (0, [verdict])
        if verdict == ISOMORPHIC:
            assert normal[2:] == [(0, ["WITNESS_VALID"]), (0, ["WITNESS_INVALID"])]
        assert optimized == normal


def test_cli_exits_0_quietly_when_the_reader_closes_stdout():
    """A reader that stops after the first line (as `| head -1` does) is no
    internal error: no stderr, exit 0.  The 2.8 MB of output outgrows any
    pipe buffer, so the child is still writing when the pipe closes."""
    args = ["classify", "--group", "abelian:2,2", "--blocks", "1,1,1,1,1,1,1,1"]
    with subprocess.Popen(
        [sys.executable, "-m", "flagiso", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (first, code, err) == ("CLASSES 16384\n", 0, "")


def test_cli_rejects_a_non_associative_table_group(tmp_path):
    """A loop as a group file or inside a presentation exits 2, with and without -O."""
    group = {"kind": "table", "table": NONASSOC_LOOP}
    gpath = tmp_path / "loop.json"
    gpath.write_text(json.dumps({"v": 1, **group}))
    ppath = tmp_path / "loop_presentation.json"
    presentation = {"division": {"kind": "trivial"}, "blocks": [1], "tuple": ["g0"]}
    ppath.write_text(json.dumps({"v": 1, "group": group, **presentation}))
    t = NONASSOC_LOOP
    for args in (["classify", "--group", str(gpath), "--blocks", "1"], ["validate", str(ppath)]):
        for optimize in (False, True):
            res = run_cli(*args, optimize=optimize)
            assert (res.returncode, res.stdout) == (2, ""), res.stderr
            triple = re.fullmatch(
                r"validation error: not associative at triple \((\d+),(\d+),(\d+)\)\n", res.stderr
            )
            a, b, c = map(int, triple.groups())
            assert t[t[a][b]][c] != t[a][t[b][c]]
