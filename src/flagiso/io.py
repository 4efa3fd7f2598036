"""JSON interchange for groups, division parts, presentations, and witnesses.

Every file is UTF-8 JSON with a top-level "v": 1.   Group elements appear in
files by name only; on save, groups are canonicalized to table form and
division parts to twisted form, so loaders need only handle the general
schemas.  File and parse failures raise with messages already carrying the
"file error:" / "parse error:" prefixes the CLI passes through.
"""

from __future__ import annotations

import json
from typing import Any

from .algebras import BasisElem, _layout
from .cocycles import Corrector, validate_cocycle
from .division import GradedDivisionAlgebra, pauli, trivial_division
from .errors import GroupMismatch, InvalidInput, _shown
from .groups import Group, Subgroup, build_abelian, validate_table
from .iso import IsoWitness
from .presentations import FlagPresentation, make_presentation

__all__ = [
    "load_presentation",
    "save_presentation",
    "load_witness",
    "save_witness",
    "group_from_obj",
    "group_to_obj",
    "division_from_obj",
    "division_to_obj",
    "load_json_file",
    "load_group_file",
    "load_division_file",
]


def load_json_file(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise InvalidInput(f"file error: {path}: {e.strerror or e}", code="file-error") from None
    except UnicodeDecodeError:
        raise InvalidInput(f"parse error: {path}: not UTF-8 text", code="parse-error") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidInput(f"parse error: {path}: {e}", code="parse-error") from None
    except ValueError:
        # json's one other ValueError: an integer literal past the interpreter's
        # limit on digits converted to int; the number itself is not echoed
        raise InvalidInput(
            f"parse error: {path}: integer literal with too many digits", code="parse-error"
        ) from None
    except RecursionError:
        raise InvalidInput(f"parse error: {path}: nesting too deep", code="parse-error") from None


def _require(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise InvalidInput(f"{where} is missing required key {key!r}", code="bad-schema")
    return obj[key]


def _int(value: Any, message: str, code: str = "bad-schema", least: int | None = None) -> int:
    """An integer field, at least ``least`` when given.  JSON true/false are
    not integers here, although Python's bool subclasses int."""
    if type(value) is not int or (least is not None and value < least):
        raise InvalidInput(message, code=code)
    return value


def _ints(values: Any, message: str, code: str = "bad-schema") -> list[int]:
    if not isinstance(values, list):
        raise InvalidInput(message, code=code)
    return [_int(v, message, code) for v in values]


def _elem(group: Group, value: Any, message: str, code: str = "bad-schema") -> int:
    """An element field: a name of the group, never an index."""
    if not isinstance(value, str):
        raise InvalidInput(message, code=code)
    return group.elem_by_name(value).index


def _check_version(obj: Any, where: str) -> None:
    message = f'{where} must declare "v": 1'
    if _int(_require(obj, "v", where), message) != 1:
        raise InvalidInput(message, code="bad-schema")


# -- groups --------------------------------------------------------------------


def group_from_obj(obj: Any) -> Group:
    kind = _require(obj, "kind", "group object")
    if kind == "abelian":
        factors = _ints(
            _require(obj, "factors", "abelian group object"),
            "abelian factors must be a list of integers",
        )
        return build_abelian(factors)
    if kind == "table":
        message = "table must be a list of rows of integers"
        table = _require(obj, "table", "table group object")
        if not isinstance(table, list):
            raise InvalidInput(message, code="non-latin")
        names = obj.get("names")
        if names is not None:
            if not isinstance(names, list) or any(not isinstance(x, str) for x in names):
                raise InvalidInput("table names must be a list of strings", code="bad-names")
            # names are printed on lines of their own: no line breaks, no lone surrogates
            for pos, x in enumerate(names):
                if not x.isprintable():
                    raise InvalidInput(
                        f"table name {_shown(x)} at position {pos} is not printable",
                        code="bad-names",
                    )
        return validate_table([_ints(row, message, "non-latin") for row in table], names)
    raise InvalidInput(f"unknown group kind {kind!r}", code="bad-schema")


def group_to_obj(group: Group) -> dict:
    return {
        "kind": "table",
        "names": list(group.names),
        "table": [list(row) for row in group.table],
    }


def load_group_file(path: str) -> Group:
    obj = load_json_file(path)
    _check_version(obj, f"group file {path}")
    return group_from_obj(obj)


# -- division parts ------------------------------------------------------------


def division_from_obj(obj: Any, group: Group) -> GradedDivisionAlgebra:
    kind = _require(obj, "kind", "division object")
    if kind == "trivial":
        return trivial_division(group)
    if kind == "pauli":
        t = _int(_require(obj, "t", "pauli division object"), "pauli t must be an integer")
        images = _require(obj, "images", "pauli division object")
        if not isinstance(images, list) or len(images) != 2:
            raise InvalidInput("pauli images must be a two-element list", code="bad-schema")
        uv = [_elem(group, x, "pauli images must be element names") for x in images]
        return pauli(t, group, uv)
    if kind == "twisted":
        listed = _require(obj, "support", "twisted division object")
        order = _int(
            _require(obj, "root_order", "twisted division object"),
            "root_order must be a positive integer",
            least=1,
        )
        values = _require(obj, "values", "twisted division object")
        message = "twisted support must be a list of element names"
        if not isinstance(listed, list):
            raise InvalidInput(message, code="bad-schema")
        members = [_elem(group, x, message) for x in listed]
        if len(set(members)) != len(members):
            raise InvalidInput("twisted support lists an element twice", code="bad-schema")
        sub = Subgroup(group, tuple(members))
        n = len(members)
        if (
            not isinstance(values, list)
            or len(values) != n
            or any(not isinstance(r, list) or len(r) != n for r in values)
        ):
            raise InvalidInput(
                f"twisted values must be a {n}x{n} matrix of exponents", code="bad-schema"
            )
        # rows/columns of "values" follow the listed support order, not the
        # sorted member order the Subgroup ends up with
        tbl = [[0] * n for _ in range(n)]
        for i, a in enumerate(members):
            for j, b in enumerate(members):
                tbl[sub.index[a]][sub.index[b]] = _int(values[i][j], "twisted values must be integers")
        return GradedDivisionAlgebra(validate_cocycle(sub, order, tbl))
    raise InvalidInput(f"unknown division kind {kind!r}", code="bad-schema")


def load_division_file(path: str, group: Group) -> GradedDivisionAlgebra:
    obj = load_json_file(path)
    _check_version(obj, f"division file {path}")
    return division_from_obj(obj, group)


def division_to_obj(d: GradedDivisionAlgebra) -> dict:
    grp = d.group
    members = d.support.members
    return {
        "kind": "twisted",
        "support": [grp.name_of(h) for h in members],
        "root_order": d.order,
        "values": [
            [d.cocycle.val(a, b) for b in members] for a in members
        ],
    }


# -- presentations -------------------------------------------------------------


def presentation_from_obj(obj: Any, where: str = "presentation") -> FlagPresentation:
    _check_version(obj, where)
    group = group_from_obj(_require(obj, "group", where))
    division = division_from_obj(_require(obj, "division", where), group)
    blocks = _ints(_require(obj, "blocks", where), "blocks must be a list of integers")
    degrees = _require(obj, "tuple", where)
    message = "tuple must be a list of element names"
    if not isinstance(degrees, list):
        raise InvalidInput(message, code="bad-schema")
    return make_presentation(division, blocks, [_elem(group, x, message) for x in degrees])


def load_presentation(path: str) -> FlagPresentation:
    return presentation_from_obj(load_json_file(path), f"presentation file {path}")


def save_presentation(p: FlagPresentation, path: str) -> None:
    obj = {
        "v": 1,
        "group": group_to_obj(p.group),
        "division": division_to_obj(p.division),
        "blocks": list(p.shape.blocks),
        "tuple": list(p.degree_names()),
    }
    _dump(obj, path)


# -- witnesses -----------------------------------------------------------------


def save_witness(w: IsoWitness, path: str) -> None:
    _dump(witness_to_obj(w), path)


def witness_to_obj(w: IsoWitness) -> dict:
    grp = w.source.group
    order = w.scalar_order
    k = order // w.mu.order
    tgt_members = w.target.division.support.members
    mapping = w.mapping

    def triple(b: BasisElem) -> list:
        return [b.row + 1, b.col + 1, grp.name_of(b.sup)]

    return {
        "v": 1,
        "g": grp.name_of(w.shift),
        "sigma": [s + 1 for s in w.sigma],
        "h": [grp.name_of(h) for h in w.correctors],
        "mu": {grp.name_of(h): (k * w.mu.exp_of(h)) % order for h in tgt_members},
        "root_order": order,
        "map": [
            {
                "from": triple(b),
                "to": triple(mapping[b][0]),
                "scalar_exp": mapping[b][1],
            }
            for b in sorted(mapping)
        ],
    }


def witness_from_obj(
    obj: Any, source: FlagPresentation, target: FlagPresentation, where: str = "witness"
) -> IsoWitness:
    """Rebuild a witness verbatim: the endpoints must share a group, names are
    resolved and shapes checked, and nothing more.  verify_witness checks the
    map alone; g, sigma, h and mu are provenance, which only build_witness,
    invert_witness and compose_witness check (the tuple relation and the
    corrector law)."""
    _check_version(obj, where)
    if source.group != target.group:
        raise GroupMismatch("witness endpoints are graded by different groups")
    grp = source.group
    n = source.shape.n
    message = f"{where}: g must be an element name"
    shift = _elem(grp, _require(obj, "g", where), message, "invalid-witness-data")
    message = f"{where}: sigma must be a permutation of 1..{n}"
    sigma_raw = _ints(_require(obj, "sigma", where), message, "invalid-witness-data")
    if sorted(sigma_raw) != list(range(1, n + 1)):
        raise InvalidInput(message, code="invalid-witness-data")
    sigma = tuple(s - 1 for s in sigma_raw)
    h_raw = _require(obj, "h", where)
    if not isinstance(h_raw, list) or len(h_raw) != n:
        raise InvalidInput(f"{where}: h must list {n} correctors", code="invalid-witness-data")
    message = f"{where}: h must list element names"
    correctors = tuple(_elem(grp, x, message, "invalid-witness-data") for x in h_raw)
    sup = source.division.support.index
    if any(h not in sup for h in correctors):
        raise InvalidInput(
            f"{where}: correctors must lie in the division support", code="invalid-witness-data"
        )
    order = _int(
        _require(obj, "root_order", where),
        f"{where}: root_order must be a positive integer",
        "invalid-witness-data",
        least=1,
    )
    mu_raw = _require(obj, "mu", where)
    tgt_sup = target.division.support
    if not isinstance(mu_raw, dict) or sorted(mu_raw) != sorted(
        grp.name_of(h) for h in tgt_sup.members
    ):
        raise InvalidInput(
            f"{where}: mu must assign an exponent to each target support element",
            code="invalid-witness-data",
        )
    mu_message = f"{where}: mu exponents must be integers"
    mu = Corrector(
        tgt_sup,
        order,
        tuple(
            _int(mu_raw[grp.name_of(h)], mu_message, "invalid-witness-data")
            for h in tgt_sup.members
        ),
    )
    map_raw = _require(obj, "map", where)
    if not isinstance(map_raw, list):
        raise InvalidInput(f"{where}: map must be a list", code="invalid-witness-data")
    mapping: dict[BasisElem, tuple[BasisElem, int]] = {}
    for entry in map_raw:
        frm = _triple_from(entry, "from", grp, where)
        to = _triple_from(entry, "to", grp, where)
        exp = _int(
            _require(entry, "scalar_exp", f"{where} map entry"),
            f"{where}: scalar_exp must be an integer",
            "invalid-witness-data",
        )
        if frm in mapping:
            raise InvalidInput(
                f"{where}: map defines {tuple(frm)} twice", code="invalid-witness-data"
            )
        mapping[frm] = (to, exp % order)
    images, exponents = _positions(mapping, source, target)
    return IsoWitness(source, target, shift, sigma, correctors, mu, order, images, exponents)


def _positions(mapping: dict, source: FlagPresentation, target: FlagPresentation):
    """IsoWitness.images and exponents of a map given element by element."""
    index = _layout(source.shape, source.division.support).index
    if mapping.keys() != index.keys():
        return (), ()
    index2 = _layout(target.shape, target.division.support).index
    pairs = [mapping[b] for b in index]
    return tuple(index2.get(to, to) for to, _ in pairs), tuple(exp for _, exp in pairs)


def _triple_from(entry: Any, key: str, grp: Group, where: str) -> BasisElem:
    raw = _require(entry, key, f"{where} map entry")
    if not isinstance(raw, list) or len(raw) != 3:
        raise InvalidInput(
            f"{where}: map entry {key!r} must be [row, col, element]",
            code="invalid-witness-data",
        )
    message = f"{where}: map positions are 1-based integers"
    i, j = (_int(x, message, "invalid-witness-data", least=1) for x in raw[:2])
    message = f"{where}: map elements are element names"
    return BasisElem(i - 1, j - 1, _elem(grp, raw[2], message, "invalid-witness-data"))


def load_witness(path: str, source: FlagPresentation, target: FlagPresentation) -> IsoWitness:
    return witness_from_obj(load_json_file(path), source, target, f"witness file {path}")


def _dump(obj: dict, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(obj, f, indent=2)
            f.write("\n")
    except OSError as e:
        raise InvalidInput(f"file error: {path}: {e.strerror or e}", code="file-error") from None
