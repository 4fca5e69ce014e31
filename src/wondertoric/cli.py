"""Command-line interface: fan and arrangement checks, model computations,
permutation statistics, and golden-output reproduction."""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import sys
from collections import Counter

from .errors import FileFormatError, ValidationError, WondertoricError
from .fans import (
    EQUAL_SIGN_BOUND,
    EqualSignBases,
    Fan,
    betti_numbers,
    complete_bases,
    validate,
)
from .files import fixture_path, load_arrangement, load_fan
from .layers import goodness_check, poset_of_layers
from .models import (
    BuildingSet,
    building_set_from_arrangement,
    enumerate_admissible,
    enumerate_nested_sets,
    is_well_connected,
    poincare,
    rank_via_blowup_recursion,
)
from .presentation import (
    emit_presentation,
    mono_powers,
    monomial_basis,
    render_monomial,
    render_terms,
)
from .series import (
    eulerian_series,
    lec_series,
    verify_lambda_recurrence,
    verify_main_identity,
)
from .typea import (
    AdmissibleForest,
    TreeNode,
    eulerian,
    hook_factorize,
    inversions,
    lec,
    make_forest,
    psi,
    psi_inverse,
)

JSON_SCHEMA_VERSION = 1

EXAMPLES = {
    "example-main": ("example_main.arrangement.json", "good_fan_3d.json"),
    "example-lines": ("example_lines.arrangement.json", "p1x4_fan.json"),
    "example-a2": ("example_a2.arrangement.json", "weyl_a3_fan.json"),
}


def _fmt(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _fmt_rows(rows) -> str:
    return "[" + ", ".join(_fmt(r) for r in rows) + "]"


def _fmt_word(word) -> str:
    return "[" + ", ".join(str(x) for x in word) + "]"


def _poly_text(coeffs, var: str = "q") -> str:
    """Render a coefficient tuple ascending in the variable."""
    parts = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        if power == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            tail = var if power == 1 else f"{var}^{power}"
            parts.append(head + tail)
    return " + ".join(parts) if parts else "0"


def _product_text(kind: str, indices) -> str:
    """The product of the ray classes (kind "C") or member classes ("T")."""
    return render_monomial(tuple((kind, i) for i in indices))


def _support_text(support) -> str:
    return "{" + ", ".join(_product_text("T", (i,)) for i in support) + "}"


def _emit(args, text, as_json, *result) -> None:
    """Print one rendering of a computed result: the payload of
    `as_json(*result)` under --json, else the lines of `text(*result)`."""
    if args.json:
        body = {"formatVersion": JSON_SCHEMA_VERSION}
        body.update(as_json(*result))
        print(json.dumps(body, indent=2, sort_keys=True))
    else:
        print("\n".join(text(*result)))


def _model_inputs(arrfile, fanfile, bound: int = EQUAL_SIGN_BOUND):
    """The building set of an arrangement file and the run's one resolver,
    built from the file's equal-sign bases for the fan file's fan."""
    arr = load_arrangement(arrfile)
    fan = load_fan(fanfile)
    bases = complete_bases(
        fan, arr.torus_dim, EqualSignBases(fan, arr.equal_sign_bases, bound)
    )
    building = building_set_from_arrangement(arr.torus_dim, arr.layers, arr.building)
    return building, bases


# per-command reports: each is computed once, then rendered as text lines or
# as a JSON payload by two renderers taking the same arguments; `reproduce`
# renders text only


def _fan_result(fan: Fan):
    """The validation report and the Betti numbers, None unless the fan is
    smooth and complete."""
    report = validate(fan)
    betti = betti_numbers(fan) if report.smooth and report.complete else None
    return report, betti


def _fan_text(fan: Fan, report, betti) -> list[str]:
    lines = [
        f"rays: {len(fan.rays)}",
        f"maximal cones: {len(fan.maximal_cones)}",
        f"simplicial: {'yes' if report.simplicial else 'no'}",
        f"smooth: {'yes' if report.smooth else 'no'}",
        f"complete: {'yes' if report.complete else 'no'}",
    ]
    if report.f_vector is None:
        lines.append("f-vector: unavailable (requires a simplicial fan)")
    else:
        lines.append(f"f-vector: {_fmt(report.f_vector)}")
    if betti is None:
        lines.append("Betti numbers: unavailable (requires a smooth complete fan)")
    else:
        lines.append(f"Betti numbers: {_fmt(betti)}")
    return lines


def _fan_json(fan: Fan, report, betti) -> dict:
    return {
        "rays": len(fan.rays),
        "maximalCones": len(fan.maximal_cones),
        "simplicial": report.simplicial,
        "smooth": report.smooth,
        "complete": report.complete,
        "fVector": None if report.f_vector is None else list(report.f_vector),
        "betti": None if betti is None else list(betti),
    }


def _poset_text(poset, edges) -> list[str]:
    lines = [
        f"torus dimension: {poset.torus_dim}",
        f"elements: {len(poset.elements)}",
    ]
    for i, el in enumerate(poset.elements):
        lines.append(
            f"L{i + 1}: codim {el.rank}, gamma {_fmt_rows(el.gamma.basis)}, "
            f"phi {_fmt_word(el.phi)}"
        )
    lines.append("covers (containing layer -> contained layer):")
    for i, j in edges:
        lines.append(f"  L{i + 1} -> L{j + 1}")
    return lines


def _poset_json(poset, edges) -> dict:
    return {
        "torusDim": poset.torus_dim,
        "elements": [
            {
                "codim": el.rank,
                "gamma": [list(r) for r in el.gamma.basis],
                "phi": [str(v) for v in el.phi],
            }
            for el in poset.elements
        ],
        "covers": [[i, j] for i, j in edges],
    }


def _goodness_text(report, bound: int) -> list[str]:
    lines = [f"character lattices checked: {len(report.bases) + len(report.failures)}"]
    for lat, rows in report.bases:
        lines.append(f"gamma {_fmt_rows(lat.basis)}: equal-sign basis {_fmt_rows(rows)}")
    for lat in report.failures:
        lines.append(
            f"gamma {_fmt_rows(lat.basis)}: no equal-sign basis within bound {bound}"
        )
    lines.append(f"good: {'yes' if report.ok else 'no'}")
    return lines


def _goodness_json(report, bound: int) -> dict:
    return {
        "good": report.ok,
        "bases": [
            {"gamma": [list(r) for r in lat.basis], "basis": [list(r) for r in rows]}
            for lat, rows in report.bases
        ],
        "failures": [[list(r) for r in lat.basis] for lat in report.failures],
        "bound": bound,
    }


def _nested_text(building: BuildingSet, connect, nested) -> list[str]:
    lines = [
        f"building set: {len(building.members)} members",
        f"well-connected: {'yes' if connect.ok else 'no'}",
        f"nested sets: {len(nested)}",
    ]
    lines.extend(_support_text(s) for s in nested)
    return lines


def _nested_json(building: BuildingSet, connect, nested) -> dict:
    return {
        "members": len(building.members),
        "wellConnected": connect.ok,
        "nestedSets": [list(s) for s in nested],
    }


def _admissible_text(funcs) -> list[str]:
    lines = [f"admissible functions: {len(funcs)}"]
    for k, f in enumerate(funcs, start=1):
        lines.append(
            f"{k}: support {_support_text(f.support)}, "
            f"values {_fmt(f.values)}, degree {f.degree}"
        )
    return lines


def _admissible_json(funcs) -> dict:
    return {
        "functions": [
            {"support": list(f.support), "values": list(f.values)} for f in funcs
        ]
    }


def _function_text(f) -> str:
    return _product_text("T", (m for m, v in zip(f.support, f.values) for _ in range(v)))


def _basis_text(basis, graded) -> list[str]:
    lines = [f"basis elements: {len(basis.elements)}"]
    ambient_seen: Counter = Counter()
    for el in basis.elements:
        func = _function_text(el.function)
        if el.monomial is None:
            ambient_seen[(el.function, el.cohomology_degree)] += 1
            j = ambient_seen[(el.function, el.cohomology_degree)]
            lift = f"ambient class {j} of degree {el.cohomology_degree}"
        else:
            lift = _product_text("C", el.monomial)
        lines.append(f"deg {el.degree}: function {func}, lift {lift}")
    lines.append(f"graded counts: {_fmt(graded)}")
    return lines


def _basis_json(basis, graded) -> dict:
    entries = [
        {
            "support": list(el.function.support),
            "values": list(el.function.values),
            "monomial": None if el.monomial is None else list(el.monomial),
            "cohomologyDegree": el.cohomology_degree,
            "degree": el.degree,
        }
        for el in basis.elements
    ]
    return {"elements": entries, "graded": list(graded)}


def _poincare_text(result, oracle) -> list[str]:
    lines = []
    for row in result.rows:
        values = ", ".join(_fmt(f.values) for f in row.functions) or "-"
        lines.append(
            f"support {_support_text(row.support)} | "
            f"subfan Betti {_fmt(row.subfan_betti)} | values {values} | "
            f"contribution {_fmt(row.contribution)}"
        )
    lines.append(f"Poincare coefficients: {_fmt(result.total)}")
    lines.append(f"polynomial: {_poly_text(result.total)}")
    lines.append(f"blowup recursion: {_fmt(oracle)}")
    lines.append(f"oracle agreement: {'yes' if result.total == oracle else 'no'}")
    return lines


def _poincare_json(result, oracle) -> dict:
    return {
        "rows": [
            {
                "support": list(row.support),
                "subfanBetti": list(row.subfan_betti),
                "values": [list(f.values) for f in row.functions],
                "contribution": list(row.contribution),
            }
            for row in result.rows
        ],
        "total": list(result.total),
        "blowupRecursion": list(oracle),
        "agreement": result.total == oracle,
    }


def _presentation_text(ideal, full: bool) -> list[str]:
    a, b, c, d, e = ideal.class_sizes()
    lines = [
        f"variables: {ideal.variable_count} "
        f"({ideal.ray_count} ray classes, {ideal.member_count} member classes)",
        f"variant: {ideal.variant}",
        f"class (a) nonface monomials: {a}",
        f"class (b) linear forms: {b}",
        f"class (c) ray-member products: {c}",
        f"class (d) member relations: {d}",
        f"class (e) empty-intersection products: {e}",
    ]
    if full:
        for mono in ideal.nonface_monomials:
            lines.append("nonface: " + _product_text("C", mono))
        for form in ideal.linear_forms:
            lines.append("linear: " + render_terms(form))
        for ray, member in ideal.ray_member_products:
            lines.append("product: " + render_monomial((("C", ray), ("T", member))))
        for rel in ideal.member_relations:
            above = _support_text(rel.above)
            lines.append(
                f"relation {_product_text('T', (rel.member,))} above {above}: "
                + render_terms(rel.terms)
            )
        for subset in ideal.empty_intersection_products:
            lines.append("empty intersection: " + _product_text("T", subset))
    return lines


def _terms_json(terms) -> list:
    """Terms as [[[[kind, index], exponent], ...], coefficient], ordered by
    their (variable, exponent) lists."""
    powers = sorted((mono_powers(mono), coeff) for mono, coeff in terms)
    return [[[[list(v), e] for v, e in mono], coeff] for mono, coeff in powers]


def _presentation_json(ideal, full: bool) -> dict:
    return {
        "variables": ideal.variable_count,
        "rayCount": ideal.ray_count,
        "memberCount": ideal.member_count,
        "variant": ideal.variant,
        "nonfaceMonomials": [list(m) for m in ideal.nonface_monomials],
        "linearForms": [_terms_json(form) for form in ideal.linear_forms],
        "rayMemberProducts": [list(p) for p in ideal.ray_member_products],
        "memberRelations": [
            {
                "member": rel.member,
                "above": list(rel.above),
                "terms": _terms_json(rel.terms),
            }
            for rel in ideal.member_relations
        ],
        "emptyIntersectionProducts": [
            list(s) for s in ideal.empty_intersection_products
        ],
    }


# forest text form: leaf label, or (q^i: child, child, ...); components by ";"


def forest_to_text(forest: AdmissibleForest) -> str:
    return "; ".join(_tree_to_text(t) for t in forest.trees)


def _tree_to_text(node: TreeNode) -> str:
    if node.is_leaf:
        return str(node.leaf_label)
    inner = ", ".join(_tree_to_text(c) for c in node.children)
    return f"(q^{node.exponent}: {inner})"


def forest_from_text(text: str) -> AdmissibleForest:
    """Parse the textual forest form produced by forest_to_text."""
    trees = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise FileFormatError("empty forest component")
        node, rest = _parse_tree(chunk)
        if rest.strip():
            raise FileFormatError(f"trailing input after tree: {rest!r}")
        trees.append(node)
    return make_forest(trees)


def _parse_tree(text: str) -> tuple[TreeNode, str]:
    text = text.lstrip()
    if text.startswith("("):
        body = text[1:].lstrip()
        if not body.startswith("q^"):
            raise FileFormatError("expected q^<exponent> after '('")
        body = body[2:]
        exponent, body = _take_number(body)
        body = body.lstrip()
        if not body.startswith(":"):
            raise FileFormatError("expected ':' after the exponent")
        body = body[1:]
        children = []
        while True:
            child, body = _parse_tree(body)
            children.append(child)
            body = body.lstrip()
            if body.startswith(","):
                body = body[1:]
                continue
            if body.startswith(")"):
                return TreeNode.branch(exponent, children), body[1:]
            raise FileFormatError("expected ',' or ')' in a branch")
    label, rest = _take_number(text)
    return TreeNode.leaf(label), rest


def _take_number(text: str) -> tuple[int, str]:
    digits = re.match(r"\d*", text)[0]
    if not digits:
        raise FileFormatError(f"expected a number at {text[:12]!r}")
    try:
        return int(digits), text[len(digits) :]
    except ValueError as exc:  # more digits than int() converts
        raise FileFormatError(f"cannot read the number at {text[:12]!r}: {exc}") from None


# subcommand handlers


def _cmd_fan_check(args) -> int:
    fan = load_fan(args.fanfile)
    report, betti = _fan_result(fan)
    _emit(args, _fan_text, _fan_json, fan, report, betti)
    return 0 if betti is not None else 3


def _cmd_arr_poset(args) -> int:
    arr = load_arrangement(args.arrfile)
    poset = poset_of_layers(arr.torus_dim, arr.layers)
    edges = poset.covers()
    _emit(args, _poset_text, _poset_json, poset, edges)
    return 0


def _cmd_arr_goodness(args) -> int:
    arr = load_arrangement(args.arrfile)
    fan = load_fan(args.fanfile)
    bases = EqualSignBases(fan, arr.equal_sign_bases, args.bound)
    report = goodness_check(fan, poset_of_layers(arr.torus_dim, arr.layers), bases)
    _emit(args, _goodness_text, _goodness_json, report, bases.bound)
    return 0 if report.ok else 3


def _cmd_model(args) -> int:
    # nested and admissible search for no basis and take no --bound
    bound = getattr(args, "bound", EQUAL_SIGN_BOUND)
    building, bases = _model_inputs(args.arrfile, args.fanfile, bound)
    fan = bases.fan
    if args.what == "nested":
        connect = is_well_connected(building)
        nested = enumerate_nested_sets(building)
        _emit(args, _nested_text, _nested_json, building, connect, nested)
    elif args.what == "admissible":
        funcs = enumerate_admissible(building)
        _emit(args, _admissible_text, _admissible_json, funcs)
    elif args.what == "basis":
        basis = monomial_basis(building, fan, bases)
        graded = basis.graded_counts(fan.ambient_dim + 1)
        _emit(args, _basis_text, _basis_json, basis, graded)
    else:
        result = poincare(building, fan, bases)
        oracle = rank_via_blowup_recursion(building, fan, bases)
        _emit(args, _poincare_text, _poincare_json, result, oracle)
        return 0 if result.total == oracle else 4
    return 0


def _cmd_model_presentation(args) -> int:
    building, bases = _model_inputs(args.arrfile, args.fanfile, args.bound)
    ideal = emit_presentation(building, bases.fan, bases, args.variant)
    _emit(args, _presentation_text, _presentation_json, ideal, args.full)
    return 0


def _cmd_typea_eulerian(args) -> int:
    coeffs = eulerian(args.n)
    lines = [
        f"A_{args.n}(q) = {_poly_text(coeffs)}",
        f"coefficients: {_fmt(coeffs)}",
    ]
    _emit(args, lambda: lines, lambda: {"n": args.n, "coefficients": list(coeffs)})
    return 0


def _cmd_typea_lec(args) -> int:
    fact = hook_factorize(args.word)
    lines = [
        f"word: {_fmt_word(args.word)}",
        f"prefix: {_fmt_word(fact.prefix)}",
    ]
    for k, hook in enumerate(fact.hooks, start=1):
        lines.append(f"hook {k}: {_fmt_word(hook)}, inversions {inversions(hook)}")
    total = lec(args.word)
    lines.append(f"lec: {total}")
    payload = {
        "word": list(args.word),
        "prefix": list(fact.prefix),
        "hooks": [list(h) for h in fact.hooks],
        "lec": total,
    }
    _emit(args, lambda: lines, lambda: payload)
    return 0


def _cmd_typea_psi(args) -> int:
    try:
        lines, payload = _psi_report(args)
    except RecursionError:
        # parsing, comparing and printing a forest recurse once per level
        raise FileFormatError("forest text nests too deeply") from None
    _emit(args, lambda: lines, lambda: payload)
    return 0


def _psi_report(args) -> tuple[list[str], dict]:
    if args.invert:
        if args.sigma:
            raise ValidationError("--invert takes only --forest, not a permutation")
        if args.forest is None:
            raise ValidationError("--invert requires --forest")
        forest = forest_from_text(args.forest)
        small, word = psi_inverse(forest)
        lines = [
            f"forest: {forest_to_text(forest)}",
            f"smaller forest: {forest_to_text(small)}",
            f"permutation: {_fmt_word(word)}",
        ]
        payload = {
            "forest": forest_to_text(forest),
            "smallerForest": forest_to_text(small),
            "permutation": list(word),
        }
        return lines, payload
    if not args.sigma:
        raise ValidationError("a permutation of the components is required")
    if args.forest is None:
        forest = make_forest([TreeNode.leaf(i) for i in range(1, len(args.sigma) + 1)])
    else:
        forest = forest_from_text(args.forest)
    grown = psi(forest, args.sigma)
    lines = [
        f"forest: {forest_to_text(forest)}",
        f"permutation: {_fmt_word(args.sigma)}",
        f"result: {forest_to_text(grown)}",
        f"degree: {forest.degree} + {lec(args.sigma)} = {grown.degree}",
    ]
    payload = {
        "forest": forest_to_text(forest),
        "permutation": list(args.sigma),
        "result": forest_to_text(grown),
        "degree": grown.degree,
    }
    return lines, payload


def _cmd_typea_verify(args) -> int:
    order = args.order
    if order < 1:
        raise ValidationError(f"series order {order} is below 1")
    recurrence = verify_lambda_recurrence(order)
    identity = verify_main_identity(order)
    stat_order = min(order, 12)
    equidistributed = lec_series(stat_order) == eulerian_series(stat_order)
    checks = [
        (f"tree-series recurrence through t^{order}", recurrence),
        (f"statistic composite identity through t^{order}", identity),
        (f"hook/descent equidistribution through t^{stat_order}", equidistributed),
    ]
    lines = [f"{name}: {'pass' if ok else 'FAIL'}" for name, ok in checks]
    payload = {"order": order, "checks": {name: ok for name, ok in checks}}
    _emit(args, lambda: lines, lambda: payload)
    return 0 if all(ok for _, ok in checks) else 4


def reproduction_text(example_id: str) -> str:
    """Deterministic end-to-end report for a bundled example."""
    if example_id not in EXAMPLES:
        raise ValidationError(
            f"unknown example {example_id!r}; choose from {sorted(EXAMPLES)}"
        )
    arr_name, fan_name = EXAMPLES[example_id]
    building, bases = _model_inputs(fixture_path(arr_name), fixture_path(fan_name))
    fan, poset = bases.fan, building.poset
    lines = [f"example: {example_id}", "", "== fan =="]
    lines.extend(_fan_text(fan, *_fan_result(fan)))
    lines.extend(["", "== poset =="])
    lines.append(f"elements: {len(poset.elements)}")
    by_codim = Counter(el.rank for el in poset.elements)
    lines.append(
        "by codimension: "
        + ", ".join(f"{r}: {by_codim[r]}" for r in sorted(by_codim))
    )
    lines.extend(["", "== nested sets =="])
    lines.extend(
        _nested_text(building, is_well_connected(building), enumerate_nested_sets(building))
    )
    # the rows hold the admissible functions in enumeration order, grouped
    # by support, so they are walked once
    result = poincare(building, fan, bases)
    lines.extend(["", "== admissible functions =="])
    lines.extend(_admissible_text([f for row in result.rows for f in row.functions]))
    lines.extend(["", "== poincare =="])
    oracle = rank_via_blowup_recursion(building, fan, bases)
    lines.extend(_poincare_text(result, oracle))
    lines.extend(["", "== presentation =="])
    ideal = emit_presentation(building, fan, bases)
    lines.extend(_presentation_text(ideal, False))
    return "\n".join(lines) + "\n"


def _cmd_reproduce(args) -> int:
    text = reproduction_text(args.example)
    golden = fixture_path("golden") / f"{args.example}.txt"
    if args.update_golden:
        golden.write_text(text)
        print(f"wrote {golden}")
        return 0
    if not golden.exists():
        raise FileFormatError(f"no golden output bundled for {args.example!r}")
    recorded = golden.read_text()
    if text == recorded:
        print(f"{args.example}: reproduction matches the recorded output")
        return 0
    diff = difflib.unified_diff(
        recorded.splitlines(keepends=True),
        text.splitlines(keepends=True),
        fromfile="recorded",
        tofile="computed",
    )
    print("".join(diff), end="")
    return 1


def _add_bound_flag(parser) -> None:
    parser.add_argument(
        "--bound", type=int, default=EQUAL_SIGN_BOUND, help="equal-sign search bound"
    )


def _add_output_flags(parser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="machine-readable output")
    group.add_argument(
        "--table", action="store_true", help="human-readable output (default)"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wondertoric",
        description=(
            "Combinatorial invariants of compactified toric arrangements: "
            "fans, layer posets, nested sets, graded bases, and the "
            "permutation statistics they encode."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fan = sub.add_parser("fan", help="fan file operations").add_subparsers(
        dest="sub", required=True
    )
    check = fan.add_parser("check", help="validate a fan and report invariants")
    check.add_argument("fanfile")
    _add_output_flags(check)
    check.set_defaults(handler=_cmd_fan_check)

    arr = sub.add_parser("arr", help="arrangement file operations").add_subparsers(
        dest="sub", required=True
    )
    poset = arr.add_parser("poset", help="poset of layers with cover relations")
    poset.add_argument("arrfile")
    _add_output_flags(poset)
    poset.set_defaults(handler=_cmd_arr_poset)
    good = arr.add_parser("goodness", help="equal-sign bases for every layer")
    good.add_argument("arrfile")
    good.add_argument("fanfile")
    _add_bound_flag(good)
    _add_output_flags(good)
    good.set_defaults(handler=_cmd_arr_goodness)

    model = sub.add_parser("model", help="compactified model computations")
    model_sub = model.add_subparsers(dest="sub", required=True)
    for what in ("nested", "admissible", "basis", "poincare"):
        p = model_sub.add_parser(what, help=f"enumerate {what}")
        p.add_argument("arrfile")
        p.add_argument("fanfile")
        if what in ("basis", "poincare"):
            _add_bound_flag(p)
        _add_output_flags(p)
        p.set_defaults(handler=_cmd_model, what=what)
    pres = model_sub.add_parser("presentation", help="cohomology presentation dump")
    pres.add_argument("arrfile")
    pres.add_argument("fanfile")
    _add_bound_flag(pres)
    pres.add_argument(
        "--variant",
        choices=("product", "power"),
        default="product",
        help="shape of the restriction factors in class (d)",
    )
    pres.add_argument(
        "--full", action="store_true", help="list every generator, not just counts"
    )
    _add_output_flags(pres)
    pres.set_defaults(handler=_cmd_model_presentation)

    typea = sub.add_parser("typea", help="permutation statistics and forests")
    typea_sub = typea.add_subparsers(dest="sub", required=True)
    eul = typea_sub.add_parser("eulerian", help="descent polynomial")
    eul.add_argument("n", type=int)
    _add_output_flags(eul)
    eul.set_defaults(handler=_cmd_typea_eulerian)
    lec_p = typea_sub.add_parser("lec", help="hook factorization and statistic")
    lec_p.add_argument("word", type=int, nargs="+")
    _add_output_flags(lec_p)
    lec_p.set_defaults(handler=_cmd_typea_lec)
    psi_p = typea_sub.add_parser("psi", help="leaf-insertion bijection")
    psi_p.add_argument("sigma", type=int, nargs="*")
    psi_p.add_argument("--forest", help="textual forest, e.g. '(q^1: 1, 2, 3); 4'")
    psi_p.add_argument(
        "--invert", action="store_true", help="recover (forest, permutation)"
    )
    _add_output_flags(psi_p)
    psi_p.set_defaults(handler=_cmd_typea_psi)
    ver = typea_sub.add_parser("verify", help="exact series identity checks")
    ver.add_argument("--order", type=int, default=8)
    _add_output_flags(ver)
    ver.set_defaults(handler=_cmd_typea_verify)

    rep = sub.add_parser("reproduce", help="re-run a bundled example and diff")
    rep.add_argument("example", choices=sorted(EXAMPLES))
    rep.add_argument(
        "--update-golden", action="store_true", help="rewrite the recorded output"
    )
    rep.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit:
            # --help leaves its text in a block buffer: flush it while a
            # closed pipe can still be reported as one
            sys.stdout.flush()
            raise
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader left; the interpreter's last flush at exit goes nowhere
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, a shell's status for a writer the pipe killed
    except WondertoricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
