"""JSON interchange for fans and arrangements.

Fan files: {"formatVersion": 1, "ambientDim": n, "rays": [[..], ..],
"maximalCones": [[0-based ray indices], ..]}.

Arrangement files: {"formatVersion": 1, "torusDim": n, "layers": [{"gamma":
[[..], ..], "phi": ["p/q", ..]}, ..]} plus optional "buildingSet" (same layer
shape; defaults to every nontrivial poset element) and "equalSignBases" (lists
of rows, verified then used before any search).

Malformed input raises FileFormatError; semantically bad but well-formed input
raises ValidationError from the constructors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import FileFormatError
from .fans import Fan
from .lattice import IntMatrix
from .layers import Layer

FAN_FORMAT_VERSION = 1
ARRANGEMENT_FORMAT_VERSION = 1


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture (fan/arrangement JSON, golden output)."""
    path = Path(__file__).parent / "fixtures" / name
    if not path.exists():
        raise FileFormatError(f"no bundled fixture named {name!r}")
    return path


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FileFormatError(message)


def _int_rows(obj, what: str) -> list[list[int]]:
    _require(isinstance(obj, list), f"{what} must be a list of rows")
    rows = []
    for row in obj:
        _require(
            isinstance(row, list)
            and all(isinstance(x, int) and not isinstance(x, bool) for x in row),
            f"{what} rows must be lists of integers",
        )
        rows.append(list(row))
    return rows


def fan_from_dict(data) -> Fan:
    _require(isinstance(data, dict), "fan file must be a JSON object")
    for key in ("formatVersion", "ambientDim", "rays", "maximalCones"):
        _require(key in data, f"fan file missing key {key!r}")
    _require(
        data["formatVersion"] == FAN_FORMAT_VERSION,
        f"unsupported fan formatVersion {data['formatVersion']!r}",
    )
    _require(
        isinstance(data["ambientDim"], int) and not isinstance(data["ambientDim"], bool),
        "ambientDim must be an integer",
    )
    rays = _int_rows(data["rays"], "rays")
    cones = _int_rows(data["maximalCones"], "maximalCones")
    return Fan.make(data["ambientDim"], rays, cones)


def fan_to_dict(fan: Fan) -> dict:
    return {
        "formatVersion": FAN_FORMAT_VERSION,
        "ambientDim": fan.ambient_dim,
        "rays": [list(r) for r in fan.rays],
        "maximalCones": [list(c) for c in fan.maximal_cones],
    }


def _fraction(text, what: str) -> Fraction:
    _require(isinstance(text, (str, int)) and not isinstance(text, bool),
             f"{what} must be strings like '1/2' or integers")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FileFormatError(f"{what}: cannot parse fraction {text!r}") from exc


def _layer_from_dict(obj, torus_dim: int, what: str) -> Layer:
    _require(isinstance(obj, dict), f"{what} must be an object")
    for key in ("gamma", "phi"):
        _require(key in obj, f"{what} missing key {key!r}")
    rows = _int_rows(obj["gamma"], f"{what}.gamma")
    _require(isinstance(obj["phi"], list), f"{what}.phi must be a list")
    values = [_fraction(v, f"{what}.phi") for v in obj["phi"]]
    _require(len(values) == len(rows), f"{what}: one phi value per gamma row")
    return Layer.from_generators(torus_dim, rows, values)


def _layer_to_dict(layer: Layer) -> dict:
    return {
        "gamma": [list(r) for r in layer.gamma.basis],
        "phi": [str(v) for v in layer.phi],
    }


@dataclass(frozen=True)
class Arrangement:
    """Parsed arrangement input: defining layers, optional explicit building
    set, optional equal-sign bases, verified when the resolver is built."""

    torus_dim: int
    layers: tuple[Layer, ...]
    building: tuple[Layer, ...] | None
    equal_sign_bases: tuple[IntMatrix, ...]


def arrangement_from_dict(data) -> Arrangement:
    _require(isinstance(data, dict), "arrangement file must be a JSON object")
    for key in ("formatVersion", "torusDim", "layers"):
        _require(key in data, f"arrangement file missing key {key!r}")
    _require(
        data["formatVersion"] == ARRANGEMENT_FORMAT_VERSION,
        f"unsupported arrangement formatVersion {data['formatVersion']!r}",
    )
    n = data["torusDim"]
    _require(isinstance(n, int) and not isinstance(n, bool), "torusDim must be an integer")
    _require(isinstance(data["layers"], list) and data["layers"],
             "layers must be a nonempty list")
    layers = tuple(
        _layer_from_dict(obj, n, f"layers[{i}]")
        for i, obj in enumerate(data["layers"])
    )
    building = None
    if "buildingSet" in data:
        _require(isinstance(data["buildingSet"], list), "buildingSet must be a list")
        building = tuple(
            _layer_from_dict(obj, n, f"buildingSet[{i}]")
            for i, obj in enumerate(data["buildingSet"])
        )
    bases = ()
    if "equalSignBases" in data:
        _require(isinstance(data["equalSignBases"], list),
                 "equalSignBases must be a list")
        bases = tuple(
            tuple(tuple(x for x in row) for row in _int_rows(b, f"equalSignBases[{i}]"))
            for i, b in enumerate(data["equalSignBases"])
        )
    return Arrangement(n, layers, building, bases)


def arrangement_to_dict(arr: Arrangement) -> dict:
    out = {
        "formatVersion": ARRANGEMENT_FORMAT_VERSION,
        "torusDim": arr.torus_dim,
        "layers": [_layer_to_dict(x) for x in arr.layers],
    }
    if arr.building is not None:
        out["buildingSet"] = [_layer_to_dict(x) for x in arr.building]
    if arr.equal_sign_bases:
        out["equalSignBases"] = [
            [list(row) for row in basis] for basis in arr.equal_sign_bases
        ]
    return out


def _load_json(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc


def load_fan(path) -> Fan:
    return fan_from_dict(_load_json(path))


def load_arrangement(path) -> Arrangement:
    return arrangement_from_dict(_load_json(path))
