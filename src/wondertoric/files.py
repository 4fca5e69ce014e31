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


def _is_int(x) -> bool:
    """A JSON integer; `bool` is a subclass of `int` that JSON keeps apart."""
    return isinstance(x, int) and not isinstance(x, bool)


def _header(data, kind: str, version: int, dim_key: str, keys: tuple[str, ...]) -> int:
    """The integer dimension of a file whose shape, keys and version check."""
    _require(isinstance(data, dict), f"{kind} file must be a JSON object")
    for key in ("formatVersion", dim_key, *keys):
        _require(key in data, f"{kind} file missing key {key!r}")
    _require(
        data["formatVersion"] == version,
        f"unsupported {kind} formatVersion {data['formatVersion']!r}",
    )
    _require(_is_int(data[dim_key]), f"{dim_key} must be an integer")
    return data[dim_key]


def _int_rows(obj, what: str) -> list[list[int]]:
    _require(isinstance(obj, list), f"{what} must be a list of rows")
    _require(
        all(isinstance(row, list) and all(_is_int(x) for x in row) for row in obj),
        f"{what} rows must be lists of integers",
    )
    return [list(row) for row in obj]


def fan_from_dict(data) -> Fan:
    n = _header(data, "fan", FAN_FORMAT_VERSION, "ambientDim", ("rays", "maximalCones"))
    rays = _int_rows(data["rays"], "rays")
    cones = _int_rows(data["maximalCones"], "maximalCones")
    return Fan.make(n, rays, cones)


def fan_to_dict(fan: Fan) -> dict:
    return {
        "formatVersion": FAN_FORMAT_VERSION,
        "ambientDim": fan.ambient_dim,
        "rays": [list(r) for r in fan.rays],
        "maximalCones": [list(c) for c in fan.maximal_cones],
    }


def _fraction(text, what: str) -> Fraction:
    _require(isinstance(text, str) or _is_int(text),
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


def _layers(data: dict, key: str, torus_dim: int) -> tuple[Layer, ...]:
    return tuple(
        _layer_from_dict(obj, torus_dim, f"{key}[{i}]") for i, obj in enumerate(data[key])
    )


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
    n = _header(data, "arrangement", ARRANGEMENT_FORMAT_VERSION, "torusDim", ("layers",))
    _require(isinstance(data["layers"], list) and data["layers"],
             "layers must be a nonempty list")
    layers = _layers(data, "layers", n)
    building = None
    if "buildingSet" in data:
        _require(isinstance(data["buildingSet"], list), "buildingSet must be a list")
        building = _layers(data, "buildingSet", n)
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
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also int()'s digit limit
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc


def load_fan(path) -> Fan:
    return fan_from_dict(_load_json(path))


def load_arrangement(path) -> Arrangement:
    return arrangement_from_dict(_load_json(path))
