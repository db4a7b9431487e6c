"""Built-in example manifolds and the JSON spec-file format.

Complex scalars are serialized as [re, im] pairs; parsing rejects unknown
keys so that typos in hand-written spec files fail loudly.
"""

import json

from .errors import ParseError, UnknownName, ValidationError
from .potential import PotentialSpec, flat_metric, homogeneity_residual

# Fixed semi-simple sample point for the 3-dimensional A3 entry, used by
# reports that need a reproducible published point.
A3_POINT = (0.3 + 0.0j, 0.7 + 0.0j, 1.1 + 0.0j)


_CATALOG = {
    # F = (1/2) t1^2 t2: multiplication is everywhere unipotent (never
    # semi-simple); used for metric normalization and negative controls.
    "trivial2": PotentialSpec(
        2, [(0.5, (2, 1))], [], (1.0, 1.0), (0.0, 0.0), 0.0, 3.0, normal_form=True
    ),
    # F = (1/2) t1^2 t2 + t2^3/6: degree-three potential with constant
    # structure tensors; the semi-simple trivial (flat) example.
    "cubic2": PotentialSpec(
        2, [(0.5, (2, 1)), (1.0 / 6.0, (0, 3))], [], (1.0, 1.0), (0.0, 0.0), 0.0, 3.0,
        normal_form=True,
    ),
    # F = (1/2) t1^2 t2 + t2^4.
    "quartic2": PotentialSpec(
        2, [(0.5, (2, 1)), (1.0, (0, 4))], [], (1.0, 2.0 / 3.0), (0.0, 0.0), 1.0 / 3.0,
        8.0 / 3.0, normal_form=True,
    ),
    # F = (1/2) t1^2 t2 + exp(t2): quantum cohomology of the projective line.
    "p1": PotentialSpec(
        2, [(0.5, (2, 1))], [(1.0, (0, 0), (0.0, 1.0))], (1.0, 0.0), (0.0, 2.0), 1.0, 2.0,
        normal_form=True,
    ),
    # F = (1/2) t1^2 t3 + (1/2) t1 t2^2 + (1/4) t2^2 t3^2 + (1/60) t3^5.
    "a3_3d": PotentialSpec(
        3,
        [(0.5, (2, 0, 1)), (0.5, (1, 2, 0)), (0.25, (0, 2, 2)), (1.0 / 60.0, (0, 0, 5))],
        [], (1.0, 0.75, 0.5), (0.0, 0.0, 0.0), 0.5, 2.5, normal_form=True,
    ),
    # a3_3d with the quintic coefficient perturbed to 1/59: homogeneous but
    # breaks associativity; negative control for the WDVV checks.
    "broken_wdvv": PotentialSpec(
        3,
        [(0.5, (2, 0, 1)), (0.5, (1, 2, 0)), (0.25, (0, 2, 2)), (1.0 / 59.0, (0, 0, 5))],
        [], (1.0, 0.75, 0.5), (0.0, 0.0, 0.0), 0.5, 2.5, normal_form=True,
    ),
    # F = (1/2) t1^2 t3 + (1/2) t1 t2^2 + t2^4/24: associative but nowhere
    # semi-simple; used only for algebra-level checks.
    "m3_nilpotent": PotentialSpec(
        3, [(0.5, (2, 0, 1)), (0.5, (1, 2, 0)), (1.0 / 24.0, (0, 4, 0))], [],
        (1.0, 0.5, 0.0), (0.0, 0.0, 0.0), 1.0, 2.0, normal_form=True,
    ),
}

CATALOG_NAMES = tuple(sorted(_CATALOG))


def catalog(name: str) -> PotentialSpec:
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownName(f"no catalog entry {name!r}; known: {', '.join(CATALOG_NAMES)}")


def _c(z):
    return [float(z.real), float(z.imag)]


def spec_to_dict(spec: PotentialSpec) -> dict:
    return {
        "dim": spec.dim,
        "monomials": [{"coeff": _c(c), "powers": list(p)} for c, p in spec.monomials],
        "exponentials": [
            {"coeff": _c(c), "powers": list(p), "linear_form": [_c(x) for x in w]}
            for c, p, w in spec.exponentials
        ],
        "euler": {
            "degrees": list(spec.degrees),
            "shifts": list(spec.shifts),
            "d": spec.d,
            "d_F": spec.d_F,
        },
        "normal_form": spec.normal_form,
    }


def _require_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object in {where}, got {obj!r}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)} in {where}")
    missing = set(allowed) - set(obj)
    if missing:
        raise ParseError(f"missing keys {sorted(missing)} in {where}")


def _parse_list(value, what, where):
    if not isinstance(value, list):
        raise ParseError(f"expected a list of {what} in {where}, got {value!r}")
    return value


def _parse_number(x, where):
    """A JSON number as a float; PotentialSpec checks that it is finite."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParseError(f"expected a number in {where}, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ParseError(f"number out of range in {where}: {x}") from None


def _parse_c(pair, where):
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ParseError(f"expected [re, im] pair in {where}, got {pair!r}")
    return complex(_parse_number(pair[0], where), _parse_number(pair[1], where))


def _parse_numbers(values, where):
    return [_parse_number(x, where) for x in _parse_list(values, "numbers", where)]


def spec_from_dict(doc: dict) -> PotentialSpec:
    _require_keys(doc, ("dim", "monomials", "exponentials", "euler", "normal_form"), "spec")
    euler = doc["euler"]
    _require_keys(euler, ("degrees", "shifts", "d", "d_F"), "euler")
    monomials = []
    for mono in _parse_list(doc["monomials"], "terms", "monomials"):
        _require_keys(mono, ("coeff", "powers"), "monomial")
        monomials.append((_parse_c(mono["coeff"], "monomial"),
                          _parse_list(mono["powers"], "powers", "monomial")))
    exponentials = []
    for term in _parse_list(doc["exponentials"], "terms", "exponentials"):
        _require_keys(term, ("coeff", "powers", "linear_form"), "exponential")
        exponentials.append((
            _parse_c(term["coeff"], "exponential"),
            _parse_list(term["powers"], "powers", "exponential"),
            [_parse_c(x, "linear_form")
             for x in _parse_list(term["linear_form"], "pairs", "exponential")],
        ))
    if not isinstance(doc["normal_form"], bool):
        raise ParseError(f"expected true or false for normal_form, got {doc['normal_form']!r}")
    # dim and the powers pass through as given; PotentialSpec checks them
    # and stores every field as tuples.
    return PotentialSpec(
        dim=doc["dim"],
        monomials=monomials,
        exponentials=exponentials,
        degrees=_parse_numbers(euler["degrees"], "euler degrees"),
        shifts=_parse_numbers(euler["shifts"], "euler shifts"),
        d=_parse_number(euler["d"], "euler d"),
        d_F=_parse_number(euler["d_F"], "euler d_F"),
        normal_form=doc["normal_form"],
    )


_HOMOGENEITY_SPOT = 1e-8


def load_spec(path) -> PotentialSpec:
    """Read, parse, and validate a spec file.

    Besides PotentialSpec's own checks, the metric is validated once here
    (flat_metric: constant, nondegenerate, and antidiag(1, ..., 1) if the
    spec is flagged normal_form), and the declared Euler data must pass a
    homogeneity spot-check at two generic points.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("spec file must contain a JSON object")
    spec = spec_from_dict(doc)
    flat_metric(spec)
    points = ((0.31 + 0.12j,) * spec.dim, (-0.27 + 0.41j,) * spec.dim)
    if homogeneity_residual(spec, points) > _HOMOGENEITY_SPOT:
        raise ValidationError("declared Euler data fails the homogeneity spot-check")
    return spec


def write_spec(spec: PotentialSpec, path):
    with open(path, "w") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
