"""Property test: a malformed spec file never ends in a traceback.

Catalog specs are mutated (wrong types, NaN/inf, negative or float
powers, extra or missing keys, wrong lengths) and fed to
``frobcdv verify``; it must exit 0, 1 or 2, and on exit 2 print exactly
one line on stderr.  A numpy RuntimeWarning (overflow, invalid value)
is an error too: a spec that would overflow must be rejected, not
evaluated.  Malformed ``--point`` strings get the same test on every
pointwise command, where each runs as a stack of one point.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobcdv import CATALOG_NAMES, FrobCdvError, catalog, spec_from_dict, spec_to_dict
from frobcdv.cli import main

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.just(10**400),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.floats(-2.0, 2.0), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)
BAD_POWERS = st.one_of(st.integers(-3, -1), st.floats(-3.0, 3.0), st.just(2.0))


def _entries(node):
    """Every (container, key) slot of a JSON tree, outermost first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, value in items:
        yield node, key
        yield from _entries(value)


@st.composite
def mutated_specs(draw):
    doc = spec_to_dict(catalog(draw(st.sampled_from(CATALOG_NAMES))))
    for _ in range(draw(st.integers(1, 3))):
        entries = list(_entries(doc))
        containers = [doc] + [c[k] for c, k in entries if isinstance(c[k], (dict, list))]
        powers = [c[k] for c, k in entries
                  if k == "powers" and isinstance(c[k], list) and c[k]]
        kind = draw(st.sampled_from(("value", "power", "drop", "add")))
        if kind == "power" and powers:
            lst = draw(st.sampled_from(powers))
            lst[draw(st.integers(0, len(lst) - 1))] = draw(BAD_POWERS)
        elif kind == "drop":
            node = draw(st.sampled_from(containers))
            if node:
                keys = list(node) if isinstance(node, dict) else range(len(node))
                del node[draw(st.sampled_from(keys))]
        elif kind == "add":
            node = draw(st.sampled_from(containers))
            if isinstance(node, dict):
                node[draw(st.text(min_size=1, max_size=4))] = draw(JUNK)
            elif node and draw(st.booleans()):
                node.append(json.loads(json.dumps(node[0])))
            else:
                node.append(draw(JUNK))
        else:
            container, key = draw(st.sampled_from(entries))
            container[key] = draw(JUNK)
    return doc


def _with_coeffs(name, *coeffs):
    """The spec file of a catalog spec with its first monomial
    coefficients replaced by coeffs."""
    doc = spec_to_dict(catalog(name))
    for term, coeff in zip(doc["monomials"], coeffs):
        term["coeff"] = coeff
    return doc


# One spec of each failure class found so far that the draws need not
# reach (see BAD_POINT_CLASSES).
BAD_SPEC_CLASSES = (
    _with_coeffs("quartic2", ["a", 0]),  # not a number
    _with_coeffs("quartic2", [1.0, 0.0], [2.0, 0.0]),  # normal_form, but the metric is 2J
    _with_coeffs("a3_3d", [6.7e153, 0.0]),  # det g at the edge of overflow
)


def _with_bad_spec_classes(test):
    for doc in BAD_SPEC_CLASSES:
        test = example(doc=doc)(test)
    return test


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=mutated_specs())
@_with_bad_spec_classes
def test_mutated_spec_never_ends_in_traceback(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--spec", str(path), "--points", "1"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")


FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def well_typed_specs(draw):
    """Catalog specs with coefficients, linear forms, powers and term lists
    changed, but every value of the type the parser expects."""
    doc = spec_to_dict(catalog(draw(st.sampled_from(CATALOG_NAMES))))
    for _ in range(draw(st.integers(1, 3))):
        terms = doc[draw(st.sampled_from(("monomials", "exponentials")))]
        if not terms:
            continue
        i = draw(st.integers(0, len(terms) - 1))
        kind = draw(st.sampled_from(("coeff", "power", "form", "drop", "copy")))
        if kind == "coeff":
            terms[i]["coeff"] = [draw(FINITE), draw(FINITE)]
        elif kind == "power":
            powers = terms[i]["powers"]
            powers[draw(st.integers(0, len(powers) - 1))] = draw(st.integers(0, 6))
        elif kind == "form" and "linear_form" in terms[i]:
            form = terms[i]["linear_form"]
            form[draw(st.integers(0, len(form) - 1))] = [draw(FINITE), draw(FINITE)]
        elif kind == "drop":
            del terms[i]
        elif kind == "copy":
            terms.append(json.loads(json.dumps(terms[i])))
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=st.one_of(mutated_specs(), well_typed_specs()))
def test_mutated_spec_dict_round_trip(doc):
    # A mutated spec is rejected, or it survives spec_to_dict and a JSON
    # text round trip unchanged.
    try:
        spec = spec_from_dict(doc)
    except FrobCdvError:
        return
    again = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
    assert again == spec
    assert spec_to_dict(again) == spec_to_dict(spec)


COMMANDS = ("verify", "cdv", "connections", "pencil", "lowdim")
NUMBER = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from(("nan", "inf", "-inf", "1e400", "-1e400")),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: abs(x) > 1e3),
    st.text(max_size=4),
).map(str)


@st.composite
def point_strings(draw):
    """A --point string for a spec of dimension dim: random text, or
    "re,im;..." with a wrong or right number of coordinates whose numbers
    may be non-finite, huge or not numbers at all."""
    dim = draw(st.integers(2, 3))
    if draw(st.integers(0, 4)) == 0:
        return dim, draw(st.text(max_size=12))
    count = draw(st.sampled_from((dim, dim, dim - 1, dim + 1)))
    coords = [f"{draw(NUMBER)},{draw(NUMBER)}" for _ in range(count)]
    return dim, ";".join(coords)


# One point of each failure class found so far, which the draws above
# need not reach: Hypothesis mines literals from the package, so its draws
# move whenever the package's literals change.
BAD_POINT_CLASSES = (
    ("verify", 2, "a,b;0,0"),  # not a number
    ("cdv", 2, "nan,0;0,0"),  # not finite
    ("connections", 2, "1e400,0;0,0"),  # beyond a float
    ("lowdim", 2, "-inf,0.0;0.0,0.0"),  # argparse read a leading "-" as an option
    ("verify", 2, "--x"),
    ("pencil", 2, "-0.3,0.1;0,1"),
    ("pencil", 2, "1e200,0;0,1"),  # the tensors overflow
    ("connections", 3, "0.123456789,1e-300;0.5,0.25;1e200,3"),  # one line at m = 3
    ("lowdim", 3, "0.0,0.0;0.0,0.0;0.65625,2.6724083502506573e-164"),  # not semi-simple
    ("cdv", 3, "0,0;0,0"),  # too few coordinates
    ("verify", 2, ""),  # no coordinates
)


def _with_bad_point_classes(test):
    for command, dim, point in BAD_POINT_CLASSES:
        test = example(command=command, dim_and_point=(dim, point))(test)
    return test


@settings(max_examples=150, deadline=None, derandomize=True)
@given(command=st.sampled_from(COMMANDS), dim_and_point=point_strings())
@_with_bad_point_classes
def test_bad_point_never_ends_in_traceback(command, dim_and_point):
    dim, point = dim_and_point
    name = {2: "quartic2", 3: "a3_3d"}[dim]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec_to_dict(catalog(name))))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--spec", str(path), "--point", point])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")
