"""Property test: a malformed spec file never ends in a traceback.

Catalog specs are mutated (wrong types, NaN/inf, negative or float
powers, extra or missing keys, wrong lengths) and fed to
``frobcdv verify``; it must exit 0, 1 or 2, and on exit 2 print exactly
one line on stderr.  A numpy RuntimeWarning (overflow, invalid value)
is an error too: a spec that would overflow must be rejected, not
evaluated.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcdv import CATALOG_NAMES, catalog, spec_to_dict
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=mutated_specs())
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
