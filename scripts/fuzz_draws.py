"""Write the examples Hypothesis tries in the fuzz tests of one tree, one
example per line.

Usage: python3 scripts/fuzz_draws.py SRC_DIR OUT.txt

SRC_DIR is the `src` directory of a checkout.  The checkout (without its
.git, caches and .hypothesis example database) is copied to a fresh
temporary directory, and tests/test_spec_fuzz.py and
tests/test_argv_fuzz.py are run there against its `src`, with
--hypothesis-verbosity=verbose.  Hypothesis draws some values from the
literals it finds in the code under test, so a change to `src` that adds
or removes a constant can move its draws.  OUT.txt holds every example
tried, in order, each on one line, so that `cmp` tells whether two trees
draw the same examples:

    python3 scripts/fuzz_draws.py ../parent/src /tmp/parent.txt
    python3 scripts/fuzz_draws.py src /tmp/change.txt
    cmp /tmp/parent.txt /tmp/change.txt

pytest's last line (the pass and fail counts) goes to stderr, and the
exit code is pytest's.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = ("tests/test_spec_fuzz.py", "tests/test_argv_fuzz.py")
SKIP = shutil.ignore_patterns(".git", ".hypothesis", "__pycache__", ".pytest_cache",
                              ".benchmarks", ".bench_work")
# The header of each example in Hypothesis' verbose output; pytest's
# progress dots can stand before it on the same line.
HEADER = re.compile(r"Trying (explicit )?example:")


def examples(output):
    """The examples in verbose pytest output, each joined onto one line: a
    header and its indented lines, up to the closing parenthesis."""
    found, current = [], None
    for line in output.splitlines():
        match = HEADER.search(line)
        if match:
            current = [line[match.start():]]
            found.append(current)
        elif current is not None and (line.startswith(" ") or line == ")"):
            current.append(line.strip())
            if line == ")":
                current = None
        else:
            current = None
    return [" ".join(lines) for lines in found]


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(src.parent, tree, ignore=SKIP)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
             "--hypothesis-verbosity=verbose", *TESTS],
            cwd=tree, env=env, capture_output=True, text=True)
    tried = examples(run.stdout)
    out.write_text("".join(line + "\n" for line in tried))
    last = run.stdout.strip().splitlines()[-1:] or [run.stderr.strip()]
    print(f"{len(tried)} examples; {last[0]}", file=sys.stderr)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
