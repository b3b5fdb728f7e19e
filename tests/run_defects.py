"""Replay the seeded defects recorded in ``tests/defects.json``.

Each entry names a file under ``src/``, a text that must occur there
exactly once, its replacement, and the tests that must fail once the text
is replaced.  The runner copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory and first runs every listed test on the copy as
it is: they must pass, so that a failure under a defect is the defect's.
Then, for each entry in turn, it seeds the defect in the copy, runs the
entry's tests there with pytest, and puts the file back.

It exits 1 when a text does not occur exactly once, or when any listed
test does not fail under its defect (a test that errors in collection
does not count as failing).  Run it from anywhere, with the Python that
runs the tests:

    python tests/run_defects.py [NAME ...]

Names select entries; by default it replays them all.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_tests(tree: Path, tests: list[str]) -> tuple[int, str]:
    """pytest's exit code and output for ``tests`` in the copy ``tree``."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
    )
    return proc.returncode, proc.stdout + proc.stderr


def failed(tests: list[str], output: str) -> list[str]:
    """The tests of ``tests`` that pytest's summary reports as failed, a
    test counting as failed when any of its parametrizations did."""
    ids = re.findall(r"^FAILED (\S+?)(?: - |$)", output, re.MULTILINE)
    return [t for t in tests if any(i == t or i.startswith(t + "[") for i in ids)]


def main(names: list[str]) -> int:
    entries = json.loads((ROOT / "tests" / "defects.json").read_text())
    unknown = set(names) - {e["name"] for e in entries}
    if unknown:
        print(f"no such entries: {', '.join(sorted(unknown))}")
        return 1
    entries = [e for e in entries if not names or e["name"] in names]
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        every = sorted({t for e in entries for t in e["tests"]})
        code, output = run_tests(tree, every)
        if code != 0:
            print(output)
            print(f"the listed tests do not pass on the code as it is (pytest exit {code})")
            return 1
        for entry in entries:
            name, path = entry["name"], tree / entry["file"]
            if not entry["file"].startswith("src/"):
                problems.append(f"{name}: {entry['file']} is not under src/")
                continue
            text = path.read_text()
            count = text.count(entry["find"])
            if count != 1:
                problems.append(f"{name}: its text occurs {count} times in {entry['file']}")
                continue
            path.write_text(text.replace(entry["find"], entry["replace"]))
            try:
                code, output = run_tests(tree, entry["tests"])
            finally:
                path.write_text(text)
            missed = sorted(set(entry["tests"]) - set(failed(entry["tests"], output)))
            if code != 1 or missed:
                print(output)
                problems.append(f"{name}: pytest exit {code}; did not fail: {', '.join(missed)}")
            else:
                print(f"caught {name}: every listed test failed ({len(entry['tests'])})")
    for problem in problems:
        print(f"NOT CAUGHT: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
