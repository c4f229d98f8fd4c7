"""List every statement of src/entswap that the tier-1 tests never run.

Run from anywhere, on demand (it is not a tier-1 test):

    python tools/unexecuted_lines.py [extra pytest arguments]

It runs tier-1 (``pytest -q --continue-on-collection-errors`` over the
repository) in this process under a ``sys.settrace`` line tracer, then
prints each statement of ``src/entswap`` that no test ran, as
``file:line  source``.  A statement is one that compiles to code: a
docstring, ``global`` or bare ``try:`` header is none, and a compound
statement (``if``, ``for``, ``def`` ...) counts as run when its header
ran.  Only this process is traced, so a statement that only a subprocess
runs is listed.

It exits 1 if tier-1 fails or if any statement outside EXPECTED never ran,
and 0 otherwise.  Standard library and pytest only: no coverage package is
needed.  Tracing makes tier-1 two to three times slower.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entswap"

#: Statements tier-1 is known not to run, each with its reason.
EXPECTED = {
    "cli.py:263": "main()'s sys.exit(run()): the console-script entry, which an installed `entswap` runs",
    "cli.py:267": "main() under `if __name__ == '__main__'`: the same entry, run as a script",
}

def _code_lines(code) -> set[int]:
    """Every line that some instruction of ``code`` or of a code object nested in it belongs to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> dict[int, range]:
    """Each statement of the file that compiles to code: its first line -> the lines of its header.

    A simple statement's header is all its lines; a compound one's runs
    from its first decorator or keyword to the line before the first
    statement it holds.
    """
    source = path.read_text(encoding="utf-8")
    with_code = _code_lines(compile(source, str(path), "exec"))
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        held = [inner.lineno for inner in ast.walk(node) if isinstance(inner, ast.stmt) and inner is not node]
        header = range(first, max(first + 1, min(held))) if held else range(first, node.end_lineno + 1)
        if with_code.intersection(header):
            found[first] = header
    return found


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``pytest_args`` under the line tracer: (exit code, lines run per src/entswap file)."""
    import pytest

    package = str(PACKAGE)
    ran: dict[str, set[int]] = {}
    # co_filename -> the set its lines go to, or None for a file outside the package
    files: dict[str, set[int] | None] = {}

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        lines = files.get(filename, False)
        if lines is False:
            real = os.path.realpath(filename)
            lines = files[filename] = ran.setdefault(real, set()) if real.startswith(package + os.sep) else None
        if lines is None:
            return None

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    code, ran = traced_run(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *argv])
    unexecuted = []
    for path in sorted(PACKAGE.glob("*.py")):
        hit = ran.get(str(path.resolve()), set())
        source = path.read_text(encoding="utf-8").splitlines()
        for first, header in sorted(statements(path).items()):
            if not hit.intersection(header):
                unexecuted.append((f"{path.name}:{first}", source[first - 1].strip()))
    print(f"\n{len(unexecuted)} statements of src/entswap never ran:")
    for where, text in unexecuted:
        print(f"  {where}  {text}" + ("" if where in EXPECTED else "  (unexpected)"))
    unexpected = [where for where, _ in unexecuted if where not in EXPECTED]
    if code != 0:
        print(f"tier-1 failed (pytest exit code {code})")
    if unexpected:
        print(f"{len(unexpected)} of them unexpected")
    return 1 if code != 0 or unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
