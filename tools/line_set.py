"""The lines of ``src/oevsim`` that tier-1 runs, and those the benchmark's traffic runs.

    python tools/line_set.py tier1 --out tier1.json
    python tools/line_set.py traffic --out traffic.json
    python tools/line_set.py diff tier1.json traffic.json

``tier1`` installs an in-process ``sys.settrace`` line tracer and then runs
pytest in this process, so the tracer sees the package from its first
import on (``conftest.py`` imports it) and module-level lines count.
Subprocesses that tests start (``test_startup.py``) are not traced.

``traffic`` runs every op of the four perfbench catalogs once, untimed and
in-process: every variant of the ``sweep_csv``, ``attack_search`` and
``oracle_verify`` slots except the ops the catalog marks as crashing, and
every ``edge_states`` catalog call with the pinned reproducers.  It imports
``perfbench/workloads.py`` and writes the ops' scenario files to
``.perfbench/work``, as ``perfbench/run.py`` does; it edits nothing under
``perfbench/``.

Each of those modes writes a JSON object to ``--out``: per file of the
package, the lines run, the executable lines not run (the line starts of
its code objects) and the source, with counts.  ``diff`` prints the lines
that one report ran and the other did not (``only_a``, ``only_b``), with
their text, as JSON; two reports of different versions of the sources are
compared over the lines a diff leaves unchanged.

Run from anywhere; paths resolve against the checkout this file is in.
Uses the standard library, plus pytest in ``tier1`` mode.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import dis
import inspect
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oevsim"


def executable_lines(path: Path) -> set[int]:
    """The line starts of every code object of one source file."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # A module's code starts on line 0, which is no line of the source.
        lines |= {line for _, line in dis.findlinestarts(code) if line}
        stack += [c for c in code.co_consts if inspect.iscode(c)]
    return lines


class LineTracer:
    """Records (file, line) for every line run in a file under ``PACKAGE``."""

    def __init__(self):
        self.prefix = str(PACKAGE) + os.sep
        self.hits: dict[str, set[int]] = {}

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        lines = self.hits.setdefault(filename, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        sys.settrace(self)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def report(mode: str, hits: dict[str, set[int]]) -> dict:
    """The line set of one run, per file of ``PACKAGE``, its counts and the sources."""
    files, executable, run_total = {}, 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        every = executable_lines(path)
        run = hits.get(str(path), set()) & every
        files[path.name] = {"run": sorted(run), "missed": sorted(every - run),
                            "source": path.read_text().splitlines()}
        executable += len(every)
        run_total += len(run)
    return {"mode": mode, "executable": executable, "run": run_total, "files": files}


def run_tier1() -> dict[str, set[int]]:
    os.chdir(ROOT)
    with LineTracer() as tracer:
        import pytest

        status = pytest.main(["-q", "-p", "no:cacheprovider"])
    if status not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        raise SystemExit(f"pytest exited with {status!r}")
    return tracer.hits


def run_traffic() -> dict[str, set[int]]:
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    with LineTracer() as tracer:
        import workloads

        workloads.WORK.mkdir(parents=True, exist_ok=True)
        for catalog in workloads.CATALOGS.values():
            for variants in catalog().values():
                for op in variants:
                    if op.id not in workloads.CLI_CRASHES:
                        op.prepare()
                        op.call()
        # The whole edge catalog: edge_ops keeps EDGE_KEPT of its calls per seed.
        workloads.EDGE_KEPT = workloads.EDGE_STATES + workloads.EDGE_ATTACKS
        ops = workloads.edge_ops(0)
        if len(ops) <= workloads.EDGE_KEPT:
            raise SystemExit(f"edge_ops(0) gave {len(ops)} ops, not the whole catalog and "
                             "its pinned reproducers")
        for op in ops:
            with contextlib.suppress(ValueError, ArithmeticError):
                op.call()
    return tracer.hits


def _same_lines(old: list[str], new: list[str]) -> dict[int, int]:
    """Line numbers of ``old`` -> ``new`` over the lines that a diff leaves unchanged,
    indentation aside."""
    pairs = {}
    strip = [line.strip() for line in old], [line.strip() for line in new]
    matcher = difflib.SequenceMatcher(None, *strip, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            pairs.update(zip(range(i1 + 1, i2 + 1), range(j1 + 1, j2 + 1)))
    return pairs


def diff(a: dict, b: dict) -> dict:
    """The lines each of two reports ran that the other did not.

    The reports may come from different versions of the sources: a line
    counts as the same line in both when a diff of its file leaves it
    unchanged but for its indentation, so a line that was edited, added or removed and is run
    shows up on its own side.  Line numbers are each report's own.
    """
    only_a, only_b = {}, {}
    for name in sorted(a["files"].keys() | b["files"].keys()):
        fa = a["files"].get(name, {"run": [], "source": []})
        fb = b["files"].get(name, {"run": [], "source": []})
        pairs = _same_lines(fa["source"], fb["source"])
        run_a, run_b = set(fa["run"]), set(fb["run"])
        extra_a = sorted(line for line in run_a if pairs.get(line) not in run_b)
        extra_b = sorted(run_b - {pairs[line] for line in run_a if line in pairs})
        for side, extra, source in ((only_a, extra_a, fa["source"]),
                                    (only_b, extra_b, fb["source"])):
            if extra:
                side[name] = {str(line): source[line - 1].strip() for line in extra}
    return {"modes": [a["mode"], b["mode"]],
            "counts": {"only_a": sum(map(len, only_a.values())),
                       "only_b": sum(map(len, only_b.values()))},
            "only_a": only_a, "only_b": only_b}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    tier1 = sub.add_parser("tier1", help="the line set of the tier-1 suite")
    tier1.add_argument("--out", required=True)
    traffic = sub.add_parser("traffic", help="the line set of the perfbench catalogs")
    traffic.add_argument("--out", required=True)
    between = sub.add_parser("diff", help="the lines one report ran and the other did not")
    between.add_argument("a")
    between.add_argument("b")
    args = parser.parse_args(argv)

    if args.mode == "diff":
        a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
        print(json.dumps(diff(a, b), indent=1))
        return 0
    out = Path(args.out).resolve()
    hits = run_tier1() if args.mode == "tier1" else run_traffic()
    result = report(args.mode, hits)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({k: v for k, v in result.items() if k != "files"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
