"""Mutation testing of tier-1: which tests catch which faults of src/targetsim/.

    python3 benchmarks/mutants.py --list [--root REPO]
    python3 benchmarks/mutants.py --sweep [--root REPO]
    python3 benchmarks/mutants.py --reapply [--root REPO]

--list prints the sample of mutants of --root (default: this repo), one
JSON object a line, and runs nothing. A mutant is one small edit of one
module of src/targetsim/: a comparison's boundary flipped (< and <=, >
and >=, == and !=), + and - or * and / swapped (also in += and the
like), a number n made n + 1, or a statement of a function body replaced
by `pass`. Every candidate edit is enumerated in source order, the list
is shuffled by SEED, and the first COUNT that compile are the sample.

--sweep runs the whole tier-1 suite once on a clean copy, then once on
each mutant, each in its own copy of the repo under a temporary directory,
WORKERS suites at a time. Each suite runs with OPENBLAS_NUM_THREADS=1, a
fixed --hypothesis-seed, the hypothesis profile of tests/conftest.py
that skips shrinking (a failing example fails its test as it is found,
without the time that shrinking it takes), a wall timeout of 3x the
clean suite and an address-space limit. A timeout counts as a kill, and so does a crash: a
suite that fails with no failing test, as when a MemoryError stops pytest
itself. The failures are read from pytest's --junitxml. A test kills a
mutant when it passed on the clean copy and fails on the mutant. The kill
matrix goes to OUT (benchmarks/mutants.json): the test ids, each once,
and for each mutant its file, line, original and mutated text, outcome and
killing tests (as indices into the ids). About 90 minutes for 150 mutants
on a 2-core host.

--reapply re-applies the mutants recorded in OUT to --root and runs the
suite on each again, under "reapplied". A mutant whose lines are no
longer in its file follows code that moved: it is applied where its lines
occur exactly once among the other modules of src/targetsim/, and that
file is recorded under "reapplied". It is reported as deleted only when
no module holds its lines, and as ambiguous when they occur more than
once. Each suite stops at its first failure (pytest -x), which is enough
to compare outcomes (about 25 minutes). Exits 1 if a mutant that the
recorded sweep killed is neither killed again nor deleted.

Each survivor of the sweep carries a "verdict": the test that now kills
it, the deletion of the code it showed unreachable, or why it is
equivalent. --sweep keeps the verdicts of the mutants it samples again.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import json
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = "src/targetsim"
OUT = ROOT / "benchmarks" / "mutants.json"
SEED = 0
COUNT = 150
WORKERS = 2
HYPOTHESIS_SEED = 0
HYPOTHESIS_PROFILE = "mutants"  # tests/conftest.py's profile without the shrink phase
ADDRESS_SPACE = 3 << 30
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", ".benchmarks", ".perfbench_out"
)
KILLS = ("killed", "timeout", "crashed")

BOUNDARY = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
            ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
ARITH = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*")}
NO_PASS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Global, ast.Nonlocal, ast.Pass)


class Source:
    """A module's text, with ast positions (1-based line, UTF-8 byte column)
    turned into character offsets."""

    def __init__(self, text: str):
        self.text = text
        self.lines = text.splitlines(keepends=True)
        self.starts = [0]
        for line in self.lines:
            self.starts.append(self.starts[-1] + len(line))

    def offset(self, line: int, col: int) -> int:
        return self.starts[line - 1] + len(self.lines[line - 1].encode()[:col].decode())

    def span(self, node: ast.AST) -> tuple[int, int]:
        return self.offset(node.lineno, node.col_offset), self.offset(node.end_lineno, node.end_col_offset)

    def position(self, offset: int) -> tuple[int, int]:
        """1-based line and character column of an offset."""
        line = bisect.bisect_right(self.starts, offset) - 1
        return line + 1, offset - self.starts[line]


def _operator_at(src: Source, start: int, end: int, token: str) -> int:
    """Offset of operator `token` in the text between two operands, past
    parentheses, spaces and comments."""
    gap = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), src.text[start:end])
    found = re.search(r"(?<![<>=!*/])" + re.escape(token) + ("" if token.endswith("=") else r"(?![=*/])"), gap)
    return start + found.start()


def _skipped(tree: ast.AST) -> set[int]:
    """ids of the nodes whose edits are not mutants: annotations (never
    evaluated under `from __future__ import annotations`) and f-strings
    (whose inner positions are unreliable)."""
    roots = [n for n in ast.walk(tree) if isinstance(n, ast.JoinedStr)]
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots += [a.annotation for a in n.args.posonlyargs + n.args.args + n.args.kwonlyargs if a.annotation]
            roots += [n.returns] if n.returns else []
        elif isinstance(n, ast.AnnAssign):
            roots.append(n.annotation)
    return {id(sub) for root in roots for sub in ast.walk(root)}


def _function_statements(node: ast.AST, inside: bool = False):
    """The statements inside function bodies that `pass` may replace:
    not definitions, imports, declarations or docstrings."""
    inside = inside or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    for field, value in ast.iter_fields(node):
        for i, child in enumerate(value if isinstance(value, list) else [value]):
            if not isinstance(child, ast.AST):
                continue
            docstring = isinstance(node, NO_PASS[:3]) and field == "body" and i == 0 and \
                isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant) and \
                isinstance(child.value.value, str)
            if inside and isinstance(child, ast.stmt) and not isinstance(child, NO_PASS) and not docstring:
                yield child
            yield from _function_statements(child, inside)


def candidates(path: str, text: str) -> list[dict]:
    """Every candidate edit of one module, in source order: a dict of its
    character span (start, end), operator and replacement text, and the
    span of the top-level statement that holds it (top)."""
    src, tree = Source(text), ast.parse(text)
    skipped = _skipped(tree)
    edits = []
    table = {"compare": BOUNDARY, "arith": ARITH}

    def op_edit(kind, left, right, op, suffix=""):
        if type(op) in table[kind]:
            old, new = (t + suffix for t in table[kind][type(op)])
            at = _operator_at(src, src.span(left)[1], src.span(right)[0], old)
            edits.append((kind, at, at + len(old), new))

    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left] + node.comparators, node.ops, node.comparators):
                op_edit("compare", left, right, op)
        elif isinstance(node, ast.BinOp):
            op_edit("arith", node.left, node.right, node.op)
        elif isinstance(node, ast.AugAssign):
            op_edit("arith", node.target, node.value, node.op, "=")
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            edits.append(("number", *src.span(node), repr(node.value + 1)))
    for stmt in _function_statements(tree):
        edits.append(("pass", *src.span(stmt), "pass"))
    tops = [(src.offset(min([n.lineno] + [d.lineno for d in getattr(n, "decorator_list", [])]), 0),
             src.span(n)[1]) for n in tree.body]
    out = []
    for kind, start, end, new in sorted(set(edits), key=lambda e: (e[1], e[2], e[0])):
        top = tops[bisect.bisect_right(tops, (start, len(text))) - 1]
        out.append({"file": path, "operator": kind, "start": start, "end": end, "new": new, "top": top})
    return out


def mutant_record(src: Source, edit: dict) -> dict:
    """The recorded form of an edit: its file, line and column span, and
    the original and mutated text of the smallest node that holds it (the
    comparison or the operation, the number, the statement)."""
    line, col = src.position(edit["start"])
    end_line, end_col = src.position(edit["end"])
    return {"file": edit["file"], "line": line, "col": col, "end_line": end_line, "end_col": end_col,
            "operator": edit["operator"], "original": src.text[edit["start"]:edit["end"]], "mutated": edit["new"],
            "context": "".join(src.lines[line - 1:end_line]).rstrip("\n")}


def places(text: str, mutant: dict) -> list[int]:
    """The 0-based first line of each place where mutant's recorded lines stand in text."""
    lines = [line.rstrip("\n") for line in text.splitlines(keepends=True)]
    context = mutant["context"].split("\n")
    n = len(context)
    return [i for i in range(len(lines) - n + 1) if lines[i:i + n] == context]


def apply(text: str, mutant: dict, first: int | None = None) -> str | None:
    """text with mutant applied where its recorded lines stand from line
    index first (by default the place nearest its recorded line), or None
    if they are gone."""
    src = Source(text)
    found = places(text, mutant)
    if not found:
        return None
    if first is None:
        first = min(found, key=lambda i: abs(i + 1 - mutant["line"]))
    start = src.starts[first] + mutant["col"]
    end = src.starts[first + mutant["end_line"] - mutant["line"]] + mutant["end_col"]
    if text[start:end] != mutant["original"]:
        return None
    return text[:start] + mutant["mutated"] + text[end:]


def sample(root: Path) -> list[dict]:
    """The first COUNT candidates, in the order SEED shuffles them,
    that compile (a module compiles when each of its top-level statements
    does); sorted by place."""
    texts = {f"{SRC}/{p.name}": p.read_text() for p in sorted((root / SRC).glob("*.py"))}
    pool = [e for path, text in texts.items() for e in candidates(path, text)]
    random.Random(SEED).shuffle(pool)
    chosen = []
    for edit in pool:
        text = texts[edit["file"]]
        (top, bottom), start, end = edit["top"], edit["start"], edit["end"]
        try:
            compile(text[top:start] + edit["new"] + text[end:bottom], edit["file"], "exec")
        except SyntaxError:
            continue
        chosen.append(mutant_record(Source(text), edit))
        if len(chosen) == COUNT:
            break
    return sorted(chosen, key=lambda m: (m["file"], m["line"], m["col"], m["operator"]))


def _node_id(tree: Path, classname: str, name: str) -> str:
    """A junit testcase as its pytest node id."""
    parts = classname.split(".") if classname else []
    for i in range(len(parts), 0, -1):
        module = "/".join(parts[:i]) + ".py"
        if (tree / module).is_file():
            return "::".join([module, *parts[i:], name])
    return name.replace(".", "/") + ".py"  # a module that failed to collect


def run_suite(tree: Path, timeout: float | None, first_kill: bool = False) -> dict:
    """Runs tier-1 in tree: its outcome ("ran" or "timeout"), pytest's exit
    code, the ids of the tests that passed and failed, and its wall
    seconds."""
    junit = tree / "junit.xml"
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
           f"--hypothesis-seed={HYPOTHESIS_SEED}", f"--hypothesis-profile={HYPOTHESIS_PROFILE}",
           f"--junitxml={junit}", f"--basetemp={tree / 'pytest-tmp'}"]
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    start = time.perf_counter()
    child = subprocess.Popen(cmd + (["-x"] if first_kill else []), cwd=tree, env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True)
    resource.prlimit(child.pid, resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))  # inherited by its children
    try:
        code = child.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return {"outcome": "timeout", "passed": set(), "failed": set(), "s": time.perf_counter() - start}
    seconds = time.perf_counter() - start
    passed, failed = set(), set()
    for case in ET.parse(junit).getroot().iter("testcase") if junit.is_file() else ():
        tid = _node_id(tree, case.get("classname", ""), case.get("name", ""))
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add(tid)
        elif case.find("skipped") is None:
            passed.add(tid)
    return {"outcome": "ran", "code": code, "passed": passed, "failed": failed, "s": seconds}


def locate(tree: Path, mutant: dict) -> tuple[str, str] | str:
    """(file, mutated text) of mutant in tree: in its recorded file where
    its lines still stand, or else, for code that moved, in the one other
    module of SRC where they stand exactly once. Otherwise the outcome:
    "deleted" when no module holds them, "ambiguous" when several places do."""
    path = tree / mutant["file"]
    if path.is_file() and (mutated := apply(path.read_text(), mutant)) is not None:
        return mutant["file"], mutated
    found = [(p, i) for p in sorted((tree / SRC).glob("*.py")) if p != path
             for i in places(p.read_text(), mutant)]
    if len(found) != 1:
        return "ambiguous" if found else "deleted"
    [(moved, first)] = found
    return f"{SRC}/{moved.name}", apply(moved.read_text(), mutant, first)


def run_copy(root: Path, mutant: dict | None, timeout: float | None, first_kill: bool = False) -> dict:
    """run_suite on a copy of root under a temporary directory, with mutant
    applied where locate finds it, and the file it was applied to; or
    locate's outcome if it finds no one place."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(root, tree, ignore=COPY_IGNORE)
        if mutant is None:
            return run_suite(tree, timeout, first_kill)
        found = locate(tree, mutant)
        if isinstance(found, str):
            return {"outcome": found, "passed": set(), "failed": set(), "s": 0.0}
        (tree / found[0]).write_text(found[1])
        return {**run_suite(tree, timeout, first_kill), "file": found[0]}


def _kills(result: dict, clean: set[str]) -> list[str]:
    """The clean run's passing tests that failed on the mutant; a module
    that failed to collect fails all of its tests."""
    out = set()
    for tid in result["failed"]:
        out |= {tid} if "::" in tid else {t for t in clean if t.startswith(tid + "::")}
    return sorted(out & clean)


def _tree_label(root: Path) -> str:
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
    dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--", "src", "tests"],
                           capture_output=True, text=True).stdout.strip()
    return (done.stdout.strip() or "unknown") + (" with uncommitted changes" if dirty else "")


def write(path: Path, data: dict) -> None:
    """data as JSON, one mutant a line."""
    head = json.dumps({k: v for k, v in data.items() if k != "mutants"}, indent=1)
    body = ",\n".join("  " + json.dumps(m, ensure_ascii=False) for m in data["mutants"])
    path.write_text(head[:-2] + ',\n "mutants": [\n' + body + "\n ]\n}\n")


def sweep(root: Path, run_name: str, data: dict) -> None:
    """Runs the clean suite and then every mutant of data on root, and
    records each outcome and its killing tests under mutant[run_name];
    saves OUT after each mutant. A "reapplied" run stops each suite at its
    first failure."""
    first_kill = run_name == "reapplied"
    clean = run_copy(root, None, None)
    if clean["outcome"] != "ran" or clean["code"] != 0:
        sys.exit(f"the clean suite fails: {sorted(clean['failed'])}")
    timeout = 3 * clean["s"]
    old = data.get("tests", [])
    data["tests"] = sorted(set(old) | clean["passed"])
    data.setdefault("runs", {})[run_name] = {
        "tree": _tree_label(root), "clean_s": round(clean["s"], 1), "timeout_s": round(timeout, 1),
        "tests": len(clean["passed"]), "first_kill": first_kill, "hypothesis_seed": HYPOTHESIS_SEED,
        "hypothesis_profile": HYPOTHESIS_PROFILE}
    index = {t: i for i, t in enumerate(data["tests"])}
    for m in data["mutants"]:  # the sweep's kills, renumbered into the union of ids
        if "sweep" in m:
            m["sweep"]["killed_by"] = [index[old[i]] for i in m["sweep"]["killed_by"]]
    lock = threading.Lock()

    def one(i: int, mutant: dict) -> None:
        result = run_copy(root, mutant, timeout, first_kill)
        kills = _kills(result, clean["passed"])
        outcome = result["outcome"] if result["outcome"] != "ran" else "killed" if kills else \
            "survived" if result["code"] == 0 else "crashed"  # a failing suite with no test failed
        with lock:
            mutant[run_name] = {"outcome": outcome, "killed_by": [index[t] for t in kills], "s": round(result["s"], 1)}
            if result.get("file", mutant["file"]) != mutant["file"]:  # the code moved there
                mutant[run_name]["file"] = result["file"]
            write(OUT, data)
            print(f"{i + 1}/{len(data['mutants'])} {mutant['file']}:{mutant['line']} {mutant['operator']} "
                  f"{mutant['original']!r:.50} -> {mutant['mutated']!r:.50}: {outcome} ({len(kills)} tests, "
                  f"{result['s']:.0f} s)", flush=True)

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for f in [pool.submit(one, i, m) for i, m in enumerate(data["mutants"])]:
            f.result()


def _key(mutant: dict) -> str:
    return json.dumps([mutant[k] for k in ("file", "line", "context", "original", "mutated")])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true", help="print the sample and run nothing")
    mode.add_argument("--sweep", action="store_true", help="run the suite on every mutant of the sample")
    mode.add_argument("--reapply", action="store_true", help="re-run the mutants recorded in OUT on --root")
    parser.add_argument("--root", type=Path, default=ROOT, help="the repo to mutate (default: this one)")
    args = parser.parse_args(argv)
    if args.list:
        for m in sample(args.root):
            print(json.dumps(m, ensure_ascii=False))
        return 0
    if args.sweep:
        verdicts = {_key(m): m["verdict"] for m in json.loads(OUT.read_text())["mutants"]
                    if "verdict" in m} if OUT.is_file() else {}
        mutants = sample(args.root)
        for m in mutants:
            if _key(m) in verdicts:
                m["verdict"] = verdicts[_key(m)]
        sweep(args.root, "sweep", {"seed": SEED, "count": COUNT, "mutants": mutants})
        return 0
    data = json.loads(OUT.read_text())
    for m in data["mutants"]:
        m.pop("reapplied", None)
    sweep(args.root, "reapplied", data)
    lost = [m for m in data["mutants"]
            if m["sweep"]["outcome"] in KILLS and m["reapplied"]["outcome"] not in KILLS + ("deleted",)]
    for m in lost:
        print(f"no longer killed: {m['file']}:{m['line']} {m['original']!r} -> {m['mutated']!r}")
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
