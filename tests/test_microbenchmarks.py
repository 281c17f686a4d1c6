"""The scripts under benchmarks/: the microbenchmarks, each run once, and
the mutation sampler's list.

benchmarks/ is outside testpaths, so without these tests a kernel's new
signature could leave its microbenchmark broken unseen, and a change to
src/ could leave the sampler making mutants that do not compile.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_microbenchmarks_run_once():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "-q", "--benchmark-disable",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_mutants_list_is_seeded_and_each_mutant_is_a_compiling_edit():
    # --list runs no suite; two calls give one sample, and each mutant
    # replaces its original text at its recorded place in src/targetsim/
    cmd = [sys.executable, str(ROOT / "benchmarks" / "mutants.py"), "--list"]
    first, second = (subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True).stdout
                     for _ in range(2))
    assert first == second
    mutants = [json.loads(line) for line in first.splitlines()]
    assert len(mutants) == 150
    for m in mutants:
        assert m["file"].startswith("src/targetsim/")
        lines = (ROOT / m["file"]).read_text().splitlines(keepends=True)
        assert "".join(lines[m["line"] - 1:m["end_line"]]).rstrip("\n") == m["context"]
        text = "".join(lines)
        start = sum(map(len, lines[:m["line"] - 1])) + m["col"]
        end = sum(map(len, lines[:m["end_line"] - 1])) + m["end_col"]
        assert text[start:end] == m["original"] != m["mutated"]
        compile(text[:start] + m["mutated"] + text[end:], m["file"], "exec")


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "benchmarks" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LOOP = """def f(xs):
    out = []
    for x in xs:
        out.append(x +
                   1)
    return out
"""


def deeper(text: str) -> str:
    """text with its loop body moved one level deeper, under `if x:`."""
    lines = ["    " + line if line.startswith("        ") else line for line in text.split("\n")]
    i = lines.index("    for x in xs:") + 1
    return "\n".join(lines[:i] + ["        if x:"] + lines[i:])


def test_reapply_follows_a_statement_moved_one_level_deeper():
    # --reapply matches a mutant's recorded lines at any common indentation
    # and re-indents its text, so each mutant of the loop body, the
    # two-line statement replaced by pass included, is applied where its
    # statement now stands, not reported deleted
    mutants = load_mutants()
    src, moved = mutants.Source(LOOP), deeper(LOOP)
    records = [mutants.mutant_record(src, e) for e in mutants.candidates("m.py", LOOP)
               if e["start"] >= LOOP.index("out.append")]
    assert {m["operator"] for m in records} == {"pass", "arith", "number"}
    for m in records:
        assert mutants.places(moved, m) == [m["line"]]  # one line further down
        assert mutants.apply(moved, m) == deeper(mutants.apply(LOOP, m)), m
    assert mutants.apply(moved.replace("x +", "x *"), records[0]) is None  # its text is gone


def test_reapply_prefers_the_recorded_indentation():
    # a one-line statement that stands at its recorded depth is mutated
    # there, though the same statement at another depth is nearer its
    # recorded line
    mutants = load_mutants()
    text = "def f(xs):\n    for x in xs:\n        if x:\n            continue\n" \
           "        for y in x:\n            if y:\n                continue\n"
    deep = text.rindex("continue")
    (edit,) = [e for e in mutants.candidates("m.py", text) if e["start"] == deep]
    m = mutants.mutant_record(mutants.Source(text), edit)
    shifted = "# a\n# b\n# c\n" + text
    assert mutants.places(shifted, m) == [9]
    assert mutants.apply(shifted, m) == shifted[:len(shifted) - len("continue\n")] + "pass\n"
