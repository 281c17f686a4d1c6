"""The scripts under benchmarks/: the microbenchmarks, each run once, and
the mutation sampler's list.

benchmarks/ is outside testpaths, so without these tests a kernel's new
signature could leave its microbenchmark broken unseen, and a change to
src/ could leave the sampler making mutants that do not compile.
"""

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
