"""Mutation probe: which one-node changes to a module do its tests miss?

    PYTHONPATH=src python3 tests/mutants.py hr evaluation [--jobs 2]

For each named ``src/pcgkit/<module>.py`` this applies one mutation at a
time and runs that module's tests (``tests/test_<module>.py``) plus
``test_acceptance.py`` and ``test_golden.py`` with ``pytest -x``. The
mutations are:

* a comparison operator moved across its boundary (``<`` and ``<=``,
  ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and
  ``not in``);
* a numeric constant plus one;
* one term of an ``and``/``or`` dropped.

Every run works on a copy of ``src/`` and ``tests/`` in ``--workdir``
(default: a new temporary directory), so the checkout is never changed.
A mutant survives when the tests pass. Survivors listed in
``mutants_equivalent.json``, with the reason each cannot change any
result, are reported as equivalent. The last lines give the survivors
and the run time.

This is a stdlib script: pytest does not collect it and CI does not run
it. It makes no check: a survivor is killed by adding a test. The test
suite checks only that each ``mutants_equivalent.json`` entry still names
a mutant that ``find_mutants`` finds.
"""

import argparse
import ast
import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENT = Path(__file__).resolve().parent / "mutants_equivalent.json"
ALWAYS = ["tests/test_acceptance.py", "tests/test_golden.py"]
# Each test run's address space, so that a mutated size bound fails in
# the child rather than exhausting the host. The child sets it itself: a
# preexec_fn is unsafe in a process with threads.
CHILD_AS_BYTES = 3 * 2 ** 30
PYTEST = ("import resource, sys, pytest; resource.setrlimit("
          f"resource.RLIMIT_AS, ({CHILD_AS_BYTES}, {CHILD_AS_BYTES})); "
          "sys.exit(pytest.main(sys.argv[1:]))")

_SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
         ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
_SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
           ast.In: "in", ast.NotIn: "not in"}


def _parents(tree):
    return {child: node for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)}


def _scope(node, parents):
    names = []
    while node in parents:
        node = parents[node]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
    return ".".join(reversed(names)) or "<module>"


def find_mutants(module, source):
    """``(key, apply)`` pairs; ``key`` names the mutant across line moves."""
    tree = ast.parse(source)
    lines = source.splitlines()
    parents = _parents(tree)
    found = []

    def add(node, where, change, apply):
        key = {"module": module, "scope": _scope(node, parents),
               "line": lines[where.lineno - 1].strip(),
               "col": where.col_offset, "mutation": change}
        found.append((key, apply))

    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in _SWAP:
                    new = _SWAP[type(op)]
                    add(node, node, f"{_SYMBOL[type(op)]} #{k} -> "
                        f"{_SYMBOL[new]}",
                        (index, "ops", k, new()))
        elif (isinstance(node, ast.Constant) and not isinstance(node.value, bool)
              and isinstance(node.value, (int, float))):
            add(node, node, f"{node.value!r} -> {node.value + 1!r}",
                (index, "value", None, node.value + 1))
        elif isinstance(node, ast.BoolOp):
            word = "and" if isinstance(node.op, ast.And) else "or"
            for k, term in enumerate(node.values):
                add(node, term, f"drop {word} term {ast.unparse(term)!r}",
                    (index, "values", k, None))
    return tree, found


def mutated_source(tree, apply):
    """The module's source with one mutation applied."""
    index, field, k, value = apply
    tree = copy.deepcopy(tree)
    node = list(ast.walk(tree))[index]
    if field == "ops":
        node.ops[k] = value
    elif field == "value":
        node.value = value
    else:
        rest = node.values[:k] + node.values[k + 1:]
        node.values = rest
        if len(rest) == 1:  # a one-term BoolOp does not unparse
            parent = _parents(tree)[node]
            for name, old in ast.iter_fields(parent):
                if old is node:
                    setattr(parent, name, rest[0])
                elif isinstance(old, list) and any(o is node for o in old):
                    old[[o is node for o in old].index(True)] = rest[0]
    return ast.unparse(tree)


def run_tests(workdir, tests, timeout):
    """``"killed"``, ``"survived"`` or ``"timeout"`` for the tree in workdir."""
    shutil.rmtree(workdir / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env.pop("PCGKIT_CONFIG", None)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", PYTEST, "-x", "-q", "-p",
             "no:cacheprovider", *tests], cwd=workdir, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if proc.returncode == 0 else "killed"


def make_copy(dest):
    dest.mkdir(parents=True)
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")
    return dest


def probe(module, copies, equivalent):
    path = Path("src") / "pcgkit" / f"{module}.py"
    source = (ROOT / path).read_text()
    tree, mutants = find_mutants(module, source)
    print(f"{module}: {len(mutants)} mutants", flush=True)
    tests = [f"tests/test_{module}.py", *ALWAYS]
    for workdir in copies:
        (workdir / path).write_text(ast.unparse(tree))
    start = time.perf_counter()
    if run_tests(copies[0], tests, None) != "survived":
        sys.exit(f"{module}: the unmutated tests fail; nothing to probe")
    timeout = max(60.0, 5 * (time.perf_counter() - start))
    free = list(copies)

    def one(mutant):
        key, apply = mutant
        workdir = free.pop()
        try:
            (workdir / path).write_text(mutated_source(tree, apply))
            return key, run_tests(workdir, tests, timeout)
        finally:
            free.append(workdir)

    survivors = []
    with ThreadPoolExecutor(max_workers=len(copies)) as pool:
        for key, status in pool.map(one, mutants):
            if status == "survived" and key in equivalent:
                status = "equivalent"
            elif status == "survived":
                survivors.append(key)
            print(f"  {status:10} {key['scope']}: {key['line']} "
                  f"[col {key['col']}: {key['mutation']}]", flush=True)
    for workdir in copies:
        shutil.copy(ROOT / path, workdir / path)
    return survivors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="pcgkit module names")
    parser.add_argument("--jobs", type=int, default=1,
                        help="test runs at once, each on its own copy")
    parser.add_argument("--workdir", help="directory for the copies")
    args = parser.parse_args()
    if not 1 <= args.jobs <= 8:
        parser.error("--jobs must be in 1..8")
    equivalent = [{k: v for k, v in entry.items() if k != "reason"}
                  for entry in json.loads(EQUIVALENT.read_text())]
    base = Path(args.workdir or tempfile.mkdtemp(prefix="pcgkit-mutants-"))
    start = time.perf_counter()
    copies = [make_copy(base / f"copy{j}") for j in range(args.jobs)]
    try:
        survivors = [key for module in args.modules
                     for key in probe(module, copies, equivalent)]
    finally:
        for workdir in copies:
            shutil.rmtree(workdir)
        if not args.workdir:
            base.rmdir()
    print(f"{len(survivors)} survivors in {time.perf_counter() - start:.0f} s")
    for key in survivors:
        print(json.dumps(key))
    return 0


if __name__ == "__main__":
    sys.exit(main())
