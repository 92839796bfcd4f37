#!/usr/bin/env python3
"""Mutation analysis of promc modules, run by hand and not in tier-1.

    python tests/mutate.py src/promc/setbij.py src/promc/baselim.py

Each mutant changes one site of one module: a comparison flipped (``==``
and ``!=``, ``<`` and ``>=``, ``>`` and ``<=``, ``in`` and ``not in``,
``is`` and ``is not``), a ``not`` dropped, or ``and`` and ``or``
swapped.  It is written into a copy of the repository (``src/``, ``tests/``
and what they read) in a
temporary directory, and ``pytest -x`` runs the tests that reach the
module against it (``REACH``, or ``--tests``); a mutant that no test
fails survives, and one that runs past ``--timeout`` counts as killed.
The survivors are printed as JSON entries of ``mutation_ledger.json``,
whose entries each add the test that now kills the mutant or the reason
it is equivalent.  One mutant costs a few seconds when a test kills it
and the whole test run when none does.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the tests that reach each module
_LIMITS = ["tests/test_baselim.py", "tests/test_limit_oracle.py",
           "tests/test_strict.py", "tests/test_towers.py", "tests/test_replay.py",
           "tests/test_pro_core.py", "tests/test_proiso.py", "tests/test_base.py",
           "tests/test_acceptance.py", "tests/test_cli.py",
           "tests/test_cert_bytes.py", "tests/test_cli_sweep.py"]
REACH = {"src/promc/setbij.py": _LIMITS, "src/promc/baselim.py": _LIMITS}

FLIP = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
        ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
        ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And}
SYMBOL = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">",
          ast.LtE: "<=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is",
          ast.IsNot: "is not", ast.And: "and", ast.Or: "or"}


def sites(tree):
    """(line, mutation, apply) of every site of *tree*, in ``ast.walk``
    order; apply() changes the tree in place."""
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                before = node.left if k == 0 else node.comparators[k - 1]
                yield (before.end_lineno, _flipped(op),
                       lambda node=node, k=k: _flip_compare(node, k))
        elif isinstance(node, ast.BoolOp):
            yield (node.values[0].end_lineno, _flipped(node.op),
                   lambda node=node: setattr(node, "op", FLIP[type(node.op)]()))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield (node.lineno, "drop not",
                   lambda node=node: _replace(parents[node], node, node.operand))


def _flipped(op):
    return f"{SYMBOL[type(op)]} -> {SYMBOL[FLIP[type(op)]]}"


def _flip_compare(node, k):
    node.ops[k] = FLIP[type(node.ops[k])]()


def _replace(parent, old, new):
    for field, value in ast.iter_fields(parent):
        if value is old:
            setattr(parent, field, new)
        elif isinstance(value, list):
            value[:] = [new if item is old else item for item in value]


def mutants(source):
    """(line, mutation, mutated source) of every site of *source*."""
    count = sum(1 for _ in sites(ast.parse(source)))
    for k in range(count):
        tree = ast.parse(source)
        line, mutation, apply = list(sites(tree))[k]
        apply()
        yield line, mutation, ast.unparse(tree)


def run_tests(copy, tests, timeout):
    """Whether the tests pass in *copy*; a run past *timeout* fails."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("modules", nargs="+", help="paths under the repository root")
    ap.add_argument("--tests", nargs="+", help="the tests to run (default: REACH)")
    ap.add_argument("--timeout", type=float, default=300)
    args = ap.parse_args()
    survivors = []
    with tempfile.TemporaryDirectory() as copy:
        for part in ("src", "tests", "demos", "pytest.ini", "README.md"):
            src = os.path.join(ROOT, part)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(copy, part),
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, copy)
        for module in args.modules:
            tests = args.tests or REACH[module]
            path = os.path.join(copy, module)
            with open(path) as fh:
                source = fh.read()
            lines = source.splitlines()
            if not run_tests(copy, tests, args.timeout):
                sys.exit(f"mutate: the tests fail on the unchanged {module}")
            killed = n = 0
            for n, (line, mutation, text) in enumerate(mutants(source), 1):
                with open(path, "w") as fh:
                    fh.write(text)
                survived = run_tests(copy, tests, args.timeout)
                if survived:
                    survivors.append({"module": module, "line": line,
                                      "text": lines[line - 1].strip(),
                                      "mutation": mutation})
                else:
                    killed += 1
                print(f"{module}:{line}: {mutation}: "
                      f"{'survived' if survived else 'killed'}", file=sys.stderr)
            with open(path, "w") as fh:
                fh.write(source)
            print(f"{module}: {killed} of {n} mutants killed", file=sys.stderr)
    json.dump(survivors, sys.stdout, indent=1, ensure_ascii=False)
    print()


if __name__ == "__main__":
    main()
