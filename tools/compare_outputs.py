#!/usr/bin/env python3
"""Compare the CLI's output bytes of this checkout with those of another tree.

    python3 tools/compare_outputs.py PARENT_TREE

``PARENT_TREE`` is a source tree with a ``src/gmprod``, such as a ``git
archive`` export of the parent commit. It and the checkout holding this
script each run in their own subprocess, which imports ``gmprod`` from the
tree's ``src/`` and calls ``gmprod.cli.main(argv)`` in process for every
argv in turn.

The argvs come from this checkout: every ``PINNED_OUTPUT`` key of
``tests/test_cli.py`` and every cycle entry of ``WORKLOADS`` and
``MINIMAL`` in ``bench/workloads.py``. Each has its own ``--seed`` and
``--format`` dropped and runs at seeds 0, 7 and 12345, in JSON and, where
the subcommand writes it, in CSV. Each argv runs twice: once to stdout and
once with ``--out out`` from inside an empty temporary directory, so no
message can echo the directory's random name. The exit status,
stdout, stderr and the bytes ``--out`` wrote are compared; every argv
whose results differ is printed, and the exit status is 1 if any does,
0 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import base64
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 7, 12345)
# the subcommands that also write CSV; every subcommand writes JSON
CSV_SUBCOMMANDS = ("moments", "distinguish", "sweep")


def _pinned_argvs() -> list[str]:
    """The keys of ``PINNED_OUTPUT`` in ``tests/test_cli.py``, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "PINNED_OUTPUT" for t in node.targets):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise LookupError("tests/test_cli.py has no PINNED_OUTPUT")


def _workload_argvs() -> list[str]:
    """Every cycle entry of the benchmark's ``WORKLOADS`` and ``MINIMAL``."""
    spec = importlib.util.spec_from_file_location("_bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up by name
    spec.loader.exec_module(module)
    workloads = [*module.WORKLOADS.values(), *module.MINIMAL.values()]
    return [" ".join(argv) for w in workloads for argv in w.cycle]


def argvs() -> list[list[str]]:
    """The argvs to compare, in a fixed order, each once."""
    out: dict[tuple[str, ...], None] = {}
    for text in [*_pinned_argvs(), *_workload_argvs()]:
        words = text.split()
        for option in ("--seed", "--format"):
            if option in words:
                i = words.index(option)
                del words[i : i + 2]
        formats = ("json", "csv") if words[0] in CSV_SUBCOMMANDS else ("json",)
        for seed in SEEDS:
            for fmt in formats:
                out[(*words, "--seed", str(seed), "--format", fmt)] = None
    return [list(argv) for argv in out]


def _call(main, argv: list[str]) -> list:
    """[exit status, stdout, stderr] of ``main(argv)`` in this process, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def _run_here(tree: Path, argv_list: list[list[str]]) -> list:
    """Each argv's results from ``tree``'s package: to stdout, then with ``--out``."""
    sys.path.insert(0, str(tree / "src"))
    from gmprod import cli

    if not Path(cli.__file__).resolve().is_relative_to(tree):  # e.g. an installed gmprod took precedence
        raise SystemExit(f"gmprod.cli was imported from {cli.__file__}, not from {tree}")
    main = cli.main
    results, home = [], os.getcwd()
    for argv in argv_list:
        # run from inside the temporary directory, so that the path any
        # message echoes is the fixed ``out``, never the random directory
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                to_file = _call(main, [*argv, "--out", "out"])
                written = base64.b64encode(Path("out").read_bytes()).decode() if Path("out").exists() else None
            finally:
                os.chdir(home)
        results.append([_call(main, argv), to_file, written])
    return results


def run_tree(tree: Path, argv_list: list[list[str]]) -> list:
    """Run every argv against ``tree`` in a new interpreter and return its results."""
    done = subprocess.run(
        [sys.executable, __file__, "--run", str(tree)],
        input=json.dumps(argv_list), capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def differing(argv_list: list[list[str]], ours: list, theirs: list) -> list[list[str]]:
    """The argvs whose results differ between two runs."""
    return [argv for argv, a, b in zip(argv_list, ours, theirs, strict=True) if a != b]


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description="Compare the CLI's output bytes of this checkout and another tree.")
    parser.add_argument("tree", type=Path, help="the tree to compare with, such as the parent commit's")
    # in a child: run the argvs of stdin against ``tree`` and print the results
    parser.add_argument("--run", action="store_true", help=argparse.SUPPRESS)
    opts = parser.parse_args(args)
    if opts.run:
        print(json.dumps(_run_here(opts.tree.resolve(), json.load(sys.stdin))))
        return 0
    argv_list = argvs()
    ours, theirs = (run_tree(tree, argv_list) for tree in (ROOT, opts.tree.resolve()))
    diff = differing(argv_list, ours, theirs)
    for argv in diff:
        print("differs:", " ".join(argv))
    print(f"{len(argv_list) - len(diff)} of {len(argv_list)} argvs identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
