"""Byte parity of the command line between two source trees.

Runs one list of argvs against each tree's omitlab, in one child
interpreter per tree and a fresh directory per argv, and compares what each
argv leaves: its exit code, stdout, stderr (with the tree's path written as
<tree>) and every file it writes. Manifests are compared without their
duration_s. Prints each difference and exits 0 only when every output is
identical, 1 otherwise.

    python tools/parity.py TREE_A TREE_B
    python tools/parity.py --base REV [TREE]

A tree is a source checkout, the directory that holds src/omitlab. With
--base, the first tree is the git revision REV, checked out with
`git worktree add` into a temporary directory of TREE's repository (by
default the checkout that holds this script) and removed afterwards, and
the second tree is TREE. Nothing is fetched.

The argvs: every distinct argv of the benchmark's figure and maps-oracle
workloads for seeds 0-9 (perfbench/workloads.py of this checkout), the
oracle at the seven detunings of criterion 3's band, defaults, steady,
delay, the default delay maps, and the maps at branches 1 and 2 of two bare
detunings: 120 in all.
"""

import argparse
import difflib
import importlib.util
import json
import os
import pickle
import random
import subprocess
import sys
import tempfile

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BAND = (0.9, 0.93, 0.97, 1.0, 1.04, 1.08, 1.1)

# run in each child: import the tree's omitlab, then run every argv in a
# fresh directory with stdout and stderr captured and every warning shown
# (catch_warnings resets the registry of warnings already shown), and
# pickle (exit code, stdout, stderr, {relative path: bytes}) per argv
_CHILD = r"""
import contextlib, io, json, os, pickle, sys, tempfile, warnings
src, argv_path, out_path = sys.argv[1:]
sys.path.insert(0, src)
from omitlab.cli import main
results = []
home = os.getcwd()
for argv in json.load(open(argv_path)):
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code or 0
        files = {}
        for root, _, names in os.walk(work):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, work)] = fh.read()
        os.chdir(home)
    results.append((code, out.getvalue(), err.getvalue(), files))
with open(out_path, "wb") as fh:
    pickle.dump(results, fh)
"""


def _workloads():
    path = os.path.join(CHECKOUT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def argv_list():
    """The 120 argvs, each once, in a fixed order."""
    argvs = []
    for name, workload in _workloads().items():
        for seed in range(10):
            argvs += [argv for _, argv in workload(random.Random(f"{name}:{seed}"))]
    argvs += [["oracle", "--delta", repr(x), "--out", "oracle.json"] for x in BAND]
    argvs += [["defaults"], ["defaults", "--out", "defaults.json"]]
    argvs += [["steady", "--out", "steady.txt", *mode]
              for mode in ([], ["--delta0", "1.5"], ["--delta0", "2.0"])]
    argvs += [["delay", "--delta", "1.1", "--out", "delay.json", *extra]
              for extra in ([], ["--method", "fd"], ["--method", "fd", "--fd-step", "1e-5"],
                            ["--branch", "2"])]
    argvs += [["delay-map", "--svg", "--out", "delay_map.csv", *extra]
              for extra in ([], ["--method", "fd"])]
    for delta0 in ("1.5", "2.0"):
        for branch in ("1", "2"):
            mode = ["--delta0", delta0, "--branch", branch, "--svg"]
            argvs += [["delay-map", "--out", "delay_map.csv", *mode],
                      ["map2d", "--axis1", "P", "--grid1", "0.0001:0.004:41",
                       "--axis2", "L", "--grid2", "0:200:101", "--observable", "tau_g",
                       "--delta", "1.1", "--out", "map2d_sc.csv", *mode],
                      ["map2d", "--axis1", "L", "--grid1", "0:200:41",
                       "--axis2", "Delta", "--grid2", "0.5:1.5:201",
                       "--out", "map2d.csv", *mode]]
    seen = set()
    return [a for a in argvs if not (tuple(a) in seen or seen.add(tuple(a)))]


def _start(tree, argvs, scratch, tag):
    """Start the child of tree on argvs; its results go to a pickle."""
    argv_path = os.path.join(scratch, f"{tag}.argv.json")
    with open(argv_path, "w") as fh:
        json.dump(argvs, fh)
    out_path = os.path.join(scratch, f"{tag}.pickle")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, os.path.join(tree, "src"), argv_path, out_path],
        cwd=scratch, env=env)
    return child, out_path


def _normalised(result, tree):
    code, out, err, files = result
    for path in {os.path.abspath(tree), os.path.realpath(tree)}:
        err = err.replace(path, "<tree>")
    files = dict(files)
    for name in files:
        if name.endswith(".manifest.json"):
            manifest = json.loads(files[name])
            manifest.pop("duration_s", None)
            files[name] = json.dumps(manifest, indent=2).encode()
    return {"exit code": str(code).encode(), "stdout": out.encode(), "stderr": err.encode(),
            **{f"file {name}": body for name, body in files.items()}}


def _diff(a, b, limit=12):
    """Up to limit lines of a unified diff of two outputs, or their sizes
    where either is not text."""
    try:
        lines = list(difflib.unified_diff(a.decode().splitlines(), b.decode().splitlines(),
                                          lineterm="", n=0))[2:]
    except UnicodeDecodeError:
        return [f"binary, {len(a)} and {len(b)} bytes"]
    return [line[:200] for line in lines[:limit]] + (["..."] if len(lines) > limit else [])


def compare(tree_a, tree_b, argvs):
    """Run argvs against both trees; the differences, one (argv, output,
    diff lines) per output that differs or that one tree lacks."""
    with tempfile.TemporaryDirectory() as scratch:
        children = [_start(tree, argvs, scratch, tag)
                    for tree, tag in ((tree_a, "a"), (tree_b, "b"))]
        for child, _ in children:
            child.wait()
        results = []
        for (child, out_path), tree in zip(children, (tree_a, tree_b)):
            if child.returncode != 0:
                raise RuntimeError(f"the child of {tree} exited {child.returncode}")
            with open(out_path, "rb") as fh:
                results.append([_normalised(r, tree) for r in pickle.load(fh)])
    diffs = []
    for argv, a, b in zip(argvs, *results):
        for key in sorted(a.keys() | b.keys()):
            if a.get(key) != b.get(key):
                diffs.append((argv, key, _diff(a.get(key, b""), b.get(key, b""))))
    return diffs


def main(argv=None):
    p = argparse.ArgumentParser(prog="parity", description=__doc__.split("\n\n")[0])
    p.add_argument("trees", nargs="*", help="source trees: two, or one with --base")
    p.add_argument("--base", help="git revision to check out as the first tree")
    args = p.parse_args(argv)
    if len(args.trees) not in ((0, 1) if args.base else (2,)):
        p.error("give two trees, or --base REV and at most one tree")
    argvs = argv_list()
    if args.base:
        tree_b = os.path.abspath(args.trees[0] if args.trees else CHECKOUT)
        repo = subprocess.run(["git", "-C", tree_b, "rev-parse", "--show-toplevel"],
                              check=True, capture_output=True, text=True).stdout.strip()
        with tempfile.TemporaryDirectory() as tmp:
            tree_a = os.path.join(tmp, "base")
            subprocess.run(["git", "-C", repo, "worktree", "add", "--detach", tree_a,
                            args.base], check=True, stdout=subprocess.DEVNULL)
            try:
                diffs = compare(tree_a, tree_b, argvs)
            finally:
                subprocess.run(["git", "-C", repo, "worktree", "remove", "--force", tree_a],
                               check=True)
    else:
        tree_a, tree_b = map(os.path.abspath, args.trees)
        diffs = compare(tree_a, tree_b, argvs)
    differing = []
    for argv, key, lines in diffs:
        if not differing or differing[-1] != argv:
            differing.append(argv)
            print(" ".join(argv))
        print(f"  {key} differs")
        print("".join(f"    {line}\n" for line in lines), end="")
    print(f"{len(argvs) - len(differing)} of {len(argvs)} argvs identical")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
