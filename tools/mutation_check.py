"""Mutation check: do the tests catch small faults in the hot paths?

Makes one mutant at a time of each function pinned in ``TARGETS``: a
comparison swapped (``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
``is``/``is not``, ``in``/``not in``), ``+``/``-``, ``//``/``*`` or
``&``/``|`` swapped, or an integer constant below 64 raised by 1.  Each
mutant runs its module's test files with ``-x`` (Hypothesis seed 0) in a
copy of the tree; a failure or a timeout kills it.  The check fails on any
survivor that ``mutation_allow.txt`` does not list, with the reason it is
equivalent.

Usage: ``python tools/mutation_check.py`` (exit 0 when every survivor is listed).
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60
TARGETS = {  # module: (functions mutated, test files each mutant runs)
    "interceptor": (
        {"carrier_slices", "runs", "_add", "_cut", "_decide", "_stash", "_give_up", "_track",
         "_embed", "rank"},
        ["tests/test_interceptor.py", "tests/test_acceptance.py"],
    ),
    "wirecodec": (
        {"peek_frame", "_scan", "rewrite_records", "_read", "_fold", "_words", "_tcp_checksum",
         "_ip_checksum", "with_ip_fields", "with_tcp_payload"},
        ["tests/test_wirecodec.py", "tests/test_interceptor.py"],
    ),
}
SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
        ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn,
        ast.NotIn: ast.In, ast.Add: ast.Sub, ast.Sub: ast.Add, ast.FloorDiv: ast.Mult,
        ast.Mult: ast.FloorDiv, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd}


def sites(tree: ast.Module, names: set) -> list:
    """The mutation sites of the functions ``names`` in ``tree``, in walk
    order, as ``(function, node, mutate)``; ``mutate()`` changes ``node``."""
    funcs = Counter(f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef))
    missing = sorted(name for name in names if funcs[name] != 1)
    if missing:
        sys.exit(f"pinned functions not defined exactly once: {missing}")
    out = []
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef) or f.name not in names:
            continue
        for node in ast.walk(f):
            for k, op in enumerate(getattr(node, "ops", ())):
                if type(op) in SWAP:
                    out.append((f.name, node, lambda ops=node.ops, k=k: ops.__setitem__(
                        k, SWAP[type(ops[k])]())))
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAP:
                out.append((f.name, node, lambda n=node: setattr(n, "op", SWAP[type(n.op)]())))
            for c in ast.iter_child_nodes(node):
                if isinstance(c, ast.Constant) and type(c.value) is int and 0 <= c.value < 64:
                    out.append((f.name, node, lambda c=c: setattr(c, "value", c.value + 1)))
    return out


def passes(tmp: Path, files: list) -> bool:
    shutil.rmtree(tmp / ".hypothesis", ignore_errors=True)  # no example carries over
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *files]
    try:
        return subprocess.run(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main() -> int:
    allowed = dict(line.split("  -- ", 1) for line in (ROOT / "tools/mutation_allow.txt")
                   .read_text().splitlines() if line.strip() and not line.startswith("#"))
    unlisted = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        for module, (names, files) in TARGETS.items():
            path = tmp / "src/netsteglab" / f"{module}.py"
            source = path.read_text()
            path.write_text(ast.unparse(ast.parse(source)))
            if not passes(tmp, files):
                sys.exit(f"{module}: the tests fail on the unmutated module")
            keys, killed, total = Counter(), Counter(), Counter()
            for k in range(len(sites(ast.parse(source), names))):
                tree = ast.parse(source)
                func, node, mutate = sites(tree, names)[k]
                before = ast.unparse(node)
                mutate()
                key = f"{module}.{func}: {before} -> {ast.unparse(node)}"
                keys[key] += 1
                key += f" ({keys[key]})" if keys[key] > 1 else ""
                path.write_text(ast.unparse(tree))
                total[func] += 1
                if not passes(tmp, files):
                    killed[func] += 1
                else:
                    print(("allowed: " if key in allowed else "SURVIVED: ") + key, flush=True)
                    unlisted += [key] if key not in allowed else []
            path.write_text(source)
            for func in sorted(names):
                print(f"{module}.{func}: {killed[func]} of {total[func]} killed", flush=True)
    print(f"{len(unlisted)} survivor(s) not in tools/mutation_allow.txt")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
