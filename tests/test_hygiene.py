"""Source hygiene, read from the syntax tree: every public name in the package
has a reader, and no module imports a name it never reads."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "betafluct"

# Public names read only by tests of a paper identity, with those tests; an
# entry that gains a reader in src/ is stale and fails the first check.
TESTED_ONLY = {
    "prufer_evaluate": "psi_k(theta, a) of one draw: monotone, 2pi-equivariant, a martingale",
    "sturm_count": "one draw's pivot count: small matrices, dense eigenvalues, shift invariance",
    "phase_sweep": "one draw's sweep count: independent of the split, flagged on an eigenvalue",
    "fit_log_bound": "the slope and max ratio of the logarithmic bound (criteria 3 and 7)",
    "regularity_profile": "criterion 8's regularity statistic",
}


def _trees(*dirs):
    return {
        path: ast.parse(path.read_text(), filename=str(path))
        for d in dirs
        for path in sorted(d.rglob("*.py"))
    }


def _reads(node) -> list[str]:
    """Names a subtree reads: loaded names and attribute names."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def _public_definitions(tree):
    """(name, defining node) for each public top-level def, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def test_every_public_name_has_a_reader():
    trees = _trees(PACKAGE)
    reads = [name for tree in trees.values() for name in _reads(tree)]
    unread, stale, defined = [], [], set()
    for path, tree in trees.items():
        for name, node in _public_definitions(tree):
            defined.add(name)
            # reads inside the definition itself (recursion, a class naming
            # itself) do not count
            has_reader = reads.count(name) > _reads(node).count(name)
            if name in TESTED_ONLY and has_reader:
                stale.append(name)
            elif name not in TESTED_ONLY and not has_reader:
                unread.append(f"{path.name}:{name}")
    assert unread == []
    assert stale == [] and set(TESTED_ONLY) <= defined


def test_no_unused_imports():
    # an import kept for its side effect says so with "noqa: F401"
    unused = []
    for path, tree in _trees(PACKAGE, ROOT / "tests").items():
        read = set(_reads(tree))
        lines = path.read_text().splitlines()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__" or "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno}:{bound}")
    assert unused == []
