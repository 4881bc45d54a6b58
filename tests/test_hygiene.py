"""Source hygiene, read from the syntax tree: every public name in the package
has a reader, no module imports a name it never reads, no parameter is
constant across every call that reaches its function, one function runs a
process pool, and every sampler takes one stream."""

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


def test_only_rng_counts_in_bytes():
    # the byte counter of the step recursions and its flush live in
    # rng.StepTally; a kernel that counts per-step hits uses it, not a copy
    readers = [
        path.name
        for path, tree in _trees(PACKAGE).items()
        if path.name != "rng.py" and "uint8" in _reads(tree)
    ]
    assert readers == []


# Parameters that every call in src/ leaves at its default or sets to one
# shared literal, with their reader; an entry whose calls start to vary is
# stale and fails the check.
CONSTANT_PARAMETERS = {
    "main.argv": "tests and bench/rep.py pass the command line",
}


def _literal(node):
    """(value,) of a literal argument or default, None for anything else."""
    try:
        return (ast.literal_eval(node),)
    except (ValueError, TypeError):
        return None


def _definitions(tree):
    """(name, def, bound) for every def in a module, methods under their own
    name and a class's __init__ also under the class name; bound marks a
    first parameter that calls do not pass."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    decorators = [getattr(d, "id", None) for d in sub.decorator_list]
                    methods[sub] = "staticmethod" not in decorators
                    if sub.name == "__init__":
                        yield node.name, sub, True
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, methods.get(node, False)


def _calls_and_references(trees):
    """Calls by name, and the names read anywhere but as a call's target or
    in an annotation (a def passed as a value has calls no check can see)."""
    calls, skip, references = {}, set(), set()
    nodes = [node for tree in trees for node in ast.walk(tree)]
    for node in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            calls.setdefault(getattr(node.func, "id", None) or node.func.attr, []).append(node)
            skip.add(id(node.func))
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if ann is not None:
                skip.update(id(sub) for sub in ast.walk(ann))
    for node in nodes:
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            references.add(node.id)
        elif isinstance(node, ast.Attribute):
            references.add(node.attr)
    return calls, references


def _constant_parameters(fn, bound, calls):
    """Parameters of fn that every call leaves at its default or sets to one
    shared literal; none when a call unpacks its arguments."""
    args = fn.args
    positional = [p.arg for p in args.posonlyargs + args.args]
    defaults = dict(zip(positional[::-1], args.defaults[::-1]))
    defaults.update((p.arg, d) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    positional = positional[1:] if bound else positional
    values = {p: set() for p in positional + [p.arg for p in args.kwonlyargs]}
    for call in calls:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
            return []
        given = dict(zip(positional, call.args), **{k.arg: k.value for k in call.keywords})
        for p, seen in values.items():
            node = given.get(p, defaults.get(p))
            seen.add(None if node is None else _literal(node))
    return [p for p, seen in values.items() if len(seen) == 1 and None not in seen]


def test_no_parameter_is_constant_across_its_calls():
    # for every def that calls in src/ reach by name: no parameter that every
    # such call leaves at its default or sets to one literal
    trees = _trees(PACKAGE).values()
    calls, references = _calls_and_references(trees)
    constant = sorted(
        f"{name}.{p}"
        for tree in trees
        for name, fn, bound in _definitions(tree)
        if name in calls and name not in references
        for p in _constant_parameters(fn, bound, calls[name])
    )
    unexpected = [p for p in constant if p not in CONSTANT_PARAMETERS]
    assert not unexpected, f"constant across every call in src/: {unexpected}"
    assert set(CONSTANT_PARAMETERS) <= set(constant), "stale CONSTANT_PARAMETERS entry"


def _named(tree) -> set[str]:
    """Every name a module reads or imports, dotted module paths split."""
    names = set(_reads(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


def test_one_pooled_runner():
    # stats._run_ordered is the one pooled runner: no other module names a
    # process pool, and stats.py constructs one, and picks its start
    # method, only there
    trees = _trees(PACKAGE)
    pooled = [
        path.name
        for path, tree in trees.items()
        if path.name != "stats.py" and {"ProcessPoolExecutor", "multiprocessing"} & _named(tree)
    ]
    assert pooled == []

    def constructions(node):
        return sum(
            isinstance(sub, ast.Call) and "ProcessPoolExecutor" in _reads(sub.func)
            for sub in ast.walk(node)
        )

    stats = trees[PACKAGE / "stats.py"]
    (runner,) = [node for node in stats.body if getattr(node, "name", None) == "_run_ordered"]
    assert constructions(stats) == constructions(runner) == 1
    assert _reads(stats).count("get_context") == _reads(runner).count("get_context") == 1


def test_one_stream_form():
    # every sampler takes one RngStream: no module names Sequence, the type a
    # second call form, one stream per draw, would take
    named = [path.name for path, tree in _trees(PACKAGE).items() if "Sequence" in _named(tree)]
    assert named == []
