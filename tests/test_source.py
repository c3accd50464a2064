"""Static checks over the source of randlab."""

import ast
import collections
from pathlib import Path

import randlab

SOURCE = Path(randlab.__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_names(tree) -> collections.Counter:
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


# every module of randlab by file name, and how often src/ names each name
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SOURCE.glob("*.py"))}
EVERYWHERE = sum((_referenced_names(tree) for tree in TREES.values()), collections.Counter())
CRITERIA = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())


def _unread(defn, everywhere=EVERYWHERE) -> bool:
    """Nothing in src/ outside the definition itself names it."""
    return everywhere[defn.name] - _referenced_names(defn)[defn.name] <= 0


def test_every_private_definition_is_read():
    # a private function, method or class that nothing references is dead code
    unread = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            name = node.name
            if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                continue
            if _unread(node):
                unread.append(f"{module}:{node.lineno} {name}")
    assert unread == []


def _exported(trees=TREES) -> set:
    """The names randlab/__init__.py imports, plus the class of each exported
    module alias such as to_measure."""
    names = {alias.asname or alias.name for node in trees["__init__.py"].body if isinstance(node, ast.ImportFrom) for alias in node.names}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
                if any(isinstance(t, ast.Name) and t.id in names for t in node.targets):
                    names.add(node.value.id)
    return names


def test_every_unexported_public_definition_is_read():
    # a public function or class that randlab does not export, or a public
    # method of a class it does not export, that nothing in src/ references
    # is read by tests alone, so it belongs in the tests
    exported = _exported()
    unread = []
    for module, tree in TREES.items():
        for node in (n for n in tree.body if isinstance(n, DEFINITIONS) and n.name not in exported):
            methods = [m for m in node.body if isinstance(m, DEFINITIONS)] if isinstance(node, ast.ClassDef) else []
            for label, defn in [(node.name, node), *((f"{node.name}.{m.name}", m) for m in methods)]:
                if defn.name.startswith("_"):
                    continue
                if _unread(defn):
                    unread.append(f"{module}:{defn.lineno} {label}")
    assert unread == []


def _unread_exports(trees: dict, criteria) -> list:
    """The exports that nothing in src/ reads outside their own definition
    and that no acceptance criterion names."""
    everywhere = sum((_referenced_names(tree) for tree in trees.values()), collections.Counter())
    definitions = {node.name: node for tree in trees.values() for node in tree.body if isinstance(node, DEFINITIONS)}
    named = _referenced_names(criteria)
    return sorted(
        name
        for name in _exported(trees)
        if name not in named and (_unread(definitions[name], everywhere) if name in definitions else everywhere[name] <= 0)
    )


def test_every_export_is_read_or_an_acceptance_criterion():
    # an export is the library's handle on an idea of the paper: either the
    # library builds on it or a criterion checks the claim it states
    assert _unread_exports(TREES, CRITERIA) == []


def test_the_export_rule_fails_on_an_unread_export():
    planted = dict(TREES, **{"planted.py": ast.parse("def planted():\n    return planted\n")})
    planted["__init__.py"] = ast.Module(TREES["__init__.py"].body + ast.parse("from .planted import planted").body, [])
    assert _unread_exports(planted, CRITERIA) == ["planted"]
    # a criterion that names it, or a read in src/, makes it pass
    assert _unread_exports(planted, ast.Module(CRITERIA.body + ast.parse("randlab.planted()").body, [])) == []
    planted["bits.py"] = ast.Module(TREES["bits.py"].body + ast.parse("planted()").body, [])
    assert _unread_exports(planted, CRITERIA) == []


def test_only_rationals_builds_a_fraction():
    # every other module builds its rationals through the RAT seam, so gmpy2's
    # mpq, when installed, is the one rational type the library makes
    calls = []
    for module, tree in TREES.items():
        if module == "rationals.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "Fraction" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls.append(f"{module}:{node.lineno}")
    assert calls == []


def _lineage(classes: dict, name: str):
    """The named class and its first bases, up to the first not defined in src/."""
    while name is not None:
        yield name
        node = classes.get(name)
        name = node and next((base.id for base in node.bases if isinstance(base, ast.Name)), None)


def _init_of(classes: dict, name: str):
    """(class, def) of the __init__ a call to the named class runs, or None
    when no class of src/ in its lineage defines one."""
    for owner in _lineage(classes, name):
        body = classes[owner].body if owner in classes else []
        init = next((n for n in body if isinstance(n, ast.FunctionDef) and n.name == "__init__"), None)
        if init is not None:
            return owner, init
    return None


def _calls_by_default_owner():
    """For each call in src/ of a module-level function, of a class that is
    not a record, or of a module alias of either such as to_measure: the label
    and the def of what the call runs, and the names of the parameters the
    call passes."""
    trees = list(TREES.values())
    classes = {node.name: node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}
    targets = {}  # a name calls use -> (label, the def it runs, 1 if it takes self)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                targets[node.name] = (node.name, node, 0)
            elif isinstance(node, ast.ClassDef) and not {"Record", "FrozenRecord"} & set(_lineage(classes, node.name)):
                if (found := _init_of(classes, node.name)) is not None:
                    targets[node.name] = (*found, 1)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name) and node.value.id in targets:
                targets.update({t.id: targets[node.value.id] for t in node.targets if isinstance(t, ast.Name)})
    for call in (node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)):
        name = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
        if name not in targets:
            continue
        label, func, skip = targets[name]
        positional = [a.arg for a in func.args.posonlyargs + func.args.args][skip:]
        if any(isinstance(a, ast.Starred) for a in call.args) or any(kw.arg is None for kw in call.keywords):
            passed = {*positional, *(a.arg for a in func.args.kwonlyargs)}
        else:
            passed = {*positional[: len(call.args)], *(kw.arg for kw in call.keywords)}
        yield label, func, passed


def _defaulted(func) -> list:
    """The parameters of a def that have defaults."""
    args = func.args
    positional = args.posonlyargs + args.args
    return positional[len(positional) - len(args.defaults) :] + [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def test_every_default_is_set_in_src():
    # a default no call in src/ passes has one value in use, so it is a
    # constant, not a parameter; a function no call in src/ reaches is a
    # library entry point, and main(argv=None) reads sys.argv
    reached, passed = {}, collections.defaultdict(set)
    for label, func, names in _calls_by_default_owner():
        reached[label] = func
        passed[label] |= names
    unset = [f"{label}({a.arg})" for label, func in reached.items() for a in _defaulted(func) if a.arg not in passed[label]]
    assert sorted(u for u in unset if u != "main(argv)") == []


def test_every_default_is_omitted_somewhere():
    # the converse of test_every_default_is_set_in_src: a default that every
    # call in src/ overrides is never used, so the parameter is required.
    # Exported names keep their library defaults, and main(argv=None) reads
    # sys.argv
    exported, reached, omitted = _exported(), {}, collections.defaultdict(set)
    for label, func, passed in _calls_by_default_owner():
        if label in exported or label == "main":
            continue
        reached[label] = _defaulted(func)
        omitted[label].update(a.arg for a in reached[label] if a.arg not in passed)
    always_set = [f"{label}({a.arg})" for label, defaulted in reached.items() for a in defaulted if a.arg not in omitted[label]]
    assert sorted(always_set) == []
