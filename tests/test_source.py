"""Static checks over the source of randlab."""

import ast
import collections
from pathlib import Path

import randlab

SOURCE = Path(randlab.__file__).parent


def _referenced_names(tree) -> collections.Counter:
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_private_definition_is_read():
    # a private function, method or class that nothing references is dead code
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SOURCE.glob("*.py"))}
    everywhere = sum((_referenced_names(tree) for tree in trees.values()), collections.Counter())
    unread = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                continue
            if everywhere[name] - _referenced_names(node)[name] <= 0:
                unread.append(f"{module}:{node.lineno} {name}")
    assert unread == []


def test_only_rationals_builds_a_fraction():
    # every other module builds its rationals through the RAT seam, so gmpy2's
    # mpq, when installed, is the one rational type the library makes
    calls = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "rationals.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and "Fraction" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls.append(f"{path.name}:{node.lineno}")
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


def test_every_default_is_set_in_src():
    # a default no call in src/ passes has one value in use, so it is a
    # constant, not a parameter; a function no call in src/ reaches is a
    # library entry point, and main(argv=None) reads sys.argv
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SOURCE.glob("*.py"))]
    classes = {node.name: node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}

    targets = {}  # a name calls use -> (label, the def it runs, 1 if it takes self)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                targets[node.name] = (node.name, node, 0)
            elif isinstance(node, ast.ClassDef) and not {"Record", "FrozenRecord"} & set(_lineage(classes, node.name)):
                if (found := _init_of(classes, node.name)) is not None:
                    targets[node.name] = (*found, 1)
    for tree in trees:  # a module alias of a class, such as to_measure
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name) and node.value.id in targets:
                targets.update({t.id: targets[node.value.id] for t in node.targets if isinstance(t, ast.Name)})
    passed, reached = collections.defaultdict(set), {}
    for call in (node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)):
        name = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
        if name not in targets:
            continue
        label, func, skip = targets[name]
        reached[label] = func
        positional = [a.arg for a in func.args.posonlyargs + func.args.args][skip:]
        if any(isinstance(a, ast.Starred) for a in call.args) or any(kw.arg is None for kw in call.keywords):
            passed[label].update(positional, (a.arg for a in func.args.kwonlyargs))
        passed[label].update(positional[: len(call.args)], (kw.arg for kw in call.keywords))
    unset = []
    for label, func in reached.items():
        args = func.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults) :]
        defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        unset += [f"{label}({a.arg})" for a in defaulted if a.arg not in passed[label] and (label, a.arg) != ("main", "argv")]
    assert sorted(unset) == []
