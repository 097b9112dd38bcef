"""The public surface is what the CLI and the acceptance criteria call: every
name in a module's ``__all__`` is used somewhere in the package, or by
``tests/test_acceptance.py``, outside its own definition.  An import is not a
use, so re-exporting a name from ``wignerlab/__init__`` does not keep it.
Likewise every defaulted parameter of a public function is set by some call in
the package or the tests: a knob that nothing turns is a constant."""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wignerlab"

# name -> why it stays public although nothing above uses it
ALLOWED = {
    "instance_from_json": "reads back the instance.json that `simulate` writes",
}


def uses(tree):
    """Names and attributes read in ``tree``, outside the top-level function
    or class that defines the same name."""
    found = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and name != own:
                found.add(name)
    return found


def exported(tree):
    """The strings of a module's ``__all__`` list."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def test_every_public_name_has_a_caller():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*map(uses, trees.values()),
                       uses(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())))
    public = {(module, name) for module, tree in trees.items() for name in exported(tree)}
    unused = sorted(f"{module}:{name}" for module, name in public
                    if name not in used and name not in ALLOWED)
    assert not unused, f"public names nothing calls: {unused}"
    assert set(ALLOWED) <= {name for _, name in public}, "an exemption names no public name"


def defaulted(func):
    """(name, position) of each defaulted parameter of the function node
    ``func``; the position of a keyword-only parameter is None."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(a.arg, i) for i, a in enumerate(positional) if i >= first]
            + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def passed(trees):
    """Per called name: the most positional arguments one call passes
    (unbounded with a starred argument), and every keyword some call passes."""
    most, keywords = {}, {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            most[name] = max(most.get(name, 0), math.inf if starred else len(node.args))
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    return most, keywords


def test_every_default_is_passed_somewhere():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    tests = [ast.parse(path.read_text()) for path in sorted((ROOT / "tests").glob("*.py"))]
    most, keywords = passed([*trees.values(), *tests])
    unset = sorted(f"{module}:{func.name}({name})"
                   for module, tree in trees.items() for func in tree.body
                   if isinstance(func, ast.FunctionDef) and func.name in exported(tree)
                   for name, pos in defaulted(func)
                   if name not in keywords.get(func.name, ())
                   and (pos is None or most.get(func.name, 0) <= pos))
    assert not unset, f"defaulted parameters no call sets: {unset}"
