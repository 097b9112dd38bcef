"""The public surface is what the CLI and the acceptance criteria call: every
name in a module's ``__all__`` is used somewhere in the package, or by
``tests/test_acceptance.py``, outside its own definition.  An import is not a
use, so re-exporting a name from ``wignerlab/__init__`` does not keep it."""

import ast
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
