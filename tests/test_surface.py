"""The library surface is what the commands use, plus what README documents.

Every function, method and class defined in ``src/recaudit`` must be
referenced from some ``src/`` module outside its own body, or named in
README's code.  A definition only the tests call belongs in
``tests/synth.py``: keeping it in ``src/`` makes every reader carry it.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "recaudit")

# Definitions called by a framework, never by name from the package.
FRAMEWORK_HOOKS = {
    "_NoteHandler.emit",  # logging.Handler calls it for each record
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _definitions(tree):
    """(qualified name, node) of each module-level function and class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{member.name}", member


def _references(node):
    """Every name a subtree reads: names, attributes, and identifier-like strings."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _IDENTIFIER.fullmatch(sub.value):
                yield sub.value


def _readme_names():
    """Identifiers in README's code blocks and inline code spans."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    code = re.findall(r"```.*?```", text, flags=re.S)
    code += re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return {name for chunk in code for name in _IDENTIFIER.findall(chunk)}


def unreferenced_definitions():
    """Qualified names of the definitions neither ``src/`` nor README refers to."""
    trees = {}
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            with open(os.path.join(PACKAGE, filename), encoding="utf-8") as handle:
                trees[filename] = ast.parse(handle.read(), filename)
    # every reference, counted per node so a definition's own body can be set aside
    counts = {}
    for tree in trees.values():
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    documented = _readme_names()
    unused = []
    for filename, tree in trees.items():
        for qualified, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue  # the language calls dunders
            if qualified in FRAMEWORK_HOOKS or name in documented:
                continue
            own = sum(1 for ref in _references(node) if ref == name)
            if counts.get(name, 0) - own == 0:
                unused.append(f"{filename[:-3]}.{qualified}")
    return unused


def test_every_definition_is_used_by_the_package_or_documented():
    unused = unreferenced_definitions()
    assert not unused, (
        "defined in src/ but referenced by no src/ module and not named in README "
        f"(move test-only helpers to tests/synth.py): {unused}"
    )
