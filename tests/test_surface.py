"""Every public name of the package is used by the package itself.

A function, class or constant that only tests call is a surface nobody
runs in the pipeline; it should be deleted rather than kept alive by its
own tests. The allowed exceptions each have a reason in ROADMAP.md.
"""

import ast
from pathlib import Path

import slidevlm

SRC = Path(slidevlm.__file__).resolve().parent

# labels_to_vqa and the BCNB option table build the SlideBench-VQA (BCNB)
# records, which no CLI command reads yet.
TEST_ONLY = {"labels_to_vqa", "BCNB_TASKS"}


def public_names(tree: ast.Module) -> dict[str, ast.AST | None]:
    """Name -> defining node of a module's public surface: its `__all__`,
    or its public top-level definitions when it has none."""
    defined: dict[str, ast.AST] = {}
    exported = None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node
                        if name.id == "__all__":
                            exported = [elt.value for elt in node.value.elts]
    if exported is None:
        exported = [n for n in defined if not n.startswith("_")]
    return {n: defined.get(n) for n in exported}


def used_names(tree: ast.Module, skip: set[int]) -> set[str]:
    """Names read as variables or attributes anywhere outside the nodes in `skip`."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_name_is_used_inside_the_package():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    surfaces = {path: public_names(tree) for path, tree in trees.items()}
    unused = set()
    for path, names in surfaces.items():
        for name, node in names.items():
            skip = {id(node)} if node is not None else set()
            if not any(name in used_names(tree, skip if p == path else set()) for p, tree in trees.items()):
                unused.add(f"{path.relative_to(SRC)}:{name}")
    assert {entry.split(":")[1] for entry in unused} == TEST_ONLY, sorted(unused)
