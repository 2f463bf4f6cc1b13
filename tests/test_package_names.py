"""Every top-level name that `src/frangine` defines is used by the package.

A helper that only tests call is code no run executes. This test parses
each module of the package, collects the names it defines at top level
(functions, classes, assigned names), and fails on any that no code in
`src/` reads outside that name's own definition. Two kinds of name are
exempt: the targets that `scenbench/tracer.py` hooks by name (its `HOOKS`
list, read from its source and never changed), and the S-FFR allocator
that README keeps on purpose although no run calls it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "frangine"
KEPT = {("coordination", "sffr_allocate"), ("coordination", "SffrUe")}


def _hook_targets():
    """(module, top-level name) of each hook in the tracer's HOOKS list."""
    tree = ast.parse((ROOT / "scenbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "HOOKS":
            for hook in node.value.elts:
                yield tuple(hook.args[1].value.split(".")[:2])


def _definitions(tree):
    """(name, defining node) for each top-level def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _reads(tree) -> Counter:
    """How often `tree` reads each name, as a variable or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    )


def unused_names(src=SRC, hooks=None):
    """(module, name) of each top-level name of the package that nothing in
    it reads outside the name's own definition, hook targets and the kept
    S-FFR names aside."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    reads = sum(map(_reads, trees.values()), Counter())
    exempt = KEPT | set(_hook_targets() if hooks is None else hooks)
    return [
        (module, name)
        for module, tree in trees.items()
        for name, node in _definitions(tree)
        if not name.startswith("__") and (module, name) not in exempt
        and reads[name] == _reads(node)[name]
    ]


def test_every_top_level_name_is_used_by_the_package():
    assert unused_names() == []


def test_a_helper_only_tests_call_is_found(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "channel.py", "a") as fh:
        fh.write("\n\ndef watts_to_dbm(watts):\n    return 30.0 + 10.0 * np.log10(watts)\n")
    assert unused_names(tmp_path) == [("channel", "watts_to_dbm")]
    # A hook target is exempt, as the tracer reaches it by name.
    assert unused_names(tmp_path, [*_hook_targets(), ("channel", "watts_to_dbm")]) == []
