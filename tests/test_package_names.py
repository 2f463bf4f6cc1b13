"""Every top-level name that `src/frangine` defines is used by the package.

A helper that only tests call is code no run executes. This test parses
each module of the package, collects the names it defines at top level
(functions, classes, assigned names), and fails on any that is neither
read in its own module outside its own definition nor imported from that
module by another (`from .module import name`, or `module.name` after
`from . import module`). A read of the same name in another module does
not count: there it is some other binding, such as a local variable. Two
kinds of name are exempt: the targets that `scenbench/tracer.py` hooks by name (its `HOOKS`
list, read from its source and never changed), and the S-FFR allocator
that README keeps on purpose although no run calls it.

A method goes the same way: one that no code in the package or in
`scenbench/` reads as an attribute is flagged as `Class.method`, dunders
and the hook targets (`caching.EdgeCache.request`) aside.

The same goes for attributes: an attribute that the package assigns on
`self` must be read somewhere in the package or in `scenbench/`.

And a config key has one default, on its `ScenarioConfig` field: no
function parameter, and no field of another class, both takes a key's
name and gives it a default of its own.

Last, the modules import each other without a cycle and without a
`TYPE_CHECKING` guard, and `config` imports no package module but the
leaves it reads (`CONFIG_LEAVES`), so every layer can import it.
"""

import ast
import dataclasses
from collections import Counter
from pathlib import Path

from frangine.metrics_sim import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "frangine"
KEPT = {("coordination", "sffr_allocate"), ("coordination", "SffrUe")}
CONFIG_LEAVES = {"geometry", "caching"}


def _hook_targets():
    """(module, dotted name) of each hook in the tracer's HOOKS list:
    ("geometry", "pair_d2d"), ("caching", "EdgeCache.request")."""
    tree = ast.parse((ROOT / "scenbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "HOOKS":
            for hook in node.value.elts:
                yield tuple(hook.args[1].value.split(".", 1))


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


def _methods(tree):
    """("Class.method", node) for each method of each top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _attribute_reads(trees) -> set:
    """Each name that `trees` read as `<anything>.<name>` or by `getattr`."""
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
            read.update(arg.value for arg in node.args[1:2] if isinstance(arg, ast.Constant))
    return read


def _bench_trees():
    return [ast.parse(path.read_text()) for path in sorted((ROOT / "scenbench").glob("*.py"))]


def _reads(tree) -> Counter:
    """How often `tree` reads each variable name."""
    return Counter(
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    )


def _imports(tree) -> set:
    """(module, name) of each package name that `tree` imports: by
    `from .module import name`, or as `module.name` after
    `from . import module`."""
    modules, imported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    imported.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            imported.add((modules[node.value.id], node.attr))
    return imported


def unused_names(src=SRC, hooks=None):
    """(module, name) of each top-level name of the package that its own
    module reads only inside the name's definition, if at all, and that no
    other module imports; then (module, "Class.method") of each method that
    no code in the package or in `scenbench/` reads as an attribute. Hook
    targets, dunders and the kept S-FFR names aside."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    reads = {module: _reads(tree) for module, tree in trees.items()}
    imported = set().union(*map(_imports, trees.values()))
    exempt = KEPT | imported | set(_hook_targets() if hooks is None else hooks)
    attributes = _attribute_reads([*trees.values(), *_bench_trees()])
    return [
        (module, name)
        for module, tree in trees.items()
        for name, node in _definitions(tree)
        if not name.startswith("__") and (module, name) not in exempt
        and reads[module][name] == _reads(node)[name]
    ] + [
        (module, name)
        for module, tree in trees.items()
        for name, node in _methods(tree)
        if not node.name.startswith("__") and (module, name) not in exempt
        and node.name not in attributes
    ]


def unread_attributes(src=SRC):
    """(module, attribute) of each `self.<attribute>` that a module of the
    package assigns but that no code in the package or in `scenbench/`
    reads, as `<anything>.<attribute>` or by `getattr`."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    read = _attribute_reads([*trees.values(), *_bench_trees()])
    return sorted({
        (module, node.attr)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and getattr(node.value, "id", None) == "self" and node.attr not in read
    })


def defaulted_config_keys(src=SRC):
    """(module, "owner.name") of each function parameter, and each class
    attribute outside `ScenarioConfig`, that has a config key's name and a
    default value."""
    keys = {f.name for f in dataclasses.fields(ScenarioConfig)}
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):] + [
                    arg for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default
                ]
                owner = getattr(node, "name", "<lambda>")
                found += [(path.stem, f"{owner}.{arg.arg}") for arg in defaulted]
            elif isinstance(node, ast.ClassDef) and node.name != "ScenarioConfig":
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                        targets = [stmt.target]
                    else:
                        targets = stmt.targets if isinstance(stmt, ast.Assign) else []
                    found += [(path.stem, f"{node.name}.{t.id}") for t in targets
                              if isinstance(t, ast.Name)]
    return sorted((module, name) for module, name in found if name.split(".")[1] in keys)


def _module_imports(tree) -> set:
    """The package modules that `tree` imports anywhere in it, by
    `from .module import name` or `from . import module`."""
    return {
        node.module.split(".")[0] if node.module else alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def import_faults(src=SRC):
    """("TYPE_CHECKING", module) of each module that names `TYPE_CHECKING`;
    ("cycle", "a, b, ...") of each set of modules that import each other in
    a cycle; and ("config imports", module) of each package module that
    `config` imports beyond `CONFIG_LEAVES`."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    faults = [
        ("TYPE_CHECKING", module) for module, tree in trees.items()
        if any("TYPE_CHECKING" in (getattr(node, "id", None), getattr(node, "name", None),
                                   getattr(node, "attr", None)) for node in ast.walk(tree))
    ]
    reach = {module: _module_imports(tree) & trees.keys() for module, tree in trees.items()}
    for middle in trees:  # the transitive closure, one intermediate module at a time
        for module in trees:
            if middle in reach[module]:
                reach[module] |= reach[middle]
    cycles = {
        ", ".join(m for m in trees if m == module or module in reach[m] and m in reach[module])
        for module in trees if module in reach[module]
    }
    faults += [("cycle", cycle) for cycle in sorted(cycles)]
    faults += [
        ("config imports", module)
        for module in sorted(_module_imports(trees["config"]) - CONFIG_LEAVES)
    ]
    return faults


def test_every_top_level_name_is_used_by_the_package():
    assert unused_names() == []


def test_only_hook_targets_go_unread():
    # The tracer hooks these by name, but no code of the package reads them.
    assert unused_names(hooks=[]) == [
        ("_kernels", "sinr_trials"),
        ("caching", "content_available"),
        ("geometry", "distance"),
        ("geometry", "adjacency_is_connected"),
        ("caching", "EdgeCache.request"),
    ]


def test_a_helper_only_tests_call_is_found(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "channel.py", "a") as fh:
        fh.write("\n\ndef watts_to_dbm(watts):\n    return 30.0 + 10.0 * np.log10(watts)\n")
    # `run_scenario` has a local `speeds`; it is not geometry's.
    with open(tmp_path / "geometry.py", "a") as fh:
        fh.write("\n\ndef speeds(n, rng):\n    return rng.exponential(2.0, size=n)\n")
    planted = [("channel", "watts_to_dbm"), ("geometry", "speeds")]
    assert unused_names(tmp_path) == planted
    # A hook target is exempt, as the tracer reaches it by name.
    assert unused_names(tmp_path, [*_hook_targets(), *planted]) == []


def test_a_method_only_tests_call_is_found(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    # A constructor that only tests call, as `AccessTable.from_positions`
    # became once runs built the table from their own gains; and a dunder.
    source = (tmp_path / "coordination.py").read_text()
    anchor = "    def success_probabilities(self, cluster) -> np.ndarray:\n"
    planted = source.replace(anchor, (
        "    @classmethod\n"
        "    def from_positions(cls, fap_xy, fue_xy, config):\n"
        "        return None\n\n"
        "    def __repr__(self):\n"
        "        return 'AccessTable'\n\n"
    ) + anchor, 1)
    assert planted != source
    (tmp_path / "coordination.py").write_text(planted)
    assert unused_names(tmp_path) == [("coordination", "AccessTable.from_positions")]
    # A hook target is exempt by its full dotted path.
    hooks = [*_hook_targets(), ("coordination", "AccessTable.from_positions")]
    assert unused_names(tmp_path, hooks) == []


def test_every_assigned_attribute_is_read(tmp_path):
    assert unread_attributes() == []
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    # A counter that only tests read, as `EdgeCache.hits` and `misses` were.
    cache = (tmp_path / "caching.py").read_text()
    clock = "        self._clock = 0\n"
    planted = cache.replace(clock, clock + "        self.spare = 0\n", 1)
    assert planted != cache
    (tmp_path / "caching.py").write_text(planted)
    assert unread_attributes(tmp_path) == [("caching", "spare")]


def test_no_second_default_for_a_config_key(tmp_path):
    assert defaulted_config_keys() == []
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    # A record of link keys with defaults of its own, and a layer function
    # that defaults a key instead of reading the config.
    with open(tmp_path / "channel.py", "a") as fh:
        fh.write(
            "\n\n@dataclass(frozen=True)\nclass Budget:\n"
            "    noise_power_dbm: float = -100.0\n    margin_db: float = 3.0\n"
            "\n\ndef rate(config, link_distance, d2d_link_distance=20.0, *, tau=1.0):\n"
            "    return 0.0\n"
        )
    assert defaulted_config_keys(tmp_path) == [
        ("channel", "Budget.noise_power_dbm"),
        ("channel", "rate.d2d_link_distance"),
        ("channel", "rate.tau"),
    ]


def test_modules_import_without_cycles_or_guards(tmp_path):
    assert import_faults() == []
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    # A layer that imports the config's module only for type checking, as
    # channel, coordination and mode_select once did to dodge the cycle
    # through metrics_sim; and a config that reads a stream of its own.
    with open(tmp_path / "channel.py", "a") as fh:
        fh.write(
            "\n\nfrom typing import TYPE_CHECKING\n\nif TYPE_CHECKING:\n"
            "    from .metrics_sim import run_scenario\n"
        )
    with open(tmp_path / "config.py", "a") as fh:
        fh.write("\n\nfrom .rng import derive_rng\n")
    assert import_faults(tmp_path) == [
        ("TYPE_CHECKING", "channel"),
        ("cycle", "channel, coordination, metrics_sim"),
        ("config imports", "rng"),
    ]
