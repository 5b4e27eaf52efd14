"""Every public name of gaugeset is reached by the program or serves a named claim.

A public function, class or method (no leading underscore) of a module in
``src/gaugeset`` must be referenced, as a name or an attribute, outside its
own definition, by a module of the package or by ``benchmarks/*.py``.  A
name that only tests reach must be listed in ALLOWED with the paper claim
or test oracle it serves.  Click commands are reached through their group
and are exempt.  ``__init__.py`` only re-exports, so its imports do not
count.  Names are matched by spelling: any ``x.name`` reaches every method
called ``name``.  This is a stdlib ``ast`` check, like test_unused_imports.py.

A private module-level function, class or constant (one leading underscore)
must be referenced the same way, by the package or ``benchmarks/*.py``, with
no allowlist: what only a test reads is a leftover.
"""

import ast
from pathlib import Path

import gaugeset

PACKAGE = Path(gaugeset.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCHMARKS = sorted((Path(__file__).resolve().parent.parent / "benchmarks").glob("*.py"))

# "module.qualname" -> the claim or oracle that a test of it checks
ALLOWED = {
    "convex_sets.from_points": "oracle: convex hulls on the grid for the Minkowski, "
                               "Steiner and canonicalization tests",
    "convex_sets.minkowski_add": "claim: the support embedding is additive, "
                                 "h(A + B) = h(A) + h(B)",
    "convex_sets.contains_point": "claim: the Steiner point is a selection (lies in the set)",
    "convex_sets.scale": "claim: the support embedding is positively homogeneous, "
                         "h(cA) = c h(A) for c >= 0",
    "convex_sets.steiner_point": "oracle: the Steiner point of one set, which "
                                 "steiner_selection reads off support rows",
    "corpus.abs_F_prime": "claim: |F'| is not Lebesgue integrable (grows like 2/t)",
    "corpus.check_flag_consistency": "claim: McShane implies Henstock and HKP, vMS implies "
                                     "vH, in every registry entry's flags",
    "integrators.scalar_hk": "oracle: the standalone scalar HK runs that t33's shared "
                             "selection components must equal",
    "partitions.Gauge.from_callable": "oracle: a gauge with no cell bounds, whose builds "
                                      "and probe checks the bounded ones must equal",
    "partitions.is_delta_fine": "claim: Cousin's lemma, every cousin_build partition "
                                "is delta-fine and Perron",
    "partitions.TaggedPartition": "claim: a tagged partition {(I_i, t_i)} of explicit cells "
                                  "and tags, which is_delta_fine checks; oracle: the "
                                  "whole-array levels that row-block sums must equal",
}


def _is_click_command(node):
    """True for a def decorated by a click group's ``command``/``group`` or ``click.group``."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def public_definitions(tree, module):
    """{"module.qualname": (name, node)} of the public module-level defs and methods."""
    out = {}
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if _is_click_command(node):
            continue
        out[f"{module}.{node.name}"] = (node.name, node)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    out[f"{module}.{node.name}.{item.name}"] = (item.name, item)
    return out


def private_definitions(tree, module):
    """{"module.name": (name, node)} of the private module-level defs, classes and constants."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update((f"{module}.{name}", (name, node)) for name in names
                   if name.startswith("_") and not name.startswith("__"))
    return out


def references(tree, skip):
    """Names and attribute names used in ``tree``, outside the node ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreached(modules, others=(), definitions=public_definitions):
    """Sorted qualnames ``definitions`` finds in ``modules`` ({module: source})
    that neither they nor the ``others`` sources use outside the name's own
    definition."""
    trees = {mod: ast.parse(src) for mod, src in modules.items()}
    trees.update((i, ast.parse(src)) for i, src in enumerate(others))
    out = []
    for mod in modules:
        for qual, (name, node) in definitions(trees[mod], mod).items():
            if not any(name in references(tree, node) for tree in trees.values()):
                out.append(qual)
    return sorted(out)


def _sources():
    return ({p.stem: p.read_text() for p in MODULES}, [p.read_text() for p in BENCHMARKS])


def test_checker_flags_an_unreached_name():
    mod = (
        "import click\n"
        "def used(): return 1\n"
        "def unused(): return unused()\n"  # recursion does not count
        "class Box:\n"
        "    def read(self): return used()\n"
        "    def write(self): pass\n"
        "    def _private(self): pass\n"
        "@click.group()\n"
        "def main(): pass\n"
        "@main.command()\n"
        "def run(): pass\n"
    )
    other = "from m import Box\nBox().read()\n"
    assert unreached({"m": mod}, [other]) == ["m.Box.write", "m.unused"]


def test_checker_flags_an_unreferenced_private_name():
    mod = (
        "__all__ = ['run']\n"
        "_USED, _UNUSED = 1, 2\n"
        "_CHUNK: int = 3\n"  # a leftover constant that only a test patches
        "def _helper(): return _USED\n"
        "def _orphan(): return _orphan()\n"  # recursion does not count
        "class _Box: pass\n"
        "def run(): return _helper(), _Box\n"
    )
    assert unreached({"m": mod}, definitions=private_definitions) == [
        "m._CHUNK", "m._UNUSED", "m._orphan"]


def test_every_private_module_level_name_is_referenced():
    assert unreached(*_sources(), private_definitions) == []


def test_every_public_name_is_reached_or_allowed():
    assert [q for q in unreached(*_sources()) if q not in ALLOWED] == []


def test_allowlist_is_current():
    """Each allowed name still exists and is still reached by tests alone."""
    modules, others = _sources()
    defined = set()
    for mod, src in modules.items():
        defined.update(public_definitions(ast.parse(src), mod))
    assert sorted(set(ALLOWED) - defined) == []
    assert sorted(set(ALLOWED) - set(unreached(modules, others))) == []
