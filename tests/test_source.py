"""Rules on the package source itself."""

import ast
import functools
import itertools
from pathlib import Path

from test_tracer_targets import _targets

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ringinv"


def test_package_has_no_assert_statements():
    """Soundness checks raise real exceptions: `python -O` strips asserts."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# kept although no verdict reaches them yet: the counterexample re-check
# path, and constructions the roadmap's next items and the acceptance
# criteria build on
KEEP = {"counterexample_search", "rebuild_context", "unitalize", "p_group_fixed_point"}


# scopes whose own bindings shadow a module-level name
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
          ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _defined(stmt) -> set[str]:
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {t.id for t in targets if isinstance(t, ast.Name)}


@functools.cache
def _bound(scope) -> set[str]:
    """The names `scope` binds locally: its parameters, and the names stored,
    defined, imported or caught in it outside the scopes nested in it."""
    names = set()
    if hasattr(scope, "args"):  # a function or lambda, not a comprehension
        a = scope.args
        names.update(x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                     if x is not None)
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _uses(module: str, tree) -> set[tuple[str, str]]:
    """(module, name) of each definition `module` uses: every name it imports
    from a sibling module, and every name it loads where no enclosing scope
    binds it, outside the top-level statement that defines that name."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update((node.module, a.name) for a in node.names)
        if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
            continue
        chain = [node]
        while chain[-1] in parents:
            chain.append(parents[chain[-1]])
        scopes = [s for s in chain if isinstance(s, SCOPES)]
        # chain[-1] is the module and chain[-2] the top-level statement
        if node.id in _defined(chain[-2]) or any(node.id in _bound(s) for s in scopes):
            continue
        found.add((module, node.id))
    return found


def _package():
    """(module -> syntax tree of every package module but `__init__`, the
    (module, name) pairs they use)."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    return trees, set().union(*(_uses(module, tree) for module, tree in trees.items()))


def test_every_definition_is_used_in_the_package():
    """Each top-level function, class or assignment of the package is used
    in it: imported by another module, or loaded in its own module outside
    its own definition where no local binding shadows it.  `__init__`
    re-exports do not count.  Names the benchmark tracer names (a class
    holding a traced method counts) and `KEEP` are exempt."""
    exempt = KEEP | {qualname.split(".")[0] for _, qualname in _targets()}
    trees, used = _package()
    unused = [f"{module}.py:{name}" for module, tree in trees.items()
              for stmt in tree.body for name in sorted(_defined(stmt))
              if name not in exempt and (module, name) not in used]
    assert not unused, unused


def _attributes(trees) -> set[str]:
    """Every name a package module loads as an attribute."""
    return {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_method_is_used_in_the_package():
    """Each method or property of a top-level class, dunders aside, has a
    name some package module loads as an attribute (`x.name`).  The test is
    by name alone, so a method shares a use with every attribute of its
    name; the tracer's targets are exempt, as above."""
    trees, _ = _package()
    attributes = _attributes(trees)
    exempt = {f"{module}.{qualname}" for module, qualname in _targets()}
    unused = [f"{module}.py:{cls.name}.{fn.name}" for module, tree in trees.items()
              for cls in tree.body if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              if not (fn.name.startswith("__") and fn.name.endswith("__"))
              and fn.name not in attributes and f"{module}.{cls.name}.{fn.name}" not in exempt]
    assert not unused, unused


def test_dead_tracer_targets_are_pinned():
    """The tracer targets nothing in the package uses, which the test above
    exempts: a function no module uses as above, or a method whose name no
    module loads as an attribute.  A target that loses its last caller must
    show up here."""
    trees, used = _package()
    attributes = _attributes(trees)
    dead = {f"{module}.{qualname}" for module, qualname in _targets()
            if ((qualname.split(".")[1] not in attributes) if "." in qualname
                else (module, qualname) not in used)}
    assert dead == {
        "lattices.solve_mod_p", "groups.quotient_action",
        "invariants.centralizer_normalizer", "radicals.module_length",
        "radicals.FiniteModule.minimal_submodules", "theorems.counterexample_search"}


def test_subgroups_are_made_only_by_the_interning_constructor():
    """No package module calls `Subgroup(`, nor `cls(` inside `Subgroup`,
    except `AdditiveGroup.subgroup`: every subgroup goes through its
    group's table, so a group holds one object per key.  Tests may still
    build raw subgroups as oracles."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed, in_subgroup = set(), set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "AdditiveGroup":
                allowed.update(id(node) for fn in cls.body if getattr(fn, "name", "") == "subgroup"
                               for node in ast.walk(fn))
            if isinstance(cls, ast.ClassDef) and cls.name == "Subgroup":
                in_subgroup.update(map(id, ast.walk(cls)))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and id(node) not in allowed
                  and (node.func.id == "Subgroup"
                       or (node.func.id == "cls" and id(node) in in_subgroup))]
    assert not found, found


def test_trusted_constructors_in_theorems_sit_in_rebuild_context():
    """In `theorems`, `validated=True` and `verified=True` (which skip an
    automorphism's or a group's checks) appear only inside
    `rebuild_context`, which builds from a record validated in full."""
    tree = ast.parse((PACKAGE / "theorems.py").read_text())
    inside = {id(node) for fn in tree.body if getattr(fn, "name", "") == "rebuild_context"
              for node in ast.walk(fn)}
    trusted = [node for node in ast.walk(tree) if isinstance(node, ast.keyword)
               and node.arg in ("validated", "verified")
               and isinstance(node.value, ast.Constant) and node.value.value is True]
    assert {kw.arg for kw in trusted if id(kw) in inside} == {"validated", "verified"}
    assert not [kw.lineno for kw in trusted if id(kw) not in inside]


def test_coordinates_are_built_only_by_the_two_image_entry_points():
    """`Coordinates(` is called only in `SubringView.image` and in
    `quotient_by_ideal`, once each, so every subquotient meets the
    own-image test (`ring_core._own_image`) before coordinates are built."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {}
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "SubringView":
                allowed.update({id(n): "SubringView.image" for fn in node.body
                                if getattr(fn, "name", "") == "image" for n in ast.walk(fn)})
            if getattr(node, "name", "") == "quotient_by_ideal":
                allowed.update({id(n): "quotient_by_ideal" for n in ast.walk(node)})
        found += [allowed.get(id(node), f"{path.name}:{node.lineno}")
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "Coordinates"]
    assert sorted(found) == ["SubringView.image", "quotient_by_ideal"]


MEMOS = ("cached", "_cached", "sided")


def _clause_builders(tree) -> set:
    """The functions of a module (by name, at any depth) that build a
    `Clause`: they call `Clause(` or another such function."""
    defs = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append(node)
    calls = {name: {c.func.id for fn in fns for c in ast.walk(fn)
                    if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
             for name, fns in defs.items()}
    builders = {name for name, called in calls.items() if "Clause" in called}
    while True:
        more = {name for name, called in calls.items() if called & builders} - builders
        if not more:
            return builders
        builders |= more


def memoized_clause_builders(source: str) -> list:
    """The line of every `cached`, `_cached` or `sided` call whose compute
    argument (a lambda, or a function named in the module) builds a
    `Clause`."""
    tree = ast.parse(source)
    builders = _clause_builders(tree) | {"Clause"}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in MEMOS:
            continue
        for arg in itertools.chain(node.args, (k.value for k in node.keywords)):
            if isinstance(arg, ast.Name) and arg.id in builders:
                found.append(node.lineno)
            elif isinstance(arg, ast.Lambda) and any(
                    isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                    and c.func.id in builders for c in ast.walk(arg.body)):
                found.append(node.lineno)
    return found


def test_no_memo_holds_a_clause():
    """`_apply_masks` mutates the clauses of a report, so a memo may hold
    the facts behind a clause but never a `Clause`: no memo call in
    `theorems` or `invariants` has a compute lambda or function that
    builds one."""
    for module in ("theorems.py", "invariants.py"):
        assert memoized_clause_builders((PACKAGE / module).read_text()) == [], module


def test_the_memo_rule_catches_a_memoized_clause():
    bad = '''
def _label(ctx):
    return Clause("c", "t", "holds")

def _chk(ctx, caps):
    a = ctx._cached(("a", caps), lambda: _label(ctx))
    b = cached(ctx._cache, "b", lambda: [Clause("c", "t", "holds")])
    def compute(side):
        return _label(ctx)
    c = sided(ctx._cache, ("c",), ctx.ring, "left", compute)
    d = ctx._cached("d", lambda: (1, None))
'''
    assert sorted(memoized_clause_builders(bad)) == [6, 7, 10]
