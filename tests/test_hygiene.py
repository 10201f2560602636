"""Static hygiene of the package sources: every import is read, every
``__all__`` entry is defined, every lazily exported name is bound,
every exported name is reached by the package itself, every defaulted
parameter is set by some package call, every parameter is read, every
circle map has one evaluator, no class has a ``to_*`` serialiser, and
processes start in one place only;
and of the tests:
every import is read and every oracle in ``conftest.py`` is called by a test
module; and the package's module graph is the table below."""

import ast
import math
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mayleonard"

# exported names that no command, no battery entry and no other package
# function reaches, each kept for the reason given
UNREACHED_ALLOWED = {
    "kernels": "the paper's kernel formulas, checked against quadrature",
    "equilibria_spectrum": "the paper's saddle spectra, checked against the flow",
    "table1_eigenpairs": "the paper's Table 1 eigenpairs, checked against the flow",
    "region_label": "a region column for the scan or classify is still undecided",
    "lyapunov_1d": "an SRB verdict on the circle map is still undecided",
    "DoublingMap": "the expansion certificate's passing control",
    "RigidRotation": "the expansion certificate's failing control",
}

# defaulted parameters, as ``function.parameter``, that no package call sets,
# each kept for the reason given
UNSET_DEFAULTS_ALLOWED = {
    "main.argv": "the console entry point: None reads sys.argv",
    "rotation_interval.seeds": "criterion 11 runs its own sizes (6 seeds)",
    "rotation_interval.iterations": "criterion 11 runs its own sizes "
                                    "(20,000 and 5,000 iterations)",
    "region_label.battery_pass": "the battery's II/IV split; a region column for "
                                 "the scan or classify is still undecided",
}

# parameters, as ``scope.parameter``, that their function never reads, each
# kept for the reason given; lambdas are checked too, named ``<lambda>``
UNREAD_PARAMETERS_ALLOWED = {
    "_Case34Map.lift.x": "the case-34 image ignores x by construction; "
                         "every variant's lift takes (x, s)",
    "_Case34Map.tangent.x": "the case-34 tangent ignores x by construction; "
                            "every variant's tangent takes (x, s)",
}


# each package module and the sibling modules it imports, at module or
# function level; ``__init__`` is the package itself
MODULE_GRAPH = {
    "__init__": {"diagnostics", "errors", "flow", "params", "returnmap", "singular"},
    "_io": set(),
    "cli": {"__init__", "_io", "config", "diagnostics", "errors", "flow", "params",
            "returnmap", "singular"},
    "config": {"errors", "params"},
    "diagnostics": {"config", "errors", "params", "returnmap", "singular"},
    "errors": set(),
    "flow": {"config", "errors", "params"},
    "params": {"errors"},
    "returnmap": {"errors", "params", "singular"},
    "singular": {"errors", "params"},
}


def sibling_imports(tree, siblings):
    """The modules of ``siblings`` that ``tree`` imports anywhere, by a
    relative import or through the ``mayleonard`` package; ``from . import
    name`` imports the sibling ``name``, or else the package ``__init__``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("mayleonard."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not (module + ".").startswith("mayleonard."):
                continue
            path = module.split(".")[1:] if node.level == 0 else module.split(".")
            if path and path[0]:
                found.add(path[0])
            else:
                found.update(alias.name if alias.name in siblings else "__init__"
                             for alias in node.names)
    return found & siblings


def unread_imports(tree, reexports=False):
    """Names bound by an import and never loaded anywhere in the module.

    ``from __future__`` imports are exempt; with ``reexports`` so are the
    module-level imports (a package ``__init__`` imports to re-export).
    """
    bound = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or (reexports and node in tree.body):
            continue
        bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    loaded = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - loaded)


def module_bindings(tree):
    """Names bound at module level, and the value expression of each
    assignment, by target name."""
    defined, values = set(), {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (t.id for t in targets if isinstance(t, ast.Name)):
                defined.add(name)
                values[name] = node.value
    return defined, values


def undefined_exports(tree):
    """Entries of a module-level ``__all__`` that the module never binds."""
    defined, values = module_bindings(tree)
    exported = ast.literal_eval(values["__all__"]) if "__all__" in values else []
    return [name for name in exported if name not in defined]


def lazy_table(package):
    """The package's ``_EXPORTS = {name: module, ...}``."""
    _, values = module_bindings(package)
    return ast.literal_eval(values["_EXPORTS"])


def unbound_lazy_names(package, modules):
    """Entries of the package's ``_EXPORTS``, as ``module.name``, whose
    module (a tree in ``modules``, by name) does not bind the name at module
    level or is missing."""
    unbound = []
    for name, module in lazy_table(package).items():
        if module not in modules or name not in module_bindings(modules[module])[0]:
            unbound.append(f"{module}.{name}")
    return sorted(unbound)


def exported_names(package, modules):
    """Entries of every module ``__all__`` and of the package's lazy
    ``_EXPORTS``."""
    names = set(lazy_table(package))
    for tree in modules:
        _, values = module_bindings(tree)
        if "__all__" in values:
            names.update(ast.literal_eval(values["__all__"]))
    return names


def reached_names(modules):
    """Names loaded in ``modules``, as a ``Name`` or as an attribute, outside
    the module-level ``def`` or ``class`` that binds the name itself."""
    def loads(node):
        return ({n.id for n in ast.walk(node)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                | {n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)})
    reached = set()
    for tree in modules:
        for node in tree.body:
            own = {node.name} if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else set()
            reached |= loads(node) - own
    return reached


def surface_faults(package, modules, allowed):
    """Exported names that no module reaches and that ``allowed`` does not
    list; and entries of ``allowed`` that a module reaches or that no module
    binds (a stale allow-list)."""
    exported = exported_names(package, modules)
    reached = reached_names(modules)
    defined = set().union(*(module_bindings(tree)[0] for tree in modules))
    unreached = sorted(exported - reached - set(allowed))
    stale = sorted(name for name in allowed if name in reached or name not in defined)
    return unreached, stale


def defaulted_parameters(tree):
    """``(function, parameter, position)`` for every parameter with a default
    of every ``def`` in ``tree``, methods and nested functions included.
    ``position`` counts the positional parameters after a method's ``self``
    and is None for a keyword-only one; an ``__init__`` is named after its
    class, as its calls name it."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            if cls is not None and not static:
                positional = positional[1:]
            name = cls if cls is not None and child.name == "__init__" else child.name
            first = len(positional) - len(args.defaults)
            found.extend((name, arg.arg, i) for i, arg in enumerate(positional) if i >= first)
            found.extend((name, arg.arg, None) for arg, default
                         in zip(args.kwonlyargs, args.kw_defaults) if default is not None)
            visit(child, None)

    visit(tree, None)
    return found


def unset_defaults(modules, allowed):
    """Defaulted parameters, as ``function.parameter``, that no call in
    ``modules`` sets by keyword or by position and that ``allowed`` does not
    list; and entries of ``allowed`` that are no such parameter (a stale
    allow-list).  A call is matched to every function of its name; a
    ``*sequence`` sets every position and a ``**mapping`` every keyword."""
    keywords, positions = {}, {}
    for tree in modules:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            positions[name] = max(positions.get(name, 0),
                                  math.inf if starred else len(node.args))
    unset = set()
    for tree in modules:
        for func, param, position in defaulted_parameters(tree):
            passed = keywords.get(func, set())
            if not (param in passed or None in passed
                    or position is not None and positions.get(func, 0) > position):
                unset.add(f"{func}.{param}")
    return sorted(unset - set(allowed)), sorted(set(allowed) - unset)


def _loads(node, name):
    """Whether ``node`` loads ``name``, outside nested functions whose own
    parameters rebind it (their defaults still count: they run outside)."""
    if isinstance(node, ast.Name):
        return node.id == name and isinstance(node.ctx, ast.Load)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) \
            and name in _parameter_names(node.args):
        outside = [*node.args.defaults, *node.args.kw_defaults,
                   *getattr(node, "decorator_list", [])]
        return any(_loads(n, name) for n in outside if n is not None)
    return any(_loads(child, name) for child in ast.iter_child_nodes(node))


def _parameter_names(args):
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return [arg.arg for arg in every if arg is not None]


def _only_raises_not_implemented(func):
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]              # the docstring
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and "NotImplementedError" in ast.unparse(body[0]))


def unread_parameters(modules, allowed):
    """Parameters, as ``scope.parameter``, that their function or lambda
    never loads and that ``allowed`` does not list; and entries of
    ``allowed`` that are no such parameter (a stale allow-list).  The scope
    is the dotted path of classes and functions down to the function; a
    method's ``self`` and a body that only raises ``NotImplementedError``
    are skipped, and a load in a nested function counts as a read."""
    unread = set()

    def visit(node, path, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path + [child.name], True)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, path, False)
                continue
            name = getattr(child, "name", "<lambda>")
            names = _parameter_names(child.args)
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in getattr(child, "decorator_list", []))
            if in_class and not static:
                names = names[1:]
            body = child.body if isinstance(child.body, list) else [child.body]
            if not isinstance(child, ast.Lambda) and _only_raises_not_implemented(child):
                names = []
            unread.update(f"{'.'.join(path + [name])}.{param}" for param in names
                          if not any(_loads(n, param) for n in body))
            visit(child, path + [name], False)

    for tree in modules:
        visit(tree, [], False)
    return sorted(unread - set(allowed)), sorted(set(allowed) - unread)


# the per-order evaluators that ``CircleMap.jet`` replaced
DELETED_EVALUATORS = {"lift", "derivative", "second_derivative",
                      "lift_and_derivative", "value_and_derivative"}


def circle_map_classes(modules):
    """``CircleMap`` and every class in ``modules`` that derives from it,
    directly or through another one, by name."""
    classes = {node.name: node for tree in modules for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}

    def bases(node):
        return {b.id if isinstance(b, ast.Name) else b.attr
                for b in node.bases if isinstance(b, (ast.Name, ast.Attribute))}

    family, size = {"CircleMap"}, 0
    while size != len(family):
        size = len(family)
        family |= {name for name, node in classes.items() if bases(node) & family}
    return {name: classes[name] for name in family if name in classes}


def circle_map_faults(modules):
    """A subclass of ``CircleMap`` that binds no ``jet`` of its own, and a
    ``CircleMap`` class that binds one of the deleted evaluators."""
    faults = []
    for name, node in sorted(circle_map_classes(modules).items()):
        bound, _ = module_bindings(node)
        if name != "CircleMap" and "jet" not in bound:
            faults.append(f"{name} has no jet")
        faults += [f"{name}.{evaluator}" for evaluator in sorted(bound & DELETED_EVALUATORS)]
    return faults


def serialiser_methods(modules):
    """``Class.name`` for each ``to_*`` method that a class in ``modules``
    defines or binds by assignment.  A record's fields are its JSON keys,
    and the CLI writes ``asdict(record)``."""
    found = []
    for cls in (node for tree in modules for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{cls.name}.{name}" for name in names if name.startswith("to_")]
    return sorted(found)


# the packages that start processes on import or use, and the ``os``
# functions that start one
PROCESS_PACKAGES = ("multiprocessing", "concurrent.futures", "subprocess")
OS_PROCESS_STARTS = {"fork", "forkpty", "posix_spawn", "posix_spawnp", "system", "popen",
                     "spawnl", "spawnle", "spawnlp", "spawnlpe", "spawnv", "spawnve",
                     "spawnvp", "spawnvpe"}


def process_starts(modules):
    """``module: what`` for each place in ``modules`` (stem -> tree) that can
    start a process: an ``os`` function that starts one, named as
    ``os.name`` or imported from ``os``, and each import of a package in
    ``PROCESS_PACKAGES`` or of a module inside one."""
    def starts(name):
        return any((name + ".").startswith(pkg + ".") for pkg in PROCESS_PACKAGES)

    found = []
    for stem, tree in modules.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "os" and node.attr in OS_PROCESS_STARTS):
                found.append(f"{stem}: os.{node.attr}")
            elif isinstance(node, ast.Import):
                found += [f"{stem}: import {alias.name}" for alias in node.names
                          if starts(alias.name)]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [alias.name for alias in node.names]
                if (starts(node.module)
                        or any(starts(f"{node.module}.{name}") for name in imported)
                        or (node.module == "os" and OS_PROCESS_STARTS & set(imported))):
                    found.append(f"{stem}: from {node.module} import {', '.join(imported)}")
    return sorted(found)


def uncalled_oracles(conftest, modules):
    """Module-level functions of ``conftest`` whose docstring starts with
    "Oracle" and that no module in ``modules`` calls by name."""
    oracles = {node.name for node in conftest.body
               if isinstance(node, ast.FunctionDef)
               and (ast.get_docstring(node) or "").startswith("Oracle")}
    called = {node.func.id for tree in modules for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    return sorted(oracles - called)


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_imports_read_and_exports_defined(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unread_imports(tree, reexports=path == SRC / "__init__.py") == []
    assert undefined_exports(tree) == []


def test_every_exported_name_is_reached():
    """The package surface is what the commands, the battery or another
    package function use, plus the named allow-list."""
    package = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    modules = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert surface_faults(package, modules, UNREACHED_ALLOWED) == ([], [])
    # without the allow-list, exactly its names are the unreached ones
    assert surface_faults(package, modules, {})[0] == sorted(UNREACHED_ALLOWED)


def test_surface_check_catches_unreached_and_stale_names():
    """Negative control: an exported name reached only inside its own
    function is reported, and so are a stale lazy entry that nothing
    reaches, an allow-list entry that is reached and one that nothing
    defines; an allow-listed unreached name, a name read as an attribute
    and a lazy name read elsewhere are not."""
    package = ast.parse('_EXPORTS = {"step": "flow", "Gone": "flow"}\n')
    module = ast.parse(
        "__all__ = ['run', 'again', 'kept', 'used', 'helper', 'Shape']\n"
        "def run(n):\n"
        "    return Shape.area(n) + step(n)\n"
        "def again(n):\n"
        "    return again(n - 1) if n else 0\n"
        "def kept():\n"
        "    pass\n"
        "def used():\n"
        "    pass\n"
        "def helper():\n"
        "    pass\n"
        "class Shape:\n"
        "    def area(self):\n"
        "        return Shape\n")
    flow = ast.parse("def step(n):\n    return n\n"
                     "def caller(pkg):\n    return used() + pkg.helper() + run(1)\n")
    allowed = {"kept": "control", "used": "reached", "gone": "defined nowhere"}
    assert surface_faults(package, [module, flow], allowed) == (
        ["Gone", "again"], ["gone", "used"])


def test_every_default_is_set_by_the_package():
    """A defaulted parameter is an option some package call uses; a value
    that only tests set is a module constant, unless the allow-list names
    it with a reason."""
    modules = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))]
    assert unset_defaults(modules, UNSET_DEFAULTS_ALLOWED) == ([], [])
    # without the allow-list, exactly its names are the unset ones
    assert unset_defaults(modules, {})[0] == sorted(UNSET_DEFAULTS_ALLOWED)


def test_default_check_catches_unset_and_stale_names():
    """Negative control: a default that no call reaches by keyword or by
    position is reported, a method's and a keyword-only one too, and so are
    an allow-list entry that a call sets and one that nothing defines; a
    default set by keyword, by position, by ``*``/``**`` unpacking or
    through the class's constructor is not, nor is a lambda's."""
    module = ast.parse(
        "def run(n, steps=10, *, log=False, tol=1e-9, seed=0):\n"
        "    return n\n"
        "def used(x, k=1, scale=2.0):\n"
        "    return x\n"
        "class Shape:\n"
        "    def __init__(self, side=1.0):\n"
        "        pass\n"
        "    def area(self, unit='m'):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def make(side=2.0):\n"
        "        pass\n")
    caller = ast.parse(
        "def caller(opts):\n"
        "    run(1, log=True)\n"
        "    used(1, 2, **opts)\n"
        "    Shape(3.0).area()\n"
        "    Shape.make(*opts)\n"
        "    return lambda t, c=0: t\n")
    allowed = {"run.tol": "control", "used.k": "set", "gone.x": "defined nowhere"}
    assert unset_defaults([module, caller], allowed) == (
        ["area.unit", "run.seed", "run.steps"], ["gone.x", "used.k"])


def test_every_parameter_is_read():
    """A parameter is an input its function reads; one kept only for the
    shape of an interface is named in the allow-list with a reason."""
    modules = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))]
    assert unread_parameters(modules, UNREAD_PARAMETERS_ALLOWED) == ([], [])
    # without the allow-list, exactly its names are the unread ones
    assert unread_parameters(modules, {})[0] == sorted(UNREAD_PARAMETERS_ALLOWED)


def test_parameter_check_catches_unread_and_stale_names():
    """Negative control: an unread parameter is reported, a method's,
    ``*args``/``**kwargs``, a nested function's, a lambda's and a static
    method's first one too, and one that only a nested lambda's own
    parameter of the same name loads; so are an allow-list entry that is
    read and one that nothing defines.  A read in a nested function or in a
    nested default (the keyword-only ``log``) counts, a method's ``self`` is
    skipped, and so is a body that only raises ``NotImplementedError``."""
    module = ast.parse(
        "def run(n, steps, *args, log=False, **opts):\n"
        "    def inner(k, unused):\n"
        "        return k + n\n"
        "    shadow = lambda steps: steps\n"
        "    return inner(1, 2), shadow, lambda t, q, c=log: q[c]\n"
        "def kept(x, y):\n"
        "    return x\n"
        "def used(x):\n"
        "    return x\n"
        "class Shape:\n"
        "    def area(self, unit):\n"
        "        return self\n"
        "    def jet(self, s, order=0):\n"
        "        \"\"\"Abstract.\"\"\"\n"
        "        raise NotImplementedError\n"
        "    @staticmethod\n"
        "    def make(side):\n"
        "        return 2.0\n")
    allowed = {"kept.y": "control", "used.x": "read", "gone.x": "defined nowhere"}
    assert unread_parameters([module], allowed) == (
        ["Shape.area.unit", "Shape.make.side", "run.<lambda>.t", "run.args",
         "run.inner.unused", "run.opts", "run.steps"],
        ["gone.x", "used.x"])


def test_every_circle_map_has_one_evaluator():
    """Each circle map states its formulas once, in ``jet``; none brings
    back a per-order evaluator next to it."""
    modules = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))]
    assert sorted(circle_map_classes(modules)) == [
        "AnalyticCircleMap", "Case34SMarginal", "CircleMap", "DoublingMap", "RigidRotation"]
    assert circle_map_faults(modules) == []


def test_circle_map_check_catches_a_second_evaluator():
    """Negative control: a deleted evaluator bound by def or by assignment,
    on the base or on a subclass two levels down or across modules, and a
    subclass without its own ``jet`` are reported; a class outside the
    family is not."""
    module = ast.parse(
        "class CircleMap:\n"
        "    def jet(self, s, order=0):\n        raise NotImplementedError\n"
        "    def value_and_derivative(self, s):\n        pass\n"
        "class Good(CircleMap):\n"
        "    def jet(self, s, order=0):\n        pass\n"
        "class Old(CircleMap):\n"
        "    def lift(self, s):\n        pass\n"
        "class Shared(Good):\n"
        "    derivative = Good.jet\n"
        "class Other:\n"
        "    def lift(self, s):\n        pass\n")
    other = ast.parse(
        "from . import singular\n"
        "class Marginal(singular.CircleMap):\n"
        "    def jet(self, s, order=0):\n        pass\n"
        "    def second_derivative(self, s):\n        pass\n")
    assert circle_map_faults([module, other]) == [
        "CircleMap.value_and_derivative", "Marginal.second_derivative",
        "Old has no jet", "Old.lift", "Shared has no jet", "Shared.derivative"]


def test_no_class_has_a_serialiser():
    """Records reach JSON through ``asdict``, under their own field names."""
    modules = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))]
    assert serialiser_methods(modules) == []


def test_serialiser_check_catches_a_to_method():
    """Negative control: a ``to_*`` method on a dataclass, on a plain class
    and on a nested class, and one bound by assignment, are reported; a
    field named ``to_*``, a module-level ``to_*`` function and other
    methods are not."""
    module = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Record:\n"
        "    to_go: int\n"
        "    def to_dict(self):\n        return {}\n"
        "    def as_array(self):\n        pass\n"
        "class Plain:\n"
        "    def to_rows(self):\n        yield ()\n"
        "    class Inner:\n"
        "        def to_summary(self):\n            pass\n"
        "    to_json = to_rows\n"
        "def to_csv(rows):\n    pass\n")
    assert serialiser_methods([module]) == [
        "Inner.to_summary", "Plain.to_json", "Plain.to_rows", "Record.to_dict"]


def test_hygiene_checks_catch_stale_names():
    """Negative control: an unread import and a stale ``__all__`` entry are
    reported; a read import and a defined entry are not."""
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import math\n"
        "from dataclasses import replace, field\n"
        "__all__ = ['f', 'Gone']\n"
        "def f(x):\n"
        "    from .returnmap import reduce_mod\n"
        "    return field(x)\n")
    assert unread_imports(tree) == ["math", "reduce_mod", "replace"]
    assert unread_imports(tree, reexports=True) == ["reduce_mod"]
    assert undefined_exports(tree) == ["Gone"]


def test_module_graph_is_the_table():
    """No package module imports a sibling that ``MODULE_GRAPH`` does not
    list for it, and each listed import is there: a new edge, such as
    ``singular`` reading ``returnmap`` again, is a visible edit of the
    table.  The package's edges are its imports and the modules of its lazy
    ``_EXPORTS``."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    graph = {stem: sibling_imports(tree, set(trees)) for stem, tree in trees.items()}
    graph["__init__"] |= set(lazy_table(trees["__init__"]).values())
    assert graph == MODULE_GRAPH


def test_module_graph_check_sees_every_import_form():
    """Negative control: module-level, function-level, package and absolute
    imports are each an edge; a third-party import and a name that is no
    sibling are not."""
    tree = ast.parse(
        "import numpy as np\n"
        "from . import __version__, flow\n"
        "from .errors import ValidationError\n"
        "import mayleonard.config\n"
        "def f():\n"
        "    from .returnmap import compile_map\n"
        "    from mayleonard.params import derive_constants\n"
        "    from mayleonard import singular\n"
        "    return compile_map, derive_constants, singular, np\n")
    siblings = {"__init__", "config", "errors", "flow", "params", "returnmap", "singular"}
    assert sibling_imports(tree, siblings) == siblings


def test_lazy_names_are_bound():
    """Every name the package resolves lazily exists in the module its
    ``_EXPORTS`` entry names, so a stale entry fails here and not on its
    first use."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert len(lazy_table(trees["__init__"])) > 0
    assert unbound_lazy_names(trees["__init__"], trees) == []


def test_lazy_name_check_catches_a_stale_name():
    """Negative control: a lazy name its module does not bind, one bound
    only in another module and one whose module is missing are reported; a
    class, a function and an assigned name are not."""
    package = ast.parse('_EXPORTS = {"Kept": "flow", "run": "flow", "TABLE": "flow",\n'
                        '            "Gone": "flow", "step": "flow", "Moved": "gone"}\n')
    flow = ast.parse("class Kept:\n    pass\n"
                     "def run():\n    pass\n"
                     "TABLE = {}\n")
    other = ast.parse("def step():\n    pass\n")
    assert unbound_lazy_names(package, {"flow": flow, "other": other}) == [
        "flow.Gone", "flow.step", "gone.Moved"]


def test_every_conftest_oracle_is_called():
    """An oracle outlives its fast path only while some test compares them."""
    conftest = ast.parse((TESTS / "conftest.py").read_text(encoding="utf-8"))
    modules = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(TESTS.glob("test_*.py"))]
    assert uncalled_oracles(conftest, []) != []       # the check sees the oracles
    assert uncalled_oracles(conftest, modules) == []


def test_oracle_check_catches_an_uncalled_oracle():
    """Negative control: an oracle that a test module imports but never
    calls is reported; a called oracle and a helper that is no oracle are
    not."""
    conftest = ast.parse(
        "def fast_oracle(x):\n"
        "    \"\"\"Oracle for ``fast``.\"\"\"\n"
        "def stale_oracle(x):\n"
        "    \"\"\"Oracle for ``gone``.\"\"\"\n"
        "def helper(x):\n"
        "    \"\"\"Not an oracle.\"\"\"\n")
    module = ast.parse(
        "from conftest import fast_oracle, stale_oracle\n"
        "def test_fast():\n"
        "    assert fast_oracle(1) == fast(1)\n")
    assert uncalled_oracles(conftest, [module]) == ["stale_oracle"]


def test_processes_start_in_one_place():
    """The scan's ``os.fork`` is the one place where the package starts a
    process; no module imports a process pool or ``subprocess``."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    assert process_starts(modules) == ["diagnostics: os.fork"]


def test_process_check_sees_every_form():
    """Negative control: a second ``os.fork``, an ``os`` spawn, each import
    form of a pool or ``subprocess``, and a process function imported from
    ``os`` are reported; other ``os`` names and packages are not."""
    one = ast.parse("import os\n"
                    "import subprocess\n"
                    "import concurrent.futures as cf\n"
                    "def f():\n"
                    "    os.fork(); os.posix_spawn('x', [], {})\n"
                    "    return os.getpid(), os.pipe()\n")
    two = ast.parse("from multiprocessing import Pool\n"
                    "from concurrent import futures\n"
                    "from os import fork, getpid\n"
                    "import os.path, multiprocessing.pool\n"
                    "from subprocessing import run\n"
                    "def g():\n"
                    "    return os.fork()\n")
    assert process_starts({"one": one, "two": two}) == [
        "one: import concurrent.futures", "one: import subprocess", "one: os.fork",
        "one: os.posix_spawn", "two: from concurrent import futures",
        "two: from multiprocessing import Pool", "two: from os import fork, getpid",
        "two: import multiprocessing.pool", "two: os.fork"]
