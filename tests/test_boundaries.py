"""Structural lints of the tdks sources.

Each tdks module uses another only through its public names: no module imports an
underscore name from another, apart from the few shared helpers listed here.  A
stored solve carries its context: no function takes a context next to a trajectory.
And a trajectory's times come from that context, so only the solve builds one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tdks"

# private helpers that two modules share on purpose, as "module.name"; the _kernels
# module itself is imported by name
SHARED_PRIVATE = {"domain._as_state", "system._bounded_apply"}
SHARED_MODULES = {"_kernels"}


def private_imports(path):
    """Every ``module.name`` that the source file at path imports from another tdks
    module and whose name starts with an underscore."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module
        elif node.module is not None and node.module.startswith("tdks"):
            module = node.module.removeprefix("tdks").lstrip(".") or None
        else:
            continue
        for alias in node.names:
            if module is None:  # from . import name: name is a module of the package
                if alias.name.startswith("_") and alias.name not in SHARED_MODULES:
                    found.append(alias.name)
            elif alias.name.startswith("_") and f"{module}.{alias.name}" not in SHARED_PRIVATE:
                found.append(f"{module}.{alias.name}")
    return found


def test_no_module_imports_a_private_name_of_another():
    offenders = {p.name: private_imports(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in offenders.items() if names} == {}


def test_the_lint_sees_every_form_of_a_private_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from . import _kernels, _hidden\n"
        "from .domain import _as_state, _secret\n"
        "from tdks.propagate import _kinetic_phase, step\n"
        "from numpy import _private\n"
        "def f():\n"
        "    from .system import _bounded_apply, _other\n"
    )
    assert sorted(private_imports(source)) == [
        "_hidden",
        "domain._secret",
        "propagate._kinetic_phase",
        "system._other",
    ]


# a trajectory's ctx is the context of its solve, so a reader that also takes a
# context could pair the trajectory with another one
CONTEXT = "ctx"
TRAJECTORIES = {"traj", "base", "forward_traj"}


def context_with_trajectory(path):
    """The name of every function (or lambda) in the source file at path that has a
    ``ctx`` parameter together with a trajectory parameter, in source order."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        names = {p.arg for p in params}
        if CONTEXT in names and names & TRAJECTORIES:
            found.append((node.lineno, getattr(node, "name", "<lambda>")))
    return [name for _, name in sorted(found)]


def test_no_function_takes_a_context_next_to_a_trajectory():
    offenders = {p.name: context_with_trajectory(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in offenders.items() if names} == {}


def test_the_lint_sees_every_function_that_pairs_a_context_with_a_trajectory(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "def reader(ctx, traj): pass\n"
        "def gronwall(ctx, base, eps, seed=0): pass\n"
        "def gradient(spec, ctx, u, psi0, forward_traj=None): pass\n"
        "class T:\n"
        "    def export(self, path, *, ctx, traj=None): pass\n"
        "async def later(traj, **ctx): pass\n"
        "check = lambda ctx, /, traj: None\n"
        "def alone(traj): pass\n"
        "def solve(ctx, psi0): pass\n"
        "def outer(spec, traj):\n"
        "    def inner(ctx, d): pass\n"
    )
    assert context_with_trajectory(source) == [
        "reader", "gronwall", "gradient", "export", "later", "<lambda>"
    ]


# the solve that steps on a context's time grid is the one builder of its trajectory
BUILDERS = {"propagate": ["_solve"]}


def trajectory_builders(path):
    """The scope of every ``Trajectory(...)`` call in the source file at path, in
    source order: the dotted names of its enclosing classes and functions, or
    ``<module>`` at the top level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Trajectory":
                    found.append((child.lineno, scope or "<module>"))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return [scope for _, scope in sorted(found)]


def test_only_the_solve_builds_a_trajectory():
    builders = {p.stem: trajectory_builders(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: scopes for name, scopes in builders.items() if scopes} == BUILDERS


def test_the_lint_sees_every_place_that_builds_a_trajectory(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import tdks\n"
        "from .propagate import Trajectory\n"
        "def _solve(ctx, states):\n"
        "    return [Trajectory(states=s, ctx=ctx) for s in states]\n"
        "class Reader:\n"
        "    def rebuild(self, traj):\n"
        "        return tdks.Trajectory(states=traj.states, ctx=traj.ctx)\n"
        "def outer():\n"
        "    async def inner(): return propagate.Trajectory()\n"
        "copy = Trajectory(states=None)\n"
        "def unrelated(traj): return Trajectories(), trajectory(), traj.Trajectory\n"
    )
    assert trajectory_builders(source) == ["_solve", "Reader.rebuild", "outer.inner", "<module>"]
