"""Static checks on the package source, made with the stdlib ast module.

An import the module never reads fails unless a string constant in bench/
names it, as a binding kept only for the benchmark to patch; a
`# noqa: F401` alone does not excuse it.  A module-level private function
or class that nothing in its module references fails; so does importing a
private name from another module; so does any module but core.py reading
ALIGN_TOL, the tolerance of core.lattice_index, the one home of the
lattice-alignment rule; so does kernels.py, solver.py or harness.py
calling round, floor, ceil or rint, since only core rounds onto the march
lattice (oracle.py keeps a leapfrog grid of its own); so does oracle.py
importing from solver or harness, the code it exists to check; so does
solver.py or oracle.py calling np.max, min, all, any or sum, where every
reduction runs per level, per block or per step: the function form passes
through numpy's Python wrapper (fromnumeric._wrapreduction), about 1 us a
call on top of the reduction itself under numpy 2.4.6, and a.max() runs the
same ufunc reduce without it.

A public definition has a user: every public top-level function or class
is named by an identifier somewhere in src/ or bench/, by a string constant
in bench/ (the names the benchmark patches), or by __all__; every public
method of a class not in wavelifespan.__all__ is read as an attribute
(obj.method) in src/ or bench/ or named by a string constant in bench/, so a
local variable of the same name does not count.  So src/ holds only what
the CLI, the library API and the benchmark run; a reference that only the
tests call belongs under tests/.

Every flag that a CLI subcommand of harness._build_parser accepts is read
as args.<dest> in that command's `if args.command == ...` branch of
run_cli, so no command takes an option it ignores.

A function or method with a GridSpec-annotated parameter takes no parameter
named T, t_max, n_t, n_x, n_last or h: the grid fixes its step, horizon and
shape, so a pass reads them from it.

No module but kernels.py reads a .plus, .minus, .off or .c attribute, the
state of a CharAccumulator: every pass steps its sums through the
accumulator's own methods, so the stepping code lives in kernels alone.
The CLI's flags, read off its args namespace (args.c of `bounds`), are not
that state.

No module imports numpy.lib.stride_tricks or reads it as an attribute: its
raw strided windows have no bounds check, so a wrong window reads past its
array instead of raising.
"""

import argparse
import ast
from pathlib import Path

import pytest

import wavelifespan

MODULES = sorted(Path(wavelifespan.__file__).parent.glob("*.py"))
BENCH = sorted((Path(wavelifespan.__file__).resolve().parents[2] / "bench").glob("*.py"))


def names_read(tree: ast.Module) -> set:
    """Bare names the module reads, plus the names it lists in __all__."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(source: str, patched: set) -> list:
    """Bindings of imports that the module never reads and no name in patched names."""
    tree = ast.parse(source)
    read = names_read(tree) | patched
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        out += [f"line {node.lineno}: {name}" for name in bound if name not in read]
    return out


def unreferenced_private_defs(source: str) -> list:
    tree = ast.parse(source)
    read = names_read(tree)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"line {node.lineno}: {node.name}"
        for node in tree.body
        if isinstance(node, defs)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in read
    ]


def public_defs(source: str, exported: set) -> list:
    """(line, qualified name, name) of each public top-level function and class,
    and of each public method of a top-level class not in exported."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, defs):
            continue
        if not node.name.startswith("_"):
            out.append((node.lineno, node.name, node.name))
        if isinstance(node, ast.ClassDef) and node.name not in exported:
            out += [
                (item.lineno, f"{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, defs) and not item.name.startswith("_")
            ]
    return out


def identifiers(source: str) -> set:
    """Names the source reads: a bare name as name, an attribute as .name."""
    tree = ast.parse(source)
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        "." + node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def string_constants(source: str) -> set:
    """The string constants of the source, each both as name and as .name."""
    strings = {
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    return strings | {"." + s for s in strings}


def unused_public_defs(source: str, used: set, exported: set) -> list:
    """Public definitions without a use: a top-level one whose name is in
    neither used (bare or as .name) nor exported, a method whose .name is
    not in used."""
    out = []
    for line, qualname, name in public_defs(source, exported):
        uses = {"." + name} if "." in qualname else {name, "." + name}
        if not uses & used and name not in exported:
            out.append(f"line {line}: {qualname}")
    return out


def bench_strings() -> set:
    """The string constants of bench/, among them the names it patches."""
    return set().union(*(string_constants(path.read_text()) for path in BENCH))


def names_in_use() -> set:
    """Identifiers of src/ and bench/, and the string constants of bench/."""
    used = bench_strings()
    for path in MODULES + BENCH:
        used |= identifiers(path.read_text())
    return used


ROUNDING = {"rint", "round", "floor", "ceil"}


def lattice_rounding_calls(source: str) -> list:
    """Lines that call round, or rint, round, floor or ceil of np, numpy or math."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Name) and func.id == "round"
            or isinstance(func, ast.Attribute)
            and func.attr in ROUNDING
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy", "math")
        ):
            lines.add(node.lineno)
    return sorted(lines)


REDUCTIONS = {"max", "min", "all", "any", "sum"}


def function_form_reductions(source: str) -> list:
    """Lines that call max, min, all, any or sum of np or numpy."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in REDUCTIONS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        }
    )


def private_imports(source: str) -> list:
    """Names with one leading underscore that a from-import binds."""
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


def align_tol_reads(source: str) -> list:
    """Lines that import ALIGN_TOL or read it as a name or an attribute."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.ImportFrom) and any(a.name == "ALIGN_TOL" for a in node.names)
            or isinstance(node, ast.Name) and node.id == "ALIGN_TOL"
            or isinstance(node, ast.Attribute) and node.attr == "ALIGN_TOL"
        ):
            lines.add(node.lineno)
    return sorted(lines)


def checked_code_imports(source: str) -> list:
    """Lines that import solver or harness, or a name from either."""
    checked = {"solver", "harness"}
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any(checked & set(module.split(".")) for module in modules):
            lines.add(node.lineno)
    return sorted(lines)


GRID_FIXED = {"T", "t_max", "n_t", "n_x", "n_last", "h"}


def grid_fixed_params(source: str) -> list:
    """'line N: name(param)' for each parameter named in GRID_FIXED of a
    function or method that also takes a GridSpec-annotated parameter."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a]
        if any(a.annotation and "GridSpec" in ast.unparse(a.annotation) for a in params):
            fixed = [a.arg for a in params if a.arg in GRID_FIXED]
            out += [f"line {node.lineno}: {node.name}({name})" for name in fixed]
    return out


ACCUMULATOR_STATE = {"plus", "minus", "off", "c"}


def accumulator_state_reads(source: str) -> list:
    """Lines that read a .plus, .minus, .off or .c attribute of anything but args."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and node.attr in ACCUMULATOR_STATE
            and not (isinstance(node.value, ast.Name) and node.value.id == "args")
        }
    )


def strided_window_imports(source: str) -> list:
    """Lines that import numpy.lib.stride_tricks or a name from it, or read it
    as an attribute."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            modules = [node.attr] if isinstance(node, ast.Attribute) else []
        if any("stride_tricks" in module.split(".") for module in modules):
            lines.add(node.lineno)
    return sorted(lines)


def unread_flags(parser: argparse.ArgumentParser, source: str) -> list:
    """'command --flag' for each flag that the command's `if args.command == ...`
    branch of source never reads as args.<dest>."""
    read = {}
    for node in ast.walk(ast.parse(source)):
        test = node.test if isinstance(node, ast.If) else None
        if (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Attribute)
            and test.left.attr == "command"
            and isinstance(test.comparators[0], ast.Constant)
        ):
            read[test.comparators[0].value] = {
                n.attr
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args"
            }
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        f"{name} {action.option_strings[0]}"
        for name, command in sub.choices.items()
        for action in command._actions
        if action.dest != "help" and action.dest not in read.get(name, set())
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert BENCH, "the benchmark sources were not found next to src/"
    assert unused_imports(path.read_text(), bench_strings()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_definition_is_referenced(path):
    assert unreferenced_private_defs(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_definition_has_a_user(path):
    assert BENCH, "the benchmark sources were not found next to src/"
    exported = set(wavelifespan.__all__)
    assert unused_public_defs(path.read_text(), names_in_use(), exported) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported(path):
    assert private_imports(path.read_text()) == []


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "core.py"], ids=lambda p: p.name)
def test_only_core_reads_the_lattice_tolerance(path):
    assert align_tol_reads(path.read_text()) == []


@pytest.mark.parametrize("name", ["kernels.py", "solver.py", "harness.py"])
def test_only_core_rounds_onto_the_lattice(name):
    path = next(m for m in MODULES if m.name == name)
    assert lattice_rounding_calls(path.read_text()) == []


@pytest.mark.parametrize("name", ["solver.py", "oracle.py"])
def test_per_level_reductions_are_array_methods(name):
    path = next(m for m in MODULES if m.name == name)
    assert function_form_reductions(path.read_text()) == []


def test_every_cli_flag_is_read_by_its_command():
    harness = next(m for m in MODULES if m.name == "harness.py")
    assert unread_flags(wavelifespan.harness._build_parser(), harness.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_pass_takes_what_its_grid_fixes(path):
    assert grid_fixed_params(path.read_text()) == []


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "kernels.py"], ids=lambda p: p.name)
def test_only_kernels_reads_the_accumulator_state(path):
    assert accumulator_state_reads(path.read_text()) == []


def test_oracle_imports_nothing_it_checks():
    oracle = next(m for m in MODULES if m.name == "oracle.py")
    assert checked_code_imports(oracle.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_takes_raw_strided_windows(path):
    assert strided_window_imports(path.read_text()) == []


def test_checks_flag_what_they_should():
    source = (
        "from typing import Optional, Sequence\n"
        "import numpy as np  # noqa: F401\n"
        "import os.path\n"
        "def _dead(): pass\n"
        "def _live(x: Optional[int]): return os.path\n"
        "_live(None)\n"
        "from .solver import _level_blocks, __doc__, march  # noqa: F401\n"
        "from .core import ALIGN_TOL\n"
        "tol = ALIGN_TOL\n"
        "tol = core.ALIGN_TOL\n"
        "from . import harness, kernels  # noqa: F401\n"
        "import wavelifespan.solver  # noqa: F401\n"
        "from .kernels import weight_w  # noqa: F401\n"
        "class Kept:\n"
        "    def shown(self): pass\n"
        "class Hidden:\n"
        "    def called(self): pass\n"
        "    def orphan(self): pass\n"
        "    def _private(self): pass\n"
        "def exported(): pass\n"
        "def patched(): pass\n"
        "def orphan_fn(): pass\n"
        "class Shadowed:\n"
        "    def u(self): pass\n"
        "i = round(x / h) + np.rint(y) + math.floor(z) + numpy.ceil(w)\n"
        "j = np.round(x) + abs(x) + np.floor_divide(x, h)\n"
        "k = np.max(x) + numpy.any(y, axis=0) + x.max() + max(x, y) + np.maximum(x, y) + np.abs(x)\n"
        "acc.plus[lo:hi] += acc.c * G\n"
        "off, plus = acc.off, acc.minus.copy()\n"
        "v = plus + minus + acc.plus_minus + c + args.c\n"
        "from numpy.lib.stride_tricks import sliding_window_view as swv; v = swv(x, 3)\n"
        "from numpy.lib import stride_tricks; v = stride_tricks.as_strided(x)\n"
        "import numpy.lib.stride_tricks\n"
        "v = np.lib.stride_tricks.as_strided(x)\n"
        "v = np.lib.scimath.sqrt(x) + x.strides\n"
    )
    patched = string_constants(
        "['_level_blocks', '__doc__', 'march', 'harness', 'kernels', 'wavelifespan']"
    )
    # weight_w carries a noqa, but no string of the benchmark names it
    assert unused_imports(source, patched) == ["line 1: Sequence", "line 13: weight_w"]
    assert unreferenced_private_defs(source) == ["line 4: _dead"]
    assert private_imports(source) == ["line 7: _level_blocks"]
    assert align_tol_reads(source) == [8, 9, 10]
    assert checked_code_imports(source) == [7, 11, 12]
    used = identifiers("Hidden().called()\nu = Shadowed()\nu()\n") | string_constants(
        "patch(owner, 'patched')\n"
    )
    assert unused_public_defs(source, used, {"Kept", "exported"}) == [
        "line 18: Hidden.orphan",
        "line 22: orphan_fn",
        "line 24: Shadowed.u",
    ]
    assert lattice_rounding_calls(source) == [25, 26]
    assert function_form_reductions(source) == [27]
    assert accumulator_state_reads(source) == [28, 29]
    assert strided_window_imports(source) == [31, 32, 33, 34]
    grids = (
        "def horizon(params, grid: GridSpec, T: float): pass\n"
        "def shaped(grid: Optional[GridSpec], *, n_x, j_max): pass\n"
        "class Acc:\n"
        "    def __init__(self, grid: 'GridSpec', h): pass\n"
        "def gridless(grid, h, n_t): pass\n"
        "def stepped(grid: GridSpec, n: int, t): pass\n"
    )
    assert grid_fixed_params(grids) == [
        "line 1: horizon(T)",
        "line 2: shaped(n_x)",
        "line 4: __init__(h)",
    ]
    core = next(m for m in MODULES if m.name == "core.py")
    assert align_tol_reads(core.read_text()) != []
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    for name in ("used", "ignored", "absent"):
        sub.add_parser(name).add_argument("--R-max", type=float)
    cli = (
        "if args.command == 'used':\n    print(args.R_max)\n"
        "if args.command == 'ignored':\n    print(args.command)\nelse:\n    print(args.R_max)\n"
    )
    assert unread_flags(parser, cli) == ["ignored --R-max", "absent --R-max"]
