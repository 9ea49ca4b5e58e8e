"""The package's modules import only from the layers below their own, read
no private name of another module, and hand the work guard no power they
have formed."""

import ast
from pathlib import Path

import latshift

# lowest first; a module may import any module of a lower layer, none of
# its own layer or above
LAYERS = (
    ("errors", "fsum", "reference"),
    ("lattice", "bits"),
    ("functions",),
    ("shifts",),
    ("moments", "cbc", "dual"),
    ("cli",),
)
LAYER_OF = {name: k for k, names in enumerate(LAYERS) for name in names}
PACKAGE = Path(latshift.__file__).parent


def package_imports(path: Path) -> set[str]:
    """The package modules that the module at path imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                # from . import name: a module, or a name of the package itself
                found.update(alias.name for alias in node.names if alias.name in LAYER_OF)
            elif (node.module or "").startswith("latshift."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("latshift."))
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER_OF)


def test_modules_import_only_lower_layers():
    wrong = {
        (name, imported)
        for name in LAYER_OF
        for imported in package_imports(PACKAGE / f"{name}.py")
        if LAYER_OF[imported] >= LAYER_OF[name]
    }
    assert wrong == set()


def test_cli_imports_no_private_name():
    # the command line reaches the library only through public names
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    private = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private == set()


def test_no_module_reads_a_private_fsum_name():
    # the certified sum is reached through its public entries only, so the
    # layout of its passes is decided in fsum alone
    private = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "fsum":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "fsum":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "fsum":
                names = [node.attr]
            private |= {(path.name, name) for name in names if name.startswith("_")}
    assert private == set()


def test_no_module_reads_another_modules_private_name():
    # a module reaches the others through their public names only, so what
    # is private to a module (the layout of the certified sum's passes, a
    # block evaluator's buffers) is decided in that module alone; dunders
    # such as __version__ are public
    private = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.ImportFrom) and node.module and (node.level or node.module.startswith("latshift.")):
                names = [(node.module.split(".")[-1], alias.name) for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in LAYER_OF:
                names = [(node.value.id, node.attr)]
            private |= {
                (path.stem, module, name)
                for module, name in names
                if module != path.stem and name.startswith("_") and not name.startswith("__")
            }
    assert private == set()


def test_no_guard_count_is_a_formed_power():
    # a power of a count goes to the guard as its exponent, so that no
    # refusal first builds the number it refuses
    calls, formed = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if getattr(func, "id", None) != "guard" and getattr(func, "attr", None) != "guard":
                continue
            calls += 1
            counts = node.args[:1] + [k.value for k in node.keywords if k.arg == "count"]
            formed += [
                (path.name, node.lineno)
                for count in counts
                for sub in ast.walk(count)
                if isinstance(sub, ast.BinOp) and isinstance(sub.op, (ast.LShift, ast.Pow))
            ]
    assert calls >= 15
    assert formed == []
