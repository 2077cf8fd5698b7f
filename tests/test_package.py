"""Package-wide rules: every public name in ``src/govtree`` has a caller
and every import a reader, every lazy tree is a slotted state that steps
itself, every ``NamedTuple`` record is equal only to records of its own
type, and ``program.compile_ast`` is the one builder of a ``CapMorphism``."""

import ast
import importlib
import tokenize
from pathlib import Path

import pytest

from govtree.directives import SIGNATURE, Answer
from govtree.itree import ITree

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "govtree"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))

# Public names whose only callers are tests, each with the reason it stays.
KEEP = {
    "itree.bind": "the functor check of ROADMAP item 22 and the oracle side of the "
                  "bind-law tests",
    "itree.eutt_bounded": "the oracle of the bind-law tests",
    "itree.tau": "a tree constructor, beside ret and vis",
    "algebra.ASSOCIATOR_INV": "a structural inverse the monoidal-law tests check",
    "algebra.LEFT_UNITOR_INV": "a structural inverse the monoidal-law tests check",
    "algebra.RIGHT_UNITOR_INV": "a structural inverse the monoidal-law tests check",
    "algebra.interp_tensor_distribute_check": "a monoidal law in tests/test_category.py",
    "capability.allowed_cap_set": "pending the capability campaign (ROADMAP item 9)",
    "capability.dual_guarantee_check": "pending the capability campaign (ROADMAP item 9)",
    "program.state_key": "the machine-state key that tables of check results will read "
                         "(ROADMAP items 5 and 11)",
}


def _top_level_definitions(tree):
    """Name, public or private -> line span of the statement that defines it."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        for name in names:
            spans[name] = range(start, node.end_lineno + 1)
    return spans


def _name_tokens(path):
    """(name, line) for every identifier in code; strings and comments
    are not references."""
    with tokenize.open(path) as f:
        return [(tok.string, tok.start[0]) for tok in tokenize.generate_tokens(f.readline)
                if tok.type == tokenize.NAME]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_has_a_caller_outside_tests(module):
    # A use is a root when it is in another file under src/govtree,
    # perfbench or scripts, in the acceptance criteria's imports, or in the
    # module's own code outside any definition. A use inside one of the
    # module's own definitions counts only once that definition is reached
    # from a root, so definitions that only call each other are uncalled.
    source = PACKAGE / f"{module}.py"
    spans = _top_level_definitions(ast.parse(source.read_text(encoding="utf-8")))
    owners = {}  # line -> the names whose definition holds it
    for name, span in spans.items():
        for line in span:
            owners.setdefault(line, []).append(name)
    roots, uses = set(), {name: set() for name in spans}
    for directory in ("src/govtree", "perfbench", "scripts"):
        for path in (ROOT / directory).glob("*.py"):
            if path == PACKAGE / "__init__.py":  # a re-export is not a caller
                continue
            for name, line in _name_tokens(path):
                if path != source or line not in owners:
                    roots.add(name)
                else:
                    for owner in owners[line]:
                        uses[owner].add(name)
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    roots |= {
        alias.name for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom) and node.module == f"govtree.{module}"
        for alias in node.names
    }
    reached, pending = set(), sorted(roots & set(spans))
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending += uses[name] & set(spans)
    assert {key.partition(".")[0] for key in KEEP} <= set(MODULES)
    kept = {key.partition(".")[2] for key in KEEP if key.partition(".")[0] == module}
    uncalled = {name for name in spans if not name.startswith("_")} - reached
    assert sorted(kept - uncalled) == []  # each kept name exists and still lacks a caller
    assert sorted(uncalled - kept) == []


# Tree nodes and governed events are built with ``tuple.__new__`` (or a
# helper such as ``itree.ret`` that does so): calling the class runs the
# NamedTuple's Python-level ``__new__`` on every node.
FAST_BUILT = {"Ret", "Tau", "Vis", "Gov", "Io"}


@pytest.mark.parametrize("module", MODULES)
def test_nodes_and_governed_events_have_one_spelling(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    called = (
        (node.lineno, getattr(node.func, "id", getattr(node.func, "attr", None)))
        for node in ast.walk(tree) if isinstance(node, ast.Call)
    )
    slow = [f"line {line}: {name}(...)" for line, name in called if name in FAST_BUILT]
    assert slow == []


def test_no_two_classes_declare_the_same_fields():
    # One record per shape: two classes with one ordered list of annotated
    # fields (name and annotation) are one type under two names.
    by_fields = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                declared = tuple(
                    (item.target.id, ast.unparse(item.annotation)) for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                )
                if declared:
                    by_fields.setdefault(declared, []).append(f"{path.stem}.{node.name}")
    assert [names for names in by_fields.values() if len(names) > 1] == []


# Program files compile to the one machine, so program.py names no
# cap_* constructor beside compile_ast.


def test_program_files_compile_only_to_the_machine():
    tree = ast.parse((PACKAGE / "program.py").read_text(encoding="utf-8"))
    imported = {}  # local name -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                module = node.module or alias.name
                imported[alias.asname or alias.name] = (module, alias.name)

    def foreign(module, name):
        return module == "capability" and name.startswith("cap_")

    named = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in imported:
            target = imported[node.id]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            target = (imported.get(node.value.id, (None, node.value.id))[1], node.attr)
        else:
            continue
        if foreign(*target):
            named.append(f"line {node.lineno}: {'.'.join(target)}")
    named += [f"import {module}.{name}" for module, name in imported.values()
              if foreign(module, name)]
    assert named == []


def test_every_unforced_tree_is_a_slotted_state_with_its_own_step():
    # One laziness idiom: a tree keeps its state in slots and builds its
    # node in its own ``step``. A class without ``__slots__`` would give
    # every node a ``__dict__``; the base ``step`` only returns ``_node``.
    for module in MODULES:
        importlib.import_module(f"govtree.{module}")
    assert ITree.__slots__ == ("_node",)
    classes, pending = [], [ITree]
    while pending:
        subclasses = pending.pop().__subclasses__()
        classes += [c for c in subclasses if c.__module__.startswith("govtree.")]
        pending += subclasses
    assert classes
    lacking = [f"{c.__module__}.{c.__qualname__}" for c in classes
               if "__slots__" not in vars(c) or "step" not in vars(c)
               or hasattr(object.__new__(c), "__dict__")]
    assert lacking == []


def test_every_record_is_an_own_type_named_tuple():
    # One record idiom: a NamedTuple defined in the package is unequal to
    # the plain tuple of its fields, either way round (``itree.own_type_eq``),
    # and the directives of the signature and their answer are such records.
    records = []
    for module in MODULES:
        m = importlib.import_module(f"govtree.{module}")
        records += [c for c in vars(m).values() if isinstance(c, type) and issubclass(c, tuple)
                    and hasattr(c, "_fields") and c.__module__ == m.__name__]
    plain_equal = []
    for c in records:
        fields = tuple(range(len(c._fields)))
        record = tuple.__new__(c, fields)
        if record == fields or fields == record or not record != fields or record != record:
            plain_equal.append(f"{c.__module__}.{c.__qualname__}")
    assert len(records) > len(SIGNATURE) and plain_equal == []
    assert [t.__name__ for t in (*SIGNATURE, Answer) if t not in records] == []


def _builds_cap_morphism(call):
    """The call names ``CapMorphism`` as its callee, the callee's owner or
    its first argument: ``CapMorphism(...)``, ``CapMorphism._make(...)``,
    ``_new(CapMorphism, ...)``, ``tuple.__new__(CapMorphism, ...)``."""
    func = call.func
    named = [func, func.value] if isinstance(func, ast.Attribute) else [func]
    named += call.args[:1]
    return any(isinstance(n, ast.Name) and n.id == "CapMorphism" for n in named)


def test_a_cap_morphism_is_built_only_by_compile_ast():
    # The bound is stated once: compile_ast reads its directives'
    # capabilities from SIGNATURE, and no other code pairs a morphism with a bound.
    inside, outside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        builder = {id(node) for top in tree.body
                   if path.stem == "program" and isinstance(top, ast.FunctionDef)
                   and top.name == "compile_ast" for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _builds_cap_morphism(node):
                (inside if id(node) in builder else outside).append(
                    f"{path.stem} line {node.lineno}")
    assert inside and outside == []


def _names_read(tree, annotations=False):
    """Every name ``tree`` reads; with ``annotations``, also the names in
    its string constants, each parsed as an expression."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif annotations and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from _names_read(ast.parse(node.value, mode="eval"), annotations)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    # No linter runs here, so this is the unused-import rule: a name a
    # module imports is read in its code or in a string annotation. The
    # package's re-exports (its ``__all__``) and ``__future__`` are exempt.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = set(_names_read(tree))
    for annotation in filter(None, _annotations(tree)):
        read.update(_names_read(annotation, annotations=True))
    exported = {
        item.value for node in tree.body if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for item in node.value.elts
    }
    unread = sorted(f"line {line}: {name}" for name, line in imported.items()
                    if name not in read | exported)
    assert unread == []
