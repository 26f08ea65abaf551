"""Every definition in src has a reader in src, or a stated reason to exist without one.

A top-level function or class counts as read where src loads its name, as a
bare name or as an attribute; a method counts as read where src reads an
attribute of its name.  A method whose name two or more classes define counts
as read only where the receiver of that read resolves to its own class: the
class itself (`Class.method`), the first parameter of one of the class's
methods (`self.method`), or a value that the annotations in src type as the
class: a parameter annotated with it, a local or loop variable bound to the
class's constructor or to a call whose return annotation names it (or a list
of it), and an attribute that a property, a class annotation or an assignment
in a method of its class types.  Reads inside the definition's own body
(recursion) do not count, and neither do docstrings or imports.  Dunders are
protocol hooks that the interpreter reads, so they are left out.
"""

import ast
from collections import Counter
from functools import cache
from pathlib import Path

import dualpair

SRC = Path(dualpair.__file__).resolve().parent
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: definitions with no src reader, each with the reason it stays
UNREAD = {
    "weil_pairing": "the paper's Weil pairing e_n, the object the lifted pairing generalizes",
    "miller_eval": "the paper's Miller function f_P at a point, the direct route's reference",
    "h_eval": "the paper's cocycle value h_{i,j}, one line ratio of Miller's recursion",
    "incremental_chain": "the paper's naive chain 1, 2, ..., n, the chain the definition unrolls",
    "semaev_log_derivative": "Semaev's map lam(P) = (f_P'/f_P)(R) itself, not its R-free multiple",
    "compute_m": "the paper's m with phi*(dx/y) = m*dx/y, the scalar in functoriality",
    "find_cyclic_isogeny": "public isogeny API, the isogeny workload's entry",
    "frobenius_isogeny": "public isogeny API, the p-power map as an Isogeny",
    "identity_isogeny": "public isogeny API, Kohel's map with D = 1, the unit of Isogeny.compose",
    "Isogeny.kernel_polynomial": "public isogeny API, the polynomial that names an isogeny",
    "Isogeny.compose": "public isogeny API, the composition under which the paper's m is multiplicative",
    "Isogeny.to_json": "public JSON form of an isogeny, the value scripts/bench_layers compares",
    "Polynomial.factor": "spanned by the benchmark's tracer (perfbench/tracing.py) as poly.factor",
    "DualCurve.mul": "the public group law on a lift (README); the lift attack walks the checked _mul_raw",
    "DualCurve.to_json": "public JSON form of a lift, the round trip of DualCurve.from_json",
    "DualCurve.from_json": "public JSON form of a lift, the round trip of DualCurve.to_json",
    "DualPoint.to_json": "public JSON form of a lifted point, the value scripts/bench_layers compares",
    "DualPoint.from_json": "public JSON form of a lifted point, the round trip of DualPoint.to_json",
    "Point.to_json": "public JSON form of a point, the round trip of Point.from_json that the CLI parses",
    "PairingValue.from_json": "public JSON form of a pairing value, the round trip of the pair command's output",
    "PairingValue.inverse": "the inverse in the paper's value group of e_p, next to its product and quotient",
    "_Parser.error": "argparse calls it on a usage error",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, is a method, node) for each top-level function and class and each method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not _is_dunder(node.name):
            yield node.name, False, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds[:2]) and not _is_dunder(item.name):
                    yield f"{node.name}.{item.name}", True, item


class _Types:
    """The classes that src's annotations give to expressions: "C", or "[C]" for a list of C."""

    def __init__(self, trees):
        self.classes = {n.name: n for tree in trees for n in tree.body if isinstance(n, ast.ClassDef)}
        self.members = {}  # (class or None for a module function, name) -> the type of its value or result
        for tree in trees:
            for node in tree.body:
                if isinstance(node, FUNCS):
                    self.members[None, node.name] = self.annotated(node.returns)
        for name, cls in self.classes.items():
            for item in cls.body:
                if isinstance(item, FUNCS):
                    self.members[name, item.name] = self.annotated(item.returns)
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    self.members[name, item.target.id] = self.annotated(item.annotation)
        for name, cls in self.classes.items():  # attributes that a method assigns a typed value
            for item in cls.body:
                if isinstance(item, FUNCS):
                    env = self.environment(item, name)
                    for node in ast.walk(item):
                        for target in node.targets if isinstance(node, ast.Assign) else ():
                            if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                                    and env.get(target.value.id) == name):
                                t = self.of(node.value, env)
                                if t:
                                    self.members.setdefault((name, target.attr), t)

    def annotated(self, ann):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            ann = ast.parse(ann.value, mode="eval").body
        if isinstance(ann, ast.BinOp) and isinstance(ann.right, ast.Constant) and ann.right.value is None:
            ann = ann.left  # C | None
        if isinstance(ann, ast.Name) and ann.id in self.classes:
            return ann.id
        if isinstance(ann, ast.Subscript) and isinstance(ann.value, ast.Name) and ann.value.id == "list":
            inner = self.annotated(ann.slice)
            return inner and f"[{inner}]"
        return None

    def of(self, node, env):
        """The type of an expression under a function's environment, or None."""
        if isinstance(node, ast.Name):
            return env.get(node.id, node.id if node.id in self.classes else None)
        if isinstance(node, ast.Attribute):
            return self.members.get((self.of(node.value, env), node.attr))
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                return f.id if f.id in self.classes else self.members.get((None, f.id))
            if isinstance(f, ast.Attribute):
                return self.members.get((self.of(f.value, env), f.attr))
        if isinstance(node, ast.Subscript):
            return self.element(self.of(node.value, env))
        return None

    @staticmethod
    def element(t):
        return t[1:-1] if t and t.startswith("[") else None

    def environment(self, fn, cls) -> dict:
        """Name -> type inside a function: `self`, annotated parameters, typed locals and loop variables."""
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
        env = {args[0].arg: cls} if cls and args and not static else {}
        env.update({a.arg: self.annotated(a.annotation) for a in args if self.annotated(a.annotation)})
        for _ in range(2):  # a second pass types the locals built from typed locals
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, t = node.targets[0], self.of(node.value, env)
                elif isinstance(node, (ast.For, ast.comprehension)):
                    target, t = node.target, self.element(self.of(node.iter, env))
                else:
                    continue
                if isinstance(target, ast.Name) and t:
                    env[target.id] = t
        return env


def _loads(tree: ast.Module, types: _Types):
    """(name, receiver's class or None for a bare name, line) for each name and attribute that the module reads;
    an attribute's receiver is "" where its type is unknown."""
    scopes = [(node, None) for node in tree.body if isinstance(node, FUNCS)]
    scopes += [(item, node.name) for node in tree.body if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, FUNCS)]
    seen = set()
    for fn, cls in scopes:
        env = types.environment(fn, cls)
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                seen.add(id(node))
                yield node.attr, types.of(node.value, env) or "", node.lineno
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, None, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in seen:
            yield node.attr, "", node.lineno


@cache  # both tests read the one count
def readers(src: Path) -> dict:
    """Qualified name -> the number of src reads outside its own body, for every definition."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    types = _Types(trees.values())
    methods = Counter(qualname.rpartition(".")[2] for tree in trees.values()
                      for qualname, method, _ in _definitions(tree) if method)
    loads = [(name, receiver, path, line) for path, tree in trees.items() for name, receiver, line in _loads(tree, types)]
    counts = {}
    for path, tree in trees.items():
        for qualname, method, node in _definitions(tree):
            owner, _, name = qualname.rpartition(".")
            own = range(node.lineno, node.end_lineno + 1)
            counts[qualname] = counts.get(qualname, 0) + sum(
                1
                for read, receiver, where, line in loads
                if read == name and not (where == path and line in own)
                and (not method or receiver is not None and (methods[name] == 1 or receiver == owner))
            )
    return counts


def test_every_definition_has_a_reader_or_a_reason():
    counts = readers(SRC)
    unread = sorted(name for name, n in counts.items() if n == 0 and name not in UNREAD)
    assert unread == [], "src definitions that nothing in src reads: delete them, or list them with a reason"


def test_the_list_of_unread_definitions_is_current():
    counts = readers(SRC)
    missing = sorted(name for name in UNREAD if name not in counts)
    read = sorted(name for name in UNREAD if counts.get(name))
    assert missing == [], "listed definitions that src no longer defines"
    assert read == [], "listed definitions that src now reads: take them off the list"


def test_a_namesake_on_another_class_does_not_count_as_a_reader(tmp_path):
    # B.to_json has no reader: the read through a typed A is A's, and one through an untyped value is nobody's
    (tmp_path / "values.py").write_text(
        "class A:\n"
        "    def to_json(self) -> dict:\n"
        "        return {}\n"
        "\n"
        "\n"
        "class B:\n"
        "    def to_json(self) -> dict:\n"
        "        return {}\n"
    )
    (tmp_path / "use.py").write_text(
        "from values import A\n"
        "\n"
        "\n"
        "def dump(a: A) -> dict:\n"
        "    return a.to_json()\n"
        "\n"
        "\n"
        "def show(value) -> dict:\n"
        "    return value.to_json()\n"
    )
    counts = readers(tmp_path)
    assert counts["A.to_json"] == 1
    assert counts["B.to_json"] == 0
    assert "B.to_json" not in UNREAD
