"""Every definition in src has a reader in src, or a stated reason to exist without one.

A top-level function or class counts as read where src loads its name, as a
bare name or as an attribute; a method counts as read where src reads an
attribute of its name.  Reads inside the definition's own body (recursion)
do not count, and neither do docstrings or imports.  Dunders are protocol
hooks that the interpreter reads, so they are left out.
"""

import ast
from pathlib import Path

import dualpair

SRC = Path(dualpair.__file__).resolve().parent

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
    "Isogeny.kernel_polynomial": "public isogeny API, the polynomial that names an isogeny",
    "division_polynomial": "public psi_n, spanned by the benchmark's tracer (perfbench/tracing.py)",
    "Polynomial.factor": "spanned by the benchmark's tracer (perfbench/tracing.py) as poly.factor",
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


def _loads(tree: ast.Module):
    """(name, is an attribute, line) for each name and attribute that the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, False, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, True, node.lineno


def readers(src: Path) -> dict:
    """Qualified name -> the number of src reads outside its own body, for every definition."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    loads = [(name, attr, path, line) for path, tree in trees.items() for name, attr, line in _loads(tree)]
    counts = {}
    for path, tree in trees.items():
        for qualname, method, node in _definitions(tree):
            name = qualname.rpartition(".")[2]
            own = range(node.lineno, node.end_lineno + 1)
            counts[qualname] = counts.get(qualname, 0) + sum(
                1
                for read, attr, where, line in loads
                if read == name and (attr or not method) and not (where == path and line in own)
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
