"""Import contracts: the dependency arrow of the event spine points one way.

The protocol layers (``repro.core``, ``repro.sim``, ``repro.phy``,
``repro.baselines``) emit typed events; the observability and fuzzing
layers (``repro.obs``, ``repro.fuzz``) subscribe.  Nothing in a protocol
layer may import a subscriber layer — that would reintroduce the inverted
dependency this refactor removed.  Enforced statically (AST walk over the
source tree) so a violation fails even if the import is unused or lazy.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "repro"

#: emitting packages -> packages they must never import
CONTRACTS = {
    "core": ("repro.obs", "repro.fuzz"),
    "sim": ("repro.obs", "repro.fuzz", "repro.core"),
    "phy": ("repro.obs", "repro.fuzz"),
    "baselines": ("repro.obs", "repro.fuzz"),
    "events": ("repro.obs", "repro.fuzz", "repro.core"),
}


def _imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            # absolute imports only: the tree uses no relative imports
            if node.module:
                yield node.lineno, node.module


def _violations(package, forbidden):
    found = []
    for path in sorted((SRC / package).rglob("*.py")):
        for lineno, module in _imports(path):
            if any(module == f or module.startswith(f + ".")
                   for f in forbidden):
                found.append(
                    f"{path.relative_to(SRC.parent)}:{lineno} imports {module}")
    return found


@pytest.mark.parametrize("package", sorted(CONTRACTS))
def test_layer_never_imports_subscribers(package):
    violations = _violations(package, CONTRACTS[package])
    assert not violations, "\n".join(violations)


def test_core_imports_neither_numpy_nor_kernel():
    # the protocol state lives once, in plain Python objects; the batched
    # kernel reads those objects and the core never reaches up to it
    violations = _violations("core", ("numpy", "repro.kernel"))
    assert not violations, "\n".join(violations)


def test_contract_covers_real_packages():
    for package in CONTRACTS:
        assert (SRC / package).is_dir(), package
