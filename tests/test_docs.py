"""Documentation checks: README/docs code snippets must stay healthy.

Every fenced ``python`` block in the top-level README and in
``docs/architecture.md`` must at least compile; blocks whose first line
is ``# runnable`` are executed end-to-end (the README quickstart runs a
real tensor program on the simulator). Every ``*.md`` path that a
source, test or benchmark file names must exist, and so must every
results path that a document names. This is the CI "docs check":
documentation drift breaks the build, not the reader.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = [REPO_ROOT / "README.md", REPO_ROOT / "docs/architecture.md"]

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_MD_PATH = re.compile(r"[\w./-]*\w\.md\b")
#: A path under the repository's results directory (the bracket keeps
#: this file from naming one).
_RESULTS_PATH = re.compile(r"\bresult[s]/[\w.*-]*")


def python_blocks(path: Path):
    return _FENCE.findall(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("doc", DOCS, ids=[d.name for d in DOCS])
def test_docs_exist_and_have_snippets(doc):
    assert doc.exists(), f"{doc} is missing"
    assert python_blocks(doc), f"{doc} has no python snippets"


@pytest.mark.parametrize("doc", DOCS, ids=[d.name for d in DOCS])
def test_snippets_compile(doc):
    for index, block in enumerate(python_blocks(doc)):
        compile(block, f"{doc.name}[block {index}]", "exec")


def test_readme_imports_cleanly():
    """Every import statement shown in README snippets must resolve."""
    readme = DOCS[0]
    imports = [
        line.strip()
        for block in python_blocks(readme)
        for line in block.splitlines()
        if re.match(r"\s*(import|from)\s+\w", line)
    ]
    assert imports, "README shows no imports"
    namespace: dict = {}
    exec("\n".join(imports), namespace)


def test_runnable_snippets_execute():
    """Blocks tagged '# runnable' run end-to-end on the simulator."""
    ran = 0
    for doc in DOCS:
        for block in python_blocks(doc):
            if block.lstrip().startswith("# runnable"):
                exec(compile(block, f"{doc.name} runnable", "exec"), {})
                ran += 1
    assert ran >= 1, "expected at least one runnable snippet (README quickstart)"


def test_readme_referenced_paths_exist():
    """Relative paths the README links to must exist in the repo."""
    text = DOCS[0].read_text(encoding="utf-8")
    for target in re.findall(r"\]\(([\w./-]+)\)", text):
        if target.startswith(("http:", "https:")):
            continue
        assert (REPO_ROOT / target).exists(), f"README links to missing {target}"


def test_named_markdown_paths_exist():
    """A ``*.md`` path (from the repo root) that a file under ``src/``,
    ``tests/`` or ``benchmarks/`` names must exist: no comment cites a
    document that is not there."""
    named = {}
    for top in ("src", "tests", "benchmarks"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            for name in _MD_PATH.findall(path.read_text(encoding="utf-8")):
                named.setdefault(name, str(path.relative_to(REPO_ROOT)))
    assert "docs/architecture.md" in named
    missing = {name: path for name, path in named.items()
               if not (REPO_ROOT / name).is_file()}
    assert not missing, f"named but missing: {missing}"


def test_named_results_paths_exist():
    """A results path (a glob counts) that ``README.md`` or a
    ``docs/*.md`` file names must exist: a benchmark writes nothing, so
    no document may cite an output that is not there."""
    missing = [
        f"{doc.name}: {name}"
        for doc in [DOCS[0], *sorted((REPO_ROOT / "docs").glob("*.md"))]
        for name in _RESULTS_PATH.findall(doc.read_text(encoding="utf-8"))
        if not any(REPO_ROOT.glob(name))
    ]
    assert not missing, f"named but missing: {missing}"
