"""The package's export list and the README's `## Library` section agree."""

import re
from pathlib import Path

import tailquant
from tailquant import errors

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def library_block() -> str:
    blocks = re.findall(r"```python\n(.*?)```", library_section(), re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def code_in_readme() -> str:
    """Every fenced block and inline code span of the README."""
    text = README.read_text(encoding="utf-8")
    fenced = re.findall(r"```[^\n]*\n(.*?)```", text, re.DOTALL)
    inline = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.DOTALL))
    return "\n".join(fenced + inline)


def test_every_name_the_library_block_uses_is_exported():
    used = set(re.findall(r"\btq\.([A-Za-z_]\w*)", library_block()))
    assert used, "the Library block uses no tq.<name>"
    assert sorted(used - set(tailquant.__all__)) == []


def test_every_exported_name_is_documented():
    exempt = {"__version__"} | {
        name for name in tailquant.__all__
        if isinstance(getattr(tailquant, name), type)
        and issubclass(getattr(tailquant, name), errors.TailquantError)
    }
    code = code_in_readme()
    missing = [
        name for name in tailquant.__all__
        if name not in exempt and not re.search(rf"\b{re.escape(name)}\b", code)
    ]
    assert missing == []


def test_export_list_resolves_without_duplicates():
    assert len(tailquant.__all__) == len(set(tailquant.__all__))
    for name in tailquant.__all__:
        assert hasattr(tailquant, name), name
