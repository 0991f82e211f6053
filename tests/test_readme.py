import re
from pathlib import Path

import pointersim

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    # the README's one python block is the library quick start; run it as written
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1, "README.md must hold exactly one python block"
    exec(compile(blocks[0], str(README), "exec"), {})


def test_public_names_resolve():
    for name in pointersim.__all__:
        assert getattr(pointersim, name) is not None, name
    # removed twins stay removed: the constructor and evolve_pure are the one way
    for gone in ("eigenvector_corrections", "embed_discrete"):
        assert gone not in pointersim.__all__ and not hasattr(pointersim, gone)
