"""The README's Quick tour runs as written and gives the results its
comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour():
    text = README.read_text()
    tour = text[text.index("## Quick tour") :]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    scope: dict = {}
    exec(compile(code, "README.md", "exec"), scope)
    dh = scope["dh"]
    family, d = scope["family"], scope["d"]
    assert dh.fine_probabilities(family).tolist() == [0.25, 0.25, 0.25, 0.25]
    assert d.diagonal.tolist() == [0.25, 0.25, 0.25, 0.25]
    assert dh.check_weak_consistency(d).passed is False
    # the comments state those results
    assert "# [0.25, 0.25, 0.25, 0.25]" in code and "# False" in code
