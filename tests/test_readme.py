"""The README's library tour runs as a doctest, so its output stays true."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour():
    test = doctest.DocTestParser().get_doctest(
        library_tour(), {}, "README library tour", str(README), 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.failed == 0, f"{result.failed} README example(s) failed"
