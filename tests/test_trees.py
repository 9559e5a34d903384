"""`tools/trees.py`: how `run_child` stops a tool on a child that runs too
long or prints too little."""

import pytest

from tool_trees import SRC
from trees import run_child


@pytest.mark.parametrize("program,limits,why", [
    pytest.param("import time; time.sleep(30)", {"timeout": 0.5},
                 "ran past 0.5 s", id="timeout"),
    pytest.param("import sys; print('one'); sys.stderr.write('said')",
                 {"lines": 2}, "printed fewer than 2 lines:\nsaid",
                 id="lines"),
])
def test_run_child_names_the_tree(program, limits, why):
    with pytest.raises(SystemExit) as info:
        run_child(str(SRC), "-c", program, **limits)
    assert str(info.value.code) == f"-c {program} under {SRC} {why}"


def test_run_child_takes_enough_lines():
    done = run_child(str(SRC), "-c", "print(1); print(2)", lines=2)
    assert done.stdout.splitlines() == ["1", "2"]
