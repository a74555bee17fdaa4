"""The wide-seeds script's own reporting (``tests/wide_seeds.py``)."""

import random

import pytest

import wide_seeds


def test_dsl_check_lets_the_slow_alarm_through(monkeypatch):
    # a draw that is only slow must reach the script's ``slow:`` report,
    # not the dsl property's ``except Exception`` as a disagreement
    def slow(text):
        raise wide_seeds._Slow()

    monkeypatch.setattr(wide_seeds, "load_automaton", slow)
    check = wide_seeds.dsl(random.Random(0), 0)
    with pytest.raises(wide_seeds._Slow):
        check()
