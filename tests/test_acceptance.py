"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line."""

import numpy as np
import pytest

from wentzell.acceptance import ALL_CRITERIA, criterion_4_fdtd_oracle


@pytest.mark.parametrize("criterion", ALL_CRITERIA,
                         ids=[fn.__name__.removeprefix("criterion_")
                              for fn in ALL_CRITERIA])
def test_criterion(criterion):
    import time
    start = time.perf_counter()
    result = criterion()
    result.runtime = time.perf_counter() - start
    print(result.line())
    assert result.passed, f"{result.name}: {result.details}"


def test_criterion_4_order_table():
    # the order-of-accuracy table: second order from h = 1/64 to 1/1024
    d = criterion_4_fdtd_oracle().details
    assert tuple(d["levels"]) == (128, 256, 512, 1024, 2048)
    assert len(d["errors"]) == 5 and len(d["orders"]) == 4
    assert all(1.8 <= order <= 2.2 for order in d["orders"])
    assert d["errors"][-1] == d["err_h1024"] and d["errors"][-2] == d["err_h512"]
    assert d["orders"] == np.log2(np.divide(d["errors"][:-1], d["errors"][1:])).tolist()
