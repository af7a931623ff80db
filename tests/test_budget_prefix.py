"""The power budget against a scan of every candidate.

A candidate's power p_dbm + offsets[k] - ref + delta_db never decreases
in k, so _select tests only the lowest admissible candidate and the
clamped optimum against the budget, and looks for the end of the
affordable prefix only where one of them is over it. The oracle here
takes no such shortcut: it evaluates that expression for every
candidate, counts the ones within the budget, and checks that they are
a prefix. Budgets are put exactly on a candidate's computed power and
one float to either side, where a rounding slip would show.
"""

import math
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st
from test_selector_oracles import assert_same, power_models, tables

from hsdpa_ee.ee_controller import (
    ControllerConfig,
    OptimalSelection,
    _level_search,
    _tti_energy_j,
    select_optimal,
)
from hsdpa_ee.mimo_dtxaa import (
    DUAL,
    DualSelection,
    MimoFeedback,
    _pair_search,
    select_optimal_dual,
)

WAYS = ("early return", "over budget", "infeasible")


def prefix_scan(search, p_dbm, ref, delta_db, cfg, pm, result, exact):
    """_select's result by a scan of every candidate, and the way _select
    takes to it."""
    items, bits = search.items, search.bits
    powers = [p_dbm + offset - ref + delta_db for offset in search.offsets]
    affordable = sum(q <= cfg.p_max_dbm for q in powers)
    assert all(q <= cfg.p_max_dbm for q in powers[:affordable])
    lowest = [item if isinstance(item, int) else min(item) for item in items]
    pos_min = next((k for k, level in enumerate(lowest) if level >= cfg.min_mcs), len(items))
    if pos_min >= affordable:
        pos = max(affordable - 1, 0)
        ee = bits[pos] / _tti_energy_j(powers[pos], pm, exact)
        return result(items[pos], cfg.p_max_dbm, ee, True), "infeasible"
    ees = [b / _tti_energy_j(q, pm) for b, q in zip(bits, powers)]
    c = max(ees.index(max(ees)), pos_min)
    pos = min(c, affordable - 1)
    way = "early return" if c < affordable else "over budget"
    return result(items[pos], powers[pos], bits[pos] / _tti_energy_j(powers[pos], pm, exact),
                  False), way


@st.composite
def budget_calls(draw):
    """A table, power model and report, a level or a pair search over
    them, a power and offset, and min_mcs at the lowest level of a
    candidate next to the one whose power sets the budget, or anywhere."""
    table, pm = draw(tables()), draw(power_models)
    n = len(table)
    if draw(st.booleans()):
        i = draw(st.integers(1, n))
        search, ref = _level_search(table, pm), table.threshold(i)

        def select(p, delta, cfg, exact):
            return select_optimal(p, i, delta, table, cfg, pm, exact_ee=exact)

        result = OptimalSelection
    else:
        fb = MimoFeedback(DUAL, 0, draw(st.integers(1, n)), draw(st.integers(1, n)))
        search, ref = _pair_search(table, pm, fb.cqi_primary, fb.cqi_secondary), 0.0

        def select(p, delta, cfg, exact):
            return select_optimal_dual(p, fb, delta, table, cfg, pm, exact_ee=exact)

        result = DualSelection
    p, delta = draw(st.floats(-20.0, 70.0)), draw(st.floats(-6.0, 6.0))
    last = len(search.items) - 1
    k = draw(st.integers(0, last))
    near = search.items[min(max(k + draw(st.integers(-1, 1)), 0), last)]
    level = near if isinstance(near, int) else min(near)
    min_mcs = draw(st.sampled_from([level, min(level + 1, n), draw(st.integers(1, n))]))
    return search, ref, select, result, pm, p, delta, k, min_mcs


def test_select_meets_the_budget_like_a_prefix_scan():
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(budget_calls())
    def budget_ties(call):
        search, ref, select, result, pm, p, delta, k, min_mcs = call
        q = p + search.offsets[k] - ref + delta
        for p_max in (math.nextafter(q, -math.inf), q, math.nextafter(q, math.inf)):
            cfg = ControllerConfig(p_max_dbm=p_max, min_mcs=min_mcs)
            for exact in (True, False):
                want, way = prefix_scan(search, p, ref, delta, cfg, pm, result, exact)
                assert_same(select(p, delta, cfg, exact), want)
                seen[way] += 1

    budget_ties()
    assert min(seen[way] for way in WAYS) >= 50, seen
