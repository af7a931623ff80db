"""Table invariants, quantiser boundary semantics, loader diagnostics."""

import hashlib

import numpy as np
import pytest

from hsdpa_ee.mcs_table import (
    CSV_HEADER,
    McsEntry,
    McsTable,
    cqi_from_sinr,
    threshold_delta,
    load_table,
    default_table,
    make_uniform_table,
    table_to_csv,
)


def test_default_table_shape():
    t = default_table()
    assert len(t) == 30
    assert t.threshold(1) == -4.5
    assert t.threshold(30) == 24.5
    assert t.tbs(1) == 137
    assert t.tbs(30) == 25558
    assert np.all(np.diff(t.thresholds_db) > 0.0)
    assert np.all(np.diff(t.tbs_bits) >= 0.0)


def test_default_table_text_is_pinned():
    # the default table is make_uniform_table()'s defaults; its text is
    # pinned, so a change to those defaults shows here
    text = table_to_csv(default_table())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "673f428e322d43222bbdea265fde2aeaa2ea878089708e5802ebb5ecb996b091"
    )
    assert default_table() is default_table()


def test_uniform_table_spacing_is_exact():
    t = make_uniform_table(step_db=1.0, entries=30)
    assert np.allclose(np.diff(t.thresholds_db), 1.0, atol=1e-12)
    t2 = make_uniform_table(step_db=1.5, entries=12, first_threshold_db=0.0)
    assert t2.threshold(12) == pytest.approx(16.5, abs=1e-12)


def test_quantiser_boundaries():
    t = default_table()
    # below the table: the 0 marker, serve nothing
    assert cqi_from_sinr(t, -4.5000001) == 0
    assert cqi_from_sinr(t, -40.0) == 0
    # exactly on a threshold selects that entry
    assert cqi_from_sinr(t, -4.5) == 1
    assert cqi_from_sinr(t, 12.5) == 18
    # between thresholds selects the lower entry
    assert cqi_from_sinr(t, 12.499999) == 17
    # above the top threshold saturates at the last index
    assert cqi_from_sinr(t, 24.5) == 30
    assert cqi_from_sinr(t, 60.0) == 30


def test_quantiser_vector_matches_scalar():
    t = default_table()
    rng = np.random.default_rng(11)
    s = rng.uniform(-10.0, 30.0, size=500)
    vec = cqi_from_sinr(t, s)
    scal = np.array([cqi_from_sinr(t, float(x)) for x in s])
    assert np.array_equal(vec, scal)
    # staircase: non-decreasing in sinr
    s_sorted = np.sort(s)
    assert np.all(np.diff(cqi_from_sinr(t, s_sorted)) >= 0)


def test_threshold_delta_on_uniform_table():
    t = default_table()
    assert threshold_delta(t, 10, 13) == pytest.approx(3.0, abs=1e-12)
    assert threshold_delta(t, 13, 10) == pytest.approx(-3.0, abs=1e-12)
    assert threshold_delta(t, 7, 7) == 0.0
    with pytest.raises(ValueError):
        threshold_delta(t, 0, 5)
    with pytest.raises(ValueError):
        threshold_delta(t, 5, 31)


def test_csv_round_trip():
    t = default_table()
    again = load_table(table_to_csv(t, comment="round trip"))
    assert again.entries == t.entries


def test_loader_rejects_bad_header():
    with pytest.raises(ValueError, match="row 1"):
        load_table("cqi,snr_db,tbs_bits,mod_order,codes\n1,0.0,100,2,1\n")


def test_loader_reports_row_numbers():
    text = f"# comment\n{CSV_HEADER}\n1,0.0,100,2,1\n2,1.0,abc,2,1\n"
    with pytest.raises(ValueError, match="row 4"):
        load_table(text)
    text = f"{CSV_HEADER}\n1,0.0,100,2\n"
    with pytest.raises(ValueError, match="row 2.*fields"):
        load_table(text)


def test_loader_rejects_structural_violations():
    # gap in the index sequence
    text = f"{CSV_HEADER}\n1,0.0,100,2,1\n3,1.0,200,2,1\n"
    with pytest.raises(ValueError, match="consecutive"):
        load_table(text)
    # non-increasing thresholds
    text = f"{CSV_HEADER}\n1,1.0,100,2,1\n2,1.0,200,2,1\n"
    with pytest.raises(ValueError, match="strictly increasing"):
        load_table(text)
    # decreasing TBS
    text = f"{CSV_HEADER}\n1,0.0,300,2,1\n2,1.0,200,2,1\n"
    with pytest.raises(ValueError, match="non-decreasing"):
        load_table(text)
    with pytest.raises(ValueError, match="header"):
        load_table("# only comments\n")


def test_table_requires_positive_tbs():
    with pytest.raises(ValueError, match="tbs_bits"):
        McsTable(entries=(McsEntry(1, 0.0, 0, 2, 1),))


def test_informational_columns_shape():
    t = make_uniform_table()
    mods = [e.mod_order for e in t.entries]
    assert mods == sorted(mods)
    assert set(mods) == {2, 4, 6}
    codes = [e.num_codes for e in t.entries]
    assert codes[0] == 1 and codes[-1] == 15
    assert codes == sorted(codes)
