"""Golden outputs of the TTI engine.

Each case runs one short scenario and hashes repr(RunMetrics) together
with every trace row. The digests were recorded before the single-stream
and 2x2 loops were merged into one, so any change to the engine's
arithmetic, retransmission timing or trace content shows up here as a
changed digest. The far points reach out-of-range reports (idle TTIs)
and HARQ retransmissions in every antenna mode; the near point has
dual-stream reports with mixed outcomes.

A deliberate behaviour change must re-record the table (run this file
as a script) and say so in CHANGES.md.
"""

import hashlib

import pytest

from hsdpa_ee.ee_controller import ControllerConfig
from hsdpa_ee.link_channel import make_channel
from hsdpa_ee.mcs_table import reference_table
from hsdpa_ee.power_model import PowerModelParams
from hsdpa_ee.sim_engine import ScenarioConfig, power_model_for_mode, run

# channel points as (distance m, geometry dB); GOLDEN holds one sha256
# per (distance, geometry, mode, strategy)
POINTS = ((435.0, 23.0), (1100.0, 0.0), (1100.0, -5.0))
MODES = ("SISO", "SIMO", "MIMO")
STRATEGIES = ("FixedBaseline", "SemiStatic", "PerTtiOptimal")
TTIS = 600
SEED = 7

GOLDEN = {
    (435.0, 23.0, 'SISO', 'FixedBaseline'): '0bc73cc028926f895d6d204cfcb592238839358ebbbe9ef43cb88c6eeafb9263',
    (435.0, 23.0, 'SISO', 'SemiStatic'): '61dccd595db67d5a6c6454f8f8ffa3109040f489dbc3e57440533cb731f11cd3',
    (435.0, 23.0, 'SISO', 'PerTtiOptimal'): '2ab5baa68451316628cfaca22150e4f04b3c88b762496b54312126c5465f9b2a',
    (435.0, 23.0, 'SIMO', 'FixedBaseline'): '16a5a25ae71c1ec6559e53705e86e2994bfefc9b1779386d65f7c9329c918798',
    (435.0, 23.0, 'SIMO', 'SemiStatic'): '5ef659c1f427e0179c7f772a5dbe01a51a12b2e8204922c4536d1f7dc0e41a9b',
    (435.0, 23.0, 'SIMO', 'PerTtiOptimal'): '74b3989dfec77ae4c4678c14d44a3c1f99c7a718c840b3d18ec82ae16968c075',
    (435.0, 23.0, 'MIMO', 'FixedBaseline'): '669e742981f3ef62f75f644230472b153528cf5b672ef5072cb9a4f735943e5b',
    (435.0, 23.0, 'MIMO', 'SemiStatic'): '998dff8f22e15a48842c2a80a36a1d1ef07d54270d226a5a8674baf61a20842e',
    (435.0, 23.0, 'MIMO', 'PerTtiOptimal'): 'b4a4a00735d2c4c2bdcc0b9066b2b91a53332c554049ae08b4c5216dae684916',
    (1100.0, 0.0, 'SISO', 'FixedBaseline'): '3cbdccb08d5b19e7e32fe062920e44ef9db49c31b3294f952dcdaf359170529d',
    (1100.0, 0.0, 'SISO', 'SemiStatic'): '0ed63c27f49b29d1d46c7fdfb2f840e81729075f18b41636619ab809f5ca1ec6',
    (1100.0, 0.0, 'SISO', 'PerTtiOptimal'): '193f4e248805051e24389819b294f29e6f77f6b834e27b968bb2fe9b9539e6c0',
    (1100.0, 0.0, 'SIMO', 'FixedBaseline'): 'f1837795cfa59858cd1a07ccf3c3f7675e0df5339c90c9a57b0d75e0254f2a8d',
    (1100.0, 0.0, 'SIMO', 'SemiStatic'): '3421ab222737a5b37513ca1d510ed9352c10ca98ef737e1541723ab4d46cb0e0',
    (1100.0, 0.0, 'SIMO', 'PerTtiOptimal'): '419d5b5e10e751a117b74026fe324741bd2564489f6b1fed4f5a66ea8256d476',
    (1100.0, 0.0, 'MIMO', 'FixedBaseline'): 'b69a76354df66ad7b9cecf9896106cb05a24b590c0f6592e6cf42c6575f59e57',
    (1100.0, 0.0, 'MIMO', 'SemiStatic'): 'c70c1635c1493641b9d5ce562e7fe1b1303ed9a48afa3251981b95b22272847a',
    (1100.0, 0.0, 'MIMO', 'PerTtiOptimal'): 'd1af5c3f0e03dc07ec663523901514538897fc50a173b17df6c439d3e9fb1c34',
    (1100.0, -5.0, 'SISO', 'FixedBaseline'): '21bc5e0ca85f5d555ab0bd5e4f1392f1f3c0233dcee9cfcbf34ed83578c77459',
    (1100.0, -5.0, 'SISO', 'SemiStatic'): '984e97179c985db239a525607c1de79a993f933caec2c0c168c715327211658d',
    (1100.0, -5.0, 'SISO', 'PerTtiOptimal'): '717068bb2ec8982ae942e25b8f4bba75592f455c32d310cad056ffb4dbd49ef4',
    (1100.0, -5.0, 'SIMO', 'FixedBaseline'): '5559d56ffee9651aa29bc10b97af7529403383dd87d0d5b3b2fa5180f1a6722c',
    (1100.0, -5.0, 'SIMO', 'SemiStatic'): '4c39c4d41e3c4fe4951b8103d79d814e7f3a7550c219c8c2927a55c88d744168',
    (1100.0, -5.0, 'SIMO', 'PerTtiOptimal'): 'dcaabf277d2581852bdc360bd41802005a3750d366fa473acf72bd3a0a733668',
    (1100.0, -5.0, 'MIMO', 'FixedBaseline'): '8c7010d254df22984617c8d33efda42df99fad5b5e2f868de312cbc1a2fa04de',
    (1100.0, -5.0, 'MIMO', 'SemiStatic'): '602e6000427be2cc95d5d2f7f74d053da13c304769271b89238c6af444ae83e4',
    (1100.0, -5.0, 'MIMO', 'PerTtiOptimal'): '5574853f6e2e1e0829b8bc4e26087b70e81e42e441ce1e9ae373b021de1b88ae',
}


def digest(distance_m, geometry_db, mode, strategy):
    sc = ScenarioConfig(
        channel=make_channel(distance_m, -72.5, geometry_db=geometry_db, alpha=0.995,
                             speed_kmh=3.0),
        antenna_mode=mode,
        strategy=strategy,
        duration_ttis=TTIS,
        seed=SEED,
        controller=ControllerConfig(ee_smoothing=0.01),
        table=reference_table(),
        power_model=power_model_for_mode(mode, PowerModelParams()),
    )
    metrics, trace = run(sc)
    h = hashlib.sha256(repr(metrics).encode())
    for rec in trace:
        h.update(repr(rec).encode())
    return h.hexdigest()


CASES = [(d, g, m, s) for d, g in POINTS for m in MODES for s in STRATEGIES]


@pytest.mark.parametrize("distance_m,geometry_db,mode,strategy", CASES)
def test_engine_output_matches_golden(distance_m, geometry_db, mode, strategy):
    got = digest(distance_m, geometry_db, mode, strategy)
    assert got == GOLDEN[(distance_m, geometry_db, mode, strategy)]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {digest(*case)!r},")
