import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "stage_times.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("stage_times", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_times_runs_every_stage_of_q1(capsys):
    stage_times = _load_script()
    assert stage_times.main(["--n", "1", "--beta", "z8^7"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [r["stage"] for r in out["stages"]] == [
        "build", "check_axioms", "integrals + modulus", "cointegrals",
        "symmetrise", "from_symmetrised_cointegral", "verify_reduction",
        "pairing"]
    assert all(r["passed"] and r["s"] >= 0 for r in out["stages"])
    assert out["total_s"] == round(sum(r["s"] for r in out["stages"]), 3)
    peaks = [r["peak_rss_mib"] for r in out["stages"]]
    assert 0 < peaks[0] and peaks == sorted(peaks)
    assert out["peak_rss_mib"] == peaks[-1]


@pytest.mark.parametrize("beta", ["z20", "1"])
def test_stage_times_rejects_a_beta_outside_q_zeta8_or_with_the_wrong_fourth_power(beta):
    with pytest.raises(SystemExit) as exit_info:
        _load_script().main(["--n", "1", "--beta", beta])
    assert exit_info.value.code == 2
