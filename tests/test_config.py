from pathlib import Path

import pytest

from bchsim.config import SolverConfig, config_echo, parse_config, parse_config_file

MINIMAL = """
n = 512
t_final = 0.5
coupling = advective
init_v = fourier
seed = 9
"""


def test_parse_minimal():
    cfg = parse_config(MINIMAL)
    assert cfg.n == 512
    assert cfg.t_final == 0.5
    assert cfg.coupling == "advective"
    assert cfg.seed == 9
    assert cfg.coupled


def test_comments_and_blank_lines():
    cfg = parse_config("# header\n\nn = 128  \n# tail\nt_final = 1\n")
    assert cfg.n == 128


def test_unknown_key_reports_line():
    with pytest.raises(ValueError, match="line 2.*unknown key"):
        parse_config("n = 128\nwhatever = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ValueError, match="duplicate key"):
        parse_config("n = 128\nn = 256\n")


def test_malformed_line_rejected():
    with pytest.raises(ValueError, match="line 1"):
        parse_config("n 128\n")


def test_bad_value_reports_key():
    with pytest.raises(ValueError, match="bad value for n"):
        parse_config("n = twelve\n")


def test_coupling_tokens():
    for name in ("advective", "div1", "div2"):
        assert parse_config(f"coupling = {name}\ninit_v = fourier\n").coupling == name
    with pytest.raises(ValueError):
        parse_config("coupling = sideways\n")


def test_uncoupled_forbids_velocity_init():
    with pytest.raises(ValueError, match="init_v"):
        parse_config("coupling = uncoupled\ninit_v = bump\n")


def test_snapshot_times_parse():
    cfg = parse_config("t_final = 2\nsnapshot_times = 0, 0.5, 1.5\n")
    assert cfg.snapshot_times == (0.0, 0.5, 1.5)


def test_snapshot_times_that_share_a_file_name_are_rejected():
    # a snapshot's file is named by 6 significant digits of its time, so these
    # two, a step of dt = 1e-7 apart, would both write snap_0.1.csv
    text = "t_final = 0.2\ndt = 1e-7\nsnapshot_times = {}\n"
    with pytest.raises(ValueError, match=r"0\.1000001 and 0\.1000002 both write snap_0\.1\.csv"):
        parse_config(text.format("0.1000002, 0.1000001"))
    cfg = parse_config(text.format("0.1000001, 0.100001"))
    assert cfg.snapshot_times == (0.1000001, 0.100001)


def test_init_file_forms():
    cfg = parse_config("init_phi = file:some/path.csv\ninit_v = file:other.csv\n"
                       "coupling = advective\n")
    assert cfg.init_phi == "file:some/path.csv"
    assert cfg.init_v == "file:other.csv"
    with pytest.raises(ValueError):
        parse_config("init_phi = zeros\n")


def test_validation_bounds():
    with pytest.raises(ValueError):
        parse_config("t_final = 0\n")
    with pytest.raises(ValueError):
        parse_config("record_every = 0\n")
    with pytest.raises(ValueError):
        parse_config("dt = -1e-3\n")


def test_effective_defaults_by_coupling():
    coupled = parse_config("coupling = div2\ninit_v = bump\n")
    assert coupled.n_eff == 8192
    assert coupled.dt_eff == pytest.approx(9.7656e-5)
    assert coupled.stabilizer_eff == pytest.approx(2.0 * coupled.beta)
    uncoupled = parse_config("coupling = uncoupled\n")
    assert uncoupled.n_eff == 2048
    assert uncoupled.dt_eff == pytest.approx(1e-3)


def test_explicit_values_override_defaults():
    cfg = parse_config("coupling = div2\ninit_v = bump\nn = 1024\ndt = 1e-5\n"
                       "stabilizer_A = 3.5\n")
    assert cfg.n_eff == 1024
    assert cfg.dt_eff == 1e-5
    assert cfg.stabilizer_eff == 3.5


def test_echo_is_reparse_stable():
    cfg = parse_config(MINIMAL + "snapshot_times = 0.25, 0.45\n")
    echoed = config_echo(cfg)
    again = parse_config(echoed)
    assert again == cfg.resolved()
    assert config_echo(again) == echoed


def test_echo_contains_resolved_values():
    echoed = config_echo(parse_config("coupling = uncoupled\n"))
    assert "n = 2048" in echoed
    assert "dt = 0.001" in echoed


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL)
    assert parse_config_file(path) == parse_config(MINIMAL)


def test_params_projection():
    cfg = parse_config("kappa = 1e-4\nnu = 0.01\nK = 2\nL = 3\n")
    p = cfg.params
    assert p.kappa == 1e-4
    assert p.nu == 0.01
    assert p.K == 2.0
    assert p.half_length == 3.0


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_checked_in_configs_parse(path):
    parse_config_file(path)


def test_speedup_pair_passes_the_compare_agreement_check(monkeypatch):
    import bchsim.ensemble as ens

    coupled = parse_config_file(CONFIGS / "coupled_speedup.cfg")
    twin = parse_config_file(CONFIGS / "coupled_speedup_twin.cfg")
    assert twin == ens.uncoupled_twin(coupled, t_final=5.0, dt=1e-3, record_every=10)

    class Reached(Exception):
        pass

    def stop(cfg):
        raise Reached

    monkeypatch.setattr(ens, "run", stop)
    with pytest.raises(Reached):  # the runs start only after the check
        ens.compare_coupled(coupled, twin)
