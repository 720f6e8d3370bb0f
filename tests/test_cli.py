import json

import numpy as np
import pytest

from costbound import verify
from costbound.autodiff import Tensor
from costbound.cli import main
from costbound.config import save_config
from costbound.trainer import METRICS_HEADER, load_metrics, normalized_metrics

from test_trainer import short_config


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The exit code of ``train`` on a seconds-long config, and the directory
    holding that config and the run."""
    root = tmp_path_factory.mktemp("cli")
    save_config(short_config(), root / "short.cfg")
    return main(["train", "--config", str(root / "short.cfg"), "--out", str(root / "run")]), root


def test_train_exits_zero(trained):
    code, root = trained
    assert code == 0
    assert (root / "run" / "final.ckpt").is_file() and (root / "run" / "metrics.csv").is_file()


def test_train_resume_reproduces_the_final_checkpoint(trained):
    _, root = trained
    args = ["train", "--config", str(root / "short.cfg"), "--out", str(root / "resumed")]
    assert main(args + ["--resume", str(root / "run" / "step_120.ckpt")]) == 0
    assert (root / "resumed" / "final.ckpt").read_bytes() == (root / "run" / "final.ckpt").read_bytes()


def test_evaluate_prints_reward_and_cost(trained, capsys):
    _, root = trained
    assert main(["evaluate", "--checkpoint", str(root / "run" / "final.ckpt"), "--episodes", "1"]) == 0
    printed = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    assert printed.keys() == {"reward_mean", "cost_mean"}
    assert all(np.isfinite(float(value)) for value in printed.values())


def write_metrics(path, reward, cost, steps=(100, 200)):
    rows = [",".join(map(str, [step, reward, cost] + [0.0] * 7)) for step in steps]
    path.write_text("\n".join([METRICS_HEADER] + rows) + "\n")
    return str(path)


def assert_one_error_line(capsys, message):
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"costbound: error: {message}\n"


def test_normalize_prints_its_json(tmp_path, capsys):
    run = write_metrics(tmp_path / "run.csv", 2.0, 1.0)
    reference = write_metrics(tmp_path / "reference.csv", 4.0, 4.0)
    assert main(["normalize", "--run", run, "--reference", reference]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == {"normalized_reward": 0.5, "normalized_cost": 0.25, "window": 2}


@pytest.mark.parametrize("window", [0, -1])
def test_normalize_rejects_a_window_below_one(tmp_path, capsys, window):
    run = write_metrics(tmp_path / "run.csv", 2.0, 1.0)
    reference = write_metrics(tmp_path / "reference.csv", 4.0, 4.0)
    with pytest.raises(ValueError, match="window"):
        normalized_metrics(load_metrics(run), load_metrics(reference), window=window)
    assert main(["normalize", "--run", run, "--reference", reference, "--window", str(window)]) == 2
    assert_one_error_line(capsys, f"window must be at least 1, got {window}")


@pytest.mark.parametrize("empty", ["run", "reference"])
def test_normalize_rejects_a_metrics_file_without_rows(tmp_path, capsys, empty):
    paths = {name: write_metrics(tmp_path / f"{name}.csv", 2.0, 1.0) for name in ("run", "reference")}
    paths[empty] = write_metrics(tmp_path / f"{empty}.csv", 2.0, 1.0, steps=())
    with pytest.raises(ValueError, match="no evaluation rows"):
        normalized_metrics(load_metrics(paths["run"]), load_metrics(paths["reference"]))
    assert main(["normalize", "--run", paths["run"], "--reference", paths["reference"]]) == 2
    assert_one_error_line(capsys, "metrics table has no evaluation rows")


def test_normalize_against_a_reference_without_cost_exits_two(tmp_path, capsys):
    run = write_metrics(tmp_path / "run.csv", 2.0, 1.0)
    reference = write_metrics(tmp_path / "reference.csv", 4.0, 0.0)
    assert main(["normalize", "--run", run, "--reference", reference]) == 2
    assert_one_error_line(capsys, "reference run has zero mean reward or cost")


@pytest.mark.parametrize("keep", [lambda n: 20, lambda n: n // 2], ids=["20 bytes", "half"])
def test_evaluate_of_a_truncated_checkpoint_exits_two(trained, tmp_path, capsys, keep):
    _, root = trained
    data = (root / "run" / "final.ckpt").read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(data[: keep(len(data))])
    assert main(["evaluate", "--checkpoint", str(tmp_path / "cut.ckpt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("costbound: error: checkpoint") and "truncated" in err and err.count("\n") == 1


def test_gradcheck_returns_one_when_a_loss_is_broken(monkeypatch, capsys):
    temperature_loss = verify.temperature_loss

    def broken(log_alpha, log_probs, target_entropy):
        # a term that the value sees and the gradient does not
        return temperature_loss(log_alpha, log_probs, target_entropy) + Tensor(np.sum(log_alpha.data**2))

    monkeypatch.setattr(verify, "temperature_loss", broken)
    assert main(["gradcheck"]) == 1
    assert "temperature: rel err" in capsys.readouterr().out


def test_oracle_exits_zero_and_prints_a_pass_line_per_entry(capsys):
    assert main(["oracle"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.endswith("[PASS]") for line in lines)


def test_oracle_returns_one_when_an_entry_fails(monkeypatch, capsys):
    def one_failing(seed):
        return {"agrees": (1.0, 1.0, True), "disagrees": (1.0, 2.0, False)}

    monkeypatch.setattr(verify, "run_tabular_suite", one_failing)
    assert main(["oracle"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["agrees:", "disagrees:"]
    assert lines[0].endswith("[PASS]") and lines[1].endswith("[FAIL]")
