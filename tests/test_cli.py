"""End-to-end checks of the command-line front end, run in-process."""

import hashlib
import json
import platform
import shutil
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import arlab
from arlab import cli
from arlab.cli import main, parse_config, resolve_output_dir, select_lambdas
from arlab.datasets import LabeledImages, gen_minidigits, save_idx
from arlab.errors import ConfigError
from arlab.evaluation import MetricsRow, rows_from_csv, rows_to_csv
from arlab.model import init, save_weights
from arlab.training import train
from arlab.transforms import family_by_name


def base_config(out_dir, **overrides) -> dict:
    doc = {
        "dataset": {"kind": "minidigits", "n": 80, "seed": 0},
        "model": {"hidden": [8]},
        "family": "rotation",
        "methods": ["B"],
        "lambda_grid": [0.001, 0.01],
        "seeds": [0],
        "epochs": 1,
        "lr": {"initial": 0.3},
        "batch_size": 32,
        "output_dir": str(out_dir),
    }
    doc.update(overrides)
    return doc


def write_idx(tmp_path, images):
    """An IDX pair of byte images with labels 0-9 in turn; returns its paths."""
    images_path, labels_path = tmp_path / "images.idx", tmp_path / "labels.idx"
    n, h, w = images.shape
    images_path.write_bytes(struct.pack(">IIII", 0x803, n, h, w) + images.tobytes())
    labels_path.write_bytes(struct.pack(">II", 0x801, n) + bytes(i % 10 for i in range(n)))
    return images_path, labels_path


def write_config(tmp_path, **overrides):
    out = tmp_path / "run"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(out, **overrides)))
    return path, out


class TestParseConfig:
    def test_accepts_minimal_document(self, tmp_path):
        config = parse_config(base_config(tmp_path))
        assert config.methods == ("B",)
        assert config.hidden == (8,)

    def test_field_level_messages(self, tmp_path):
        bad = [
            ({"methods": []}, "methods"),
            ({"methods": ["B", "Z"]}, "methods"),
            ({"methods": ["B", "B"]}, "methods"),
            ({"methods": ["B", "S", "RVA"]}, "methods: 'S' and 'RVA'"),
            ({"family": "blur"}, "family"),
            ({"lambda_grid": [0.0, 0.1]}, "lambda_grid"),
            ({"lambda_grid": []}, "lambda_grid"),
            ({"seeds": []}, "seeds"),
            ({"seeds": [0, -1]}, "seeds"),
            ({"epochs": 0}, "epochs"),
            ({"batch_size": -1}, "batch_size"),
            ({"dataset": {"kind": "minidigits"}}, "dataset.n"),
            ({"dataset": {"kind": "minidigits", "n": 8, "seed": -1}}, "dataset.seed"),
            ({"dataset": {"kind": "csv"}}, "dataset.kind"),
            ({"model": {"hidden": []}}, "model.hidden"),
            ({"output_dir": ""}, "output_dir"),
            # wrong JSON types, booleans included, name their field
            ({"lr": 5}, "lr"),
            ({"lr": {"initial": True}}, "lr.initial"),
            ({"lr": {"decay_every": 1.5}}, "lr.decay_every"),
            ({"model": 5}, "model"),
            ({"model": {"hidden": 5}}, "model.hidden"),
            ({"model": {"hidden": [True]}}, "model.hidden"),
            ({"epochs": True}, "epochs"),
            ({"batch_size": True}, "batch_size"),
            ({"seeds": [False]}, "seeds"),
            ({"dataset": {"kind": "minidigits", "n": True}}, "dataset.n"),
            ({"lambda_grid": [True]}, "lambda_grid"),
            ({"lambda_grid": [float("nan")]}, "lambda_grid"),
            ({"lr": {"initial": float("inf")}}, "lr.initial"),
        ]
        for overrides, field in bad:
            with pytest.raises(ConfigError, match=field):
                parse_config(base_config(tmp_path, **overrides))

    def test_defaults_fill_in(self, tmp_path):
        doc = base_config(tmp_path)
        del doc["lambda_grid"], doc["seeds"], doc["model"]
        config = parse_config(doc)
        assert len(config.lambda_grid) == 8
        assert config.seeds == (0, 1, 2)
        assert config.hidden == (64,)


class TestOutputRoot:
    def test_relative_dir_lands_under_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ARLAB_OUT", str(tmp_path))
        assert resolve_output_dir("exp/a") == tmp_path / "exp" / "a"

    def test_absolute_dir_ignores_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ARLAB_OUT", str(tmp_path))
        assert resolve_output_dir("/elsewhere/a") == Path("/elsewhere/a")

    def test_unset_env_leaves_dir_alone(self, monkeypatch):
        monkeypatch.delenv("ARLAB_OUT", raising=False)
        assert resolve_output_dir("exp/a") == Path("exp/a")


class TestLambdaSelection:
    def row(self, method, lam, seed, robustness):
        return MetricsRow(method, "rotation", seed, lam, 0.5, robustness, 0.5)

    def test_picks_best_mean_robustness(self):
        rows = [self.row("S", 0.001, 0, 0.2), self.row("S", 0.001, 1, 0.4),
                self.row("S", 0.01, 0, 0.5), self.row("S", 0.01, 1, 0.5),
                self.row("B", None, 0, 0.9)]
        assert select_lambdas(rows) == {"S": 0.01}

    def test_tie_prefers_smaller_lambda(self):
        rows = [self.row("S", 0.01, 0, 0.3), self.row("S", 0.001, 0, 0.3)]
        assert select_lambdas(rows) == {"S": 0.001}
        assert select_lambdas(rows[::-1]) == {"S": 0.001}


class TestTrain:
    def test_single_method_single_seed(self, tmp_path, capsys):
        config_path, out = write_config(tmp_path)
        assert main(["train", "--config", str(config_path)]) == 0
        assert (out / "B_none_0" / "weights.bin").is_file()
        assert len(list(out.rglob("weights.bin"))) == 1
        rows = rows_from_csv((out / "metrics.csv").read_text())
        assert len(rows) == 1
        assert rows[0].method == "B" and rows[0].lam is None
        assert (out / "config.json").is_file()
        assert (out / "summary.txt").is_file()
        assert (out / "run.json").is_file()
        assert str(out) in capsys.readouterr().out

    def test_root_run_json_records_what_the_bits_rest_on(self, tmp_path):
        config_path, out = write_config(tmp_path)
        assert main(["train", "--config", str(config_path)]) == 0
        env = json.loads((out / "run.json").read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)
        assert env["arlab"] == arlab.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["blas"] == {"name": blas["name"], "version": blas["version"],
                               "openblas_configuration": blas.get("openblas configuration")}

    def test_row_count_formula(self, tmp_path):
        # 2 no-lambda methods x 2 seeds + 1 AR method x 2 grid x 2 seeds
        config_path, out = write_config(
            tmp_path, methods=["B", "V", "S"], seeds=[0, 1])
        assert main(["train", "--config", str(config_path)]) == 0
        rows = rows_from_csv((out / "metrics.csv").read_text())
        assert len(rows) == 2 * 2 + 1 * 2 * 2
        dirs = {p.name for p in out.iterdir() if p.is_dir()}
        assert dirs == {"B_none_0", "B_none_1", "V_none_0", "V_none_1",
                        "S_0.001_0", "S_0.001_1", "S_0.01_0", "S_0.01_1"}

    def test_rerun_is_byte_identical(self, tmp_path):
        config_path, out = write_config(tmp_path)
        assert main(["train", "--config", str(config_path)]) == 0
        first = (out / "metrics.csv").read_bytes()
        assert main(["train", "--config", str(config_path)]) == 0
        assert (out / "metrics.csv").read_bytes() == first

    def test_parallel_matches_serial(self, tmp_path):
        config_path, out = write_config(tmp_path, seeds=[0, 1])
        assert main(["train", "--config", str(config_path)]) == 0
        serial = (out / "metrics.csv").read_bytes()
        assert main(["train", "--config", str(config_path), "--parallel", "2"]) == 0
        assert (out / "metrics.csv").read_bytes() == serial

    def test_seed_override_narrows_sweep(self, tmp_path):
        config_path, out = write_config(tmp_path, seeds=[0, 1, 2])
        assert main(["train", "--config", str(config_path), "--seed", "7"]) == 0
        rows = rows_from_csv((out / "metrics.csv").read_text())
        assert [r.seed for r in rows] == [7]
        # the override passes the same check as the config's seed list
        assert main(["train", "--config", str(config_path), "--seed", "-1"]) == 2

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path, methods=[])
        assert main(["train", "--config", str(config_path)]) == 2
        assert "methods" in capsys.readouterr().err

    @pytest.mark.parametrize("factor,epoch", [(1e200, 2), (1e-200, 1)])
    def test_rate_that_overflows_or_vanishes_exits_2_before_training(
            self, tmp_path, capsys, factor, epoch):
        config_path, out = write_config(
            tmp_path, epochs=4, lr={"initial": 1e-250, "decay_factor": factor})
        assert main(["train", "--config", str(config_path)]) == 2
        assert f"lr: learning rate at epoch {epoch} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides,message", [
        ({"seeds": [0, 0]}, "seeds: must be a nonempty list of distinct"),
        # both format to 0.001, the cells' directory name
        ({"methods": ["S"], "lambda_grid": [0.001, 0.0010000001]},
         "lambda_grid: values name the cell directories, so must differ under '%g'"),
    ], ids=["duplicate-seeds", "colliding-lambdas"])
    def test_colliding_cells_exit_2_before_any_directory(self, tmp_path, capsys,
                                                         overrides, message):
        config_path, out = write_config(tmp_path, **overrides)
        assert main(["train", "--config", str(config_path)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_parallel_below_one_exits_2(self, tmp_path, capsys, workers):
        config_path, out = write_config(tmp_path)
        assert main(["train", "--config", str(config_path), "--parallel", workers]) == 2
        assert "--parallel: must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_all_cells_failing_exits_4(self, tmp_path, capsys):
        config_path, out = write_config(tmp_path, lr={"initial": 1e155})
        assert main(["train", "--config", str(config_path)]) == 4
        assert "failed" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()
        record = json.loads((out / "B_none_0" / "run.json").read_text())
        assert "diverged" in record["error"]
        assert record["error_kind"] == "divergence"

    def test_diverging_cell_prints_no_numpy_warning(self, tmp_path):
        # the first step of this cell overflows a matmul in the forward pass
        config_path, out = write_config(
            tmp_path, dataset={"kind": "minidigits", "n": 300, "seed": 0},
            model={"hidden": [64]}, family="texture", methods=["S"],
            lambda_grid=[30], lr={"initial": 0.05})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(config_path)]) == 4
        assert [str(w.message) for w in caught] == []
        record = json.loads((out / "S_30_0" / "run.json").read_text())
        assert record["error_kind"] == "divergence"
        assert record["error"] == "training diverged (non-finite loss) at epoch 0"

    def test_cell_record_keeps_every_epoch(self, tmp_path):
        config_path, out = write_config(tmp_path, methods=["S"], lambda_grid=[0.01],
                                        epochs=3)
        assert main(["train", "--config", str(config_path)]) == 0
        record = json.loads((out / "S_0.01_0" / "run.json").read_text())
        config = parse_config(json.loads(config_path.read_text()))
        history = train(cli.plan_for_cell(config, "S", 0.01, 0,
                                          family_by_name(config.family, 16)),
                        gen_minidigits(80, seed=0))
        assert record["losses"] == history.losses
        assert record["penalties"] == history.penalties
        assert record["final_loss"] == history.losses[-1]

    def test_lambda_annotation_in_summary(self, tmp_path):
        config_path, out = write_config(tmp_path, methods=["B", "S"])
        assert main(["train", "--config", str(config_path)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "S (lam=" in summary
        assert summary.count("Accuracy") == 1

    def test_lambda_rule_runs_once_per_sweep(self, tmp_path, calls_to):
        config_path, _ = write_config(tmp_path, methods=["B", "S"])
        calls = calls_to("cli.select_lambdas")
        assert main(["train", "--config", str(config_path)]) == 0
        assert len(calls) == 1

    def test_degenerate_cell_is_recorded_and_sweep_goes_on(self, tmp_path):
        # a blank image has zero logits at init, where cosine alignment is
        # undefined; one batch holds every sample, so C fails at step one
        data = gen_minidigits(60, seed=2)
        images = data.images.copy()
        images[17] = 0.0
        images_path, labels_path = tmp_path / "images.idx", tmp_path / "labels.idx"
        save_idx(LabeledImages(images, data.labels, data.num_classes),
                 images_path, labels_path)
        config_path, out = write_config(
            tmp_path, methods=["B", "C"], lambda_grid=[0.01], batch_size=60,
            dataset={"kind": "idx", "images": str(images_path),
                     "labels": str(labels_path)})
        assert main(["train", "--config", str(config_path)]) == 0
        rows = rows_from_csv((out / "metrics.csv").read_text())
        assert [(r.method, r.lam) for r in rows] == [("B", None)]
        cells = json.loads((out / "run.json").read_text())["cells"]
        failed = [c for c in cells if "error" in c]
        assert [(c["method"], c["error_kind"]) for c in failed] == [("C", "degenerate")]
        assert "cosine" in failed[0]["error"]

    def test_unscorable_hold_out_exits_2_before_training(self, tmp_path, capsys):
        config_path, out = write_config(
            tmp_path, eval_dataset={"kind": "minidigits", "n": 5, "seed": 1})
        assert main(["train", "--config", str(config_path)]) == 2
        assert "the invariance test needs >= 2" in capsys.readouterr().err
        assert not out.exists()

        # an IDX split counts its classes from its own largest label, so a
        # hold-out without class 9 has one class fewer than every model
        full = gen_minidigits(40, seed=1)
        data = full.subset(np.flatnonzero(full.labels != 9))
        images_path, labels_path = tmp_path / "images.idx", tmp_path / "labels.idx"
        save_idx(data, images_path, labels_path)
        config_path, out = write_config(
            tmp_path, eval_dataset={"kind": "idx", "images": str(images_path),
                                    "labels": str(labels_path)})
        assert main(["train", "--config", str(config_path)]) == 2
        assert "9 classes, but the train split has 10" in capsys.readouterr().err
        assert not out.exists()

        # 8x8 hold-out images do not fit models of the 16x16 train split
        config_path, out = write_config(
            tmp_path, eval_dataset={"kind": "minidigits", "n": 40, "seed": 1, "size": 8})
        assert main(["train", "--config", str(config_path)]) == 2
        assert "width 64, but the train split has 256" in capsys.readouterr().err
        assert not out.exists()

        # 8x32 hold-out images have the 16x16 train split's width, not its
        # layout: every model would read their rows scrambled
        full = gen_minidigits(40, seed=1)
        wide = LabeledImages(full.images.reshape(40, 8, 32), full.labels, full.num_classes)
        save_idx(wide, images_path, labels_path)
        config_path, out = write_config(
            tmp_path, eval_dataset={"kind": "idx", "images": str(images_path),
                                    "labels": str(labels_path)})
        assert main(["train", "--config", str(config_path)]) == 2
        assert "shape 8x32, but the train split has 16x16" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_train_split_exits_2_before_training(self, tmp_path, capsys):
        empty = LabeledImages(np.zeros((0, 16, 16)), np.zeros(0, dtype=np.int64), 10)
        images_path, labels_path = tmp_path / "images.idx", tmp_path / "labels.idx"
        save_idx(empty, images_path, labels_path)
        config_path, out = write_config(
            tmp_path, dataset={"kind": "idx", "images": str(images_path),
                               "labels": str(labels_path)},
            eval_dataset={"kind": "minidigits", "n": 40, "seed": 1})
        assert main(["train", "--config", str(config_path)]) == 2
        assert "the train split holds no images" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_pixel_idx_split_exits_3_before_training(self, tmp_path, capsys):
        images_path, labels_path = write_idx(tmp_path, np.zeros((20, 0, 0), dtype=np.uint8))
        config_path, out = write_config(
            tmp_path, dataset={"kind": "idx", "images": str(images_path),
                               "labels": str(labels_path)})
        assert main(["train", "--config", str(config_path)]) == 3
        assert "artifact error: images of 0x0 pixels" in capsys.readouterr().err
        assert not out.exists()

    def test_texture_on_tiny_images_exits_2_before_training(self, tmp_path, capsys):
        # a 2-pixel side scales the tightest texture radius, 6 of 28, to 0
        images_path, labels_path = write_idx(tmp_path, np.full((20, 2, 2), 200, np.uint8))
        config_path, out = write_config(
            tmp_path, family="texture",
            dataset={"kind": "idx", "images": str(images_path),
                     "labels": str(labels_path)})
        assert main(["train", "--config", str(config_path)]) == 2
        assert ("config error: family: texture on 2-pixel images"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_texture_with_repeated_radii_exits_2_before_training(self, tmp_path, capsys):
        # 8-pixel minidigits round two pairs of texture radii onto one value
        config_path, out = write_config(
            tmp_path, family="texture",
            dataset={"kind": "minidigits", "n": 80, "seed": 0, "size": 8})
        assert main(["train", "--config", str(config_path)]) == 2
        assert ("config error: family: texture on 8-pixel images"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_family_is_built_once_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return family_by_name(*args)

        monkeypatch.setattr(cli, "family_by_name", counting)
        config_path, _ = write_config(tmp_path, methods=["B", "V", "S"], seeds=[0, 1])
        assert main(["train", "--config", str(config_path)]) == 0
        assert calls == [("rotation", 16)]

    def test_splits_are_built_once_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return gen_minidigits(*args)

        monkeypatch.setattr(cli, "gen_minidigits", counting)
        config_path, _ = write_config(tmp_path, methods=["B", "V", "S"], seeds=[0, 1])
        assert main(["train", "--config", str(config_path)]) == 0
        assert calls == [(80, 0, 16), (80, 10_000, 16)]

    def test_env_root_redirects_relative_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ARLAB_OUT", str(tmp_path / "root"))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config("nested/run")))
        assert main(["train", "--config", str(config_path)]) == 0
        assert (tmp_path / "root" / "nested" / "run" / "metrics.csv").is_file()


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    config_path, out = write_config(tmp, methods=["B", "S"])
    assert main(["train", "--config", str(config_path)]) == 0
    return out


class TestEval:
    def test_reproduces_training_row(self, trained_run, tmp_path, capsys):
        rows = rows_from_csv((trained_run / "metrics.csv").read_text())
        row = next(r for r in rows if r.method == "B")
        config = json.loads((trained_run / "config.json").read_text())
        spec = config["eval_dataset"]
        data_arg = f"minidigits:{spec['n']}:{spec['seed']}:{spec['size']}"
        json_path = tmp_path / "eval.json"
        code = main(["eval", "--weights", str(trained_run / "B_none_0" / "weights.bin"),
                     "--data", data_arg, "--family", "rotation",
                     "--json", str(json_path)])
        assert code == 0
        doc = json.loads(json_path.read_text())
        assert abs(doc["accuracy"] - row.accuracy) < 1e-12
        assert abs(doc["robust_accuracy"] - row.robustness) < 1e-12
        assert abs(doc["invariance"] - row.invariance) < 1e-12
        # the same document is also the last stdout line
        last = capsys.readouterr().out.strip().split("\n")[-1]
        assert json.loads(last) == doc

    def test_seed_is_not_an_eval_flag(self, trained_run, capsys):
        # nothing eval prints or writes reads a seed, so argparse refuses one
        with pytest.raises(SystemExit) as exit_info:
            main(["eval", "--weights", str(trained_run / "B_none_0" / "weights.bin"),
                  "--data", "minidigits:40:0", "--family", "rotation", "--seed", "3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_corrupt_magic_exits_3(self, trained_run, tmp_path, capsys):
        blob = bytearray((trained_run / "B_none_0" / "weights.bin").read_bytes())
        blob[:8] = b"NOTMAGIC"
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        code = main(["eval", "--weights", str(bad),
                     "--data", "minidigits:40:0", "--family", "rotation"])
        assert code == 3
        assert "artifact error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "theory"])
    @pytest.mark.parametrize("name,layer,value", [("w0", 0, np.nan), ("b1", 1, np.inf)])
    def test_non_finite_weights_exit_3(self, tmp_path, capsys, command, name, layer, value):
        model = init([256, 8, 10], seed=0)
        w, b = model.layers[layer]
        (w if name[0] == "w" else b).data.flat[0] = value
        path = tmp_path / "bad.bin"
        save_weights(model, path)
        code = main([command, "--weights", str(path),
                     "--data", "minidigits:100:3", "--family", "rotation"])
        assert code == 3
        err = capsys.readouterr().err
        assert "artifact error" in err
        assert f"layer {layer} " in err

    @pytest.mark.parametrize("command", ["eval", "theory"])
    def test_zero_width_layer_exits_3(self, tmp_path, capsys, command):
        # 256 -> 0 -> 10: the widths chain, and every payload is the right size
        blob = (b"ARLABW01" + struct.pack("<I", 2) + struct.pack("<II", 256, 0)
                + struct.pack("<II", 0, 10) + np.zeros(10).astype("<f8").tobytes())
        path = tmp_path / "hollow.bin"
        path.write_bytes(blob)
        code = main([command, "--weights", str(path),
                     "--data", "minidigits:100:3", "--family", "rotation"])
        assert code == 3
        assert "artifact error: layer 0 of weight file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "theory"])
    def test_texture_on_tiny_images_exits_2(self, tmp_path, capsys, command):
        weights = tmp_path / "tiny.bin"
        save_weights(init([4, 8, 10], seed=0), weights)
        images_path, labels_path = write_idx(tmp_path, np.full((20, 2, 2), 200, np.uint8))
        code = main([command, "--weights", str(weights),
                     "--data", f"{images_path},{labels_path}", "--family", "texture"])
        assert code == 2
        assert "config error: family: texture on 2-pixel images" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "theory"])
    def test_texture_with_repeated_radii_exits_2(self, tmp_path, capsys, command):
        weights = tmp_path / "small.bin"
        save_weights(init([64, 8, 10], seed=0), weights)
        code = main([command, "--weights", str(weights),
                     "--data", "minidigits:40:0:8", "--family", "texture"])
        assert code == 2
        assert "config error: family: texture on 8-pixel images" in capsys.readouterr().err

    def test_missing_weights_exits_3(self, tmp_path):
        code = main(["eval", "--weights", str(tmp_path / "ghost.bin"),
                     "--data", "minidigits:40:0", "--family", "rotation"])
        assert code == 3

    def test_bad_data_spec_exits_2(self, trained_run, tmp_path, capsys):
        weights = str(trained_run / "B_none_0" / "weights.bin")
        code = main(["eval", "--weights", weights,
                     "--data", "minidigits:forty:0", "--family", "rotation"])
        assert code == 2

        # the fields pass the same checks as a config's dataset object
        capsys.readouterr()
        for command in ("eval", "theory"):
            for spec, field in (("minidigits:0:1", "data.n"), ("minidigits:-3:1", "data.n"),
                                ("minidigits:40:1:4", "data.size"),
                                ("minidigits:40:-1", "data.seed")):
                code = main([command, "--weights", weights, "--data", spec,
                             "--family", "rotation"])
                assert code == 2, (command, spec)
                assert f"config error: {field}:" in capsys.readouterr().err

        # a model with 9 outputs can never predict the data's tenth class
        narrow = tmp_path / "narrow.bin"
        save_weights(init([256, 8, 9], seed=0), narrow)
        capsys.readouterr()
        for command in ("eval", "theory"):
            code = main([command, "--weights", str(narrow),
                         "--data", "minidigits:40:0", "--family", "rotation"])
            assert code == 2
            assert "10 classes, but the model has 9" in capsys.readouterr().err

        # 8x8 images flatten to 64 inputs, not the model's 256
        for command in ("eval", "theory"):
            code = main([command, "--weights", weights,
                         "--data", "minidigits:40:0:8", "--family", "rotation"])
            assert code == 2
            assert "width 64, but the model has 256" in capsys.readouterr().err

    def test_json_is_independent_of_weights_location(self, trained_run, tmp_path):
        source = trained_run / "B_none_0" / "weights.bin"
        texts = []
        for where in ("a", "deeper/b"):
            weights = tmp_path / where / "weights.bin"
            weights.parent.mkdir(parents=True)
            shutil.copy(source, weights)
            json_path = tmp_path / where / "eval.json"
            assert main(["eval", "--weights", str(weights), "--data", "minidigits:40:0",
                         "--family", "rotation", "--json", str(json_path)]) == 0
            texts.append(json_path.read_bytes())
        assert texts[0] == texts[1]
        digest = hashlib.sha256(source.read_bytes()).hexdigest()
        assert json.loads(texts[0])["weights_sha256"] == digest


class TestTheory:
    def test_empty_split_exits_2(self, trained_run, tmp_path, capsys):
        empty = LabeledImages(np.zeros((0, 16, 16)), np.zeros(0, dtype=np.int64), 10)
        images_path, labels_path = tmp_path / "images.idx", tmp_path / "labels.idx"
        save_idx(empty, images_path, labels_path)
        for command in ("theory", "eval"):
            code = main([command, "--weights", str(trained_run / "B_none_0" / "weights.bin"),
                         "--data", f"{images_path},{labels_path}", "--family", "rotation"])
            assert code == 2, command
            assert "config error:" in capsys.readouterr().err

    def test_over_limit_split_exits_2_before_the_cube(self, trained_run, tmp_path,
                                                     capsys, calls_to):
        labels = np.arange(5001) % 10
        big = LabeledImages(np.zeros((5001, 16, 16)), labels, 10)
        images_path, labels_path = tmp_path / "images.idx", tmp_path / "labels.idx"
        save_idx(big, images_path, labels_path)
        cubes = calls_to("model.family_logits")
        code = main(["theory", "--weights", str(trained_run / "B_none_0" / "weights.bin"),
                     "--data", f"{images_path},{labels_path}", "--family", "rotation"])
        assert code == 2
        assert "5001 samples, but the theory checks take at most 5000" in capsys.readouterr().err
        assert cubes == []

    def test_completes_with_sane_fractions(self, trained_run, tmp_path):
        json_path = tmp_path / "theory.json"
        code = main(["theory", "--weights", str(trained_run / "B_none_0" / "weights.bin"),
                     "--data", "minidigits:30:3", "--family", "rotation",
                     "--json", str(json_path)])
        assert code == 0
        doc = json.loads(json_path.read_text())
        for key in ("A2", "A3", "A6"):
            assert 0.0 <= doc[key]["fraction"] <= 1.0
        for entry in doc["matching_identity"]:
            assert entry["gap"] >= -1e-9
        assert doc["bounds"]["vertex"]["alignment_sum"] >= 0.0

    def test_pairwise_matrix_shape(self, trained_run, tmp_path):
        json_path = tmp_path / "theory.json"
        main(["theory", "--weights", str(trained_run / "B_none_0" / "weights.bin"),
              "--data", "minidigits:20:5", "--family", "rotation",
              "--json", str(json_path)])
        matrix = json.loads(json_path.read_text())["A3"]["pairwise_matrix"]
        assert len(matrix) == 5
        for i, row in enumerate(matrix):
            assert row[i] == 0.0
            for j in range(5):
                assert row[j] == matrix[j][i]


def write_report_run(tmp_path, methods):
    """A run directory whose metrics.csv holds one rotation row per method."""
    run = tmp_path / "run"
    run.mkdir()
    rows = [MetricsRow(method, "rotation", 0, None, 0.9, 0.8, 0.7) for method in methods]
    (run / "metrics.csv").write_text(rows_to_csv(rows))
    (run / "config.json").write_text(json.dumps(
        {"family": "rotation", "eval_dataset": {"kind": "minidigits"}}))
    return run


class TestReport:
    def test_single_run_table(self, trained_run, capsys):
        assert main(["report", str(trained_run)]) == 0
        out = capsys.readouterr().out
        assert "Accuracy" in out and "Robustness" in out and "Invariance" in out
        assert "| shift |" in out  # markdown rendering present
        assert "S (lam=" in out

    def test_merged_runs_cover_both_shifts(self, trained_run, tmp_path, capsys):
        config_path, out2 = write_config(tmp_path, family="contrast")
        assert main(["train", "--config", str(config_path)]) == 0
        assert main(["report", str(trained_run), str(out2), "--out",
                     str(tmp_path / "rep")]) == 0
        text = capsys.readouterr().out
        assert "rotation" in text and "contrast" in text
        report_csv = (tmp_path / "rep" / "report.csv").read_text()
        # one accuracy line per (shift, method) pair: contrast B, rotation B+S
        assert report_csv.count("accuracy") == 3
        assert (tmp_path / "rep" / "report.md").read_text().startswith("| shift |")

    def test_lambda_rule_runs_once_per_report(self, trained_run, calls_to):
        calls = calls_to("cli.select_lambdas")
        assert main(["report", str(trained_run)]) == 0
        assert len(calls) == 1

    def test_pipe_table_keeps_each_method_in_its_column(self, tmp_path):
        # an empty name, or one holding two spaces, is a valid metrics.csv
        # method; the pipe table must not re-split it out of aligned text
        run = write_report_run(tmp_path, ("B", "", "my  method"))
        assert main(["report", str(run), "--out", str(tmp_path / "rep")]) == 0
        lines = (tmp_path / "rep" / "report.md").read_text().splitlines()
        header = [cell.strip() for cell in lines[0].split("|")[1:-1]]
        assert header == ["shift", "metric", "B", "", "my  method"]
        assert len({line.count("|") for line in lines}) == 1
        assert lines[2] == "| rotation | Accuracy | 90.0+-0.0 | 90.0+-0.0 | 90.0+-0.0 |"

    def test_pipe_in_a_method_name_stays_inside_its_cell(self, tmp_path):
        run = write_report_run(tmp_path, ("B", "a|b"))
        assert main(["report", str(run), "--out", str(tmp_path / "rep")]) == 0
        lines = (tmp_path / "rep" / "report.md").read_text().splitlines()
        unescaped = {line.count("|") - line.count("\\|") for line in lines}
        assert unescaped == {5}
        assert lines[0] == "| shift | metric | B | a\\|b |"

    def test_line_break_in_a_method_name_exits_3(self, tmp_path, capsys):
        run = write_report_run(tmp_path, ("B", "a\nb"))
        assert main(["report", str(run), "--out", str(tmp_path / "rep")]) == 3
        err = capsys.readouterr().err
        assert f"artifact error: run directory {run}: bad metrics.csv: metrics line" in err
        assert not (tmp_path / "rep").exists()

    def test_same_family_different_eval_data_is_rejected(
            self, trained_run, tmp_path, capsys):
        doc = base_config(tmp_path / "other",
                          dataset={"kind": "minidigits", "n": 60, "seed": 9})
        config_path = tmp_path / "other.json"
        config_path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(config_path)]) == 0
        code = main(["report", str(trained_run), str(tmp_path / "other")])
        assert code == 3
        assert "different evaluation dataset" in capsys.readouterr().err

    def test_missing_dir_exits_3(self, tmp_path):
        assert main(["report", str(tmp_path / "ghost")]) == 3

    @pytest.mark.parametrize("name,text,message", [
        ("metrics.csv", "", "unexpected metrics header []"),
        ("metrics.csv", "{header}\nB,rotation,0,,0.9,0.8,0.7\nB,rotation,1,,0.9\n",
         "metrics line 3"),
        ("metrics.csv", "{header}\nB,rotation,0,,high,0.8,0.7\n", "metrics line 2"),
        ("config.json", "[]", "config.json is not a JSON object"),
    ], ids=["empty-metrics", "short-row", "non-numeric", "config-list"])
    def test_malformed_run_dir_exits_3_naming_it(self, trained_run, tmp_path, capsys,
                                                 name, text, message):
        run = tmp_path / "run"
        shutil.copytree(trained_run, run)
        header = (run / "metrics.csv").read_text().splitlines()[0]
        (run / name).write_text(text.format(header=header))
        assert main(["report", str(run)]) == 3
        err = capsys.readouterr().err
        assert f"artifact error: run directory {run}: " in err
        assert message in err
