import csv
import ctypes
import functools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import robustagg
from robustagg import cli
from robustagg.cli import _read_shard, main, make_study_config, parse_config_file
from robustagg.distsim import (
    ContaminationKind,
    ContaminationSpec,
    StudyConfig,
    generate_dataset,
    partition,
)
from robustagg.errors import ConfigError
from robustagg import distsim, models, numkit, spatialmed
from robustagg.models import ModelKind


def write_config(tmp_path, text):
    path = tmp_path / "study.cfg"
    path.write_text(text)
    return path


def no_read(*args, **kwargs):
    raise AssertionError("a shard was read")


def namespace_with_defaults(**kwargs):
    ns = cli.build_parser().parse_args(["simulate"])
    for key, value in kwargs.items():
        setattr(ns, key, value)
    return ns


class TestConfigParsing:
    def test_minimal_file_fills_defaults(self, tmp_path):
        path = write_config(tmp_path, "model = logistic\nK = 20\nn = 1000\n")
        config, workers = make_study_config(
            parse_config_file(path), namespace_with_defaults()
        )
        assert config.model is ModelKind.LOGISTIC
        assert config.n_servers == 20
        assert config.shard_size == 1000
        assert config.c == 1.345
        assert config.alpha == 0.05
        assert config.replicates == 200
        assert workers >= 1

    def test_override_wins_over_file(self, tmp_path):
        path = write_config(tmp_path, "c = 1.345\n")
        config, _ = make_study_config(
            parse_config_file(path), namespace_with_defaults(c=0.9818)
        )
        assert config.c == 0.9818

    @pytest.mark.parametrize(
        "text, message",
        [
            ("model = probit\n", "unknown model 'probit' (expected 'logistic' or 'linear')"),
            (
                "contamination = all\n",
                "unknown contamination 'all' (expected one of "
                + ", ".join(k.value for k in ContaminationKind) + ")",
            ),
        ],
    )
    def test_unknown_enum_value_is_named(self, tmp_path, text, message):
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError) as excinfo:
            make_study_config(parse_config_file(path), namespace_with_defaults())
        assert str(excinfo.value) == message

    def test_unset_keys_keep_the_dataclass_defaults(self, monkeypatch):
        monkeypatch.delenv("ROBUSTAGG_WORKERS", raising=False)
        assert make_study_config({}, namespace_with_defaults()) == (StudyConfig(), 1)

    def test_comments_and_blank_lines(self, tmp_path):
        path = write_config(tmp_path, "# comment\n\nK = 8  # trailing\n")
        assert parse_config_file(path) == {"K": 8}

    def test_unknown_key_names_key_and_line(self, tmp_path):
        path = write_config(tmp_path, "K = 8\nbogus = 1\n")
        with pytest.raises(ConfigError, match=r"2: unknown key 'bogus'"):
            parse_config_file(path)

    def test_unreadable_file_is_named(self, tmp_path):
        path = tmp_path / "missing.cfg"
        with pytest.raises(ConfigError) as excinfo:
            parse_config_file(path)
        assert str(excinfo.value) == (
            f"cannot read config file {path}: [Errno 2] No such file or directory: '{path}'"
        )

    def test_line_without_equals_names_line(self, tmp_path):
        path = write_config(tmp_path, "K = 8\nK 9\n")
        with pytest.raises(ConfigError) as excinfo:
            parse_config_file(path)
        assert str(excinfo.value) == f"{path}:2: expected 'key = value', got 'K 9'"

    def test_type_error_names_key(self, tmp_path):
        path = write_config(tmp_path, "K = many\n")
        with pytest.raises(ConfigError, match="'K'"):
            parse_config_file(path)

    def test_constraint_violation(self, tmp_path):
        path = write_config(tmp_path, "K = 0\n")
        with pytest.raises(ConfigError):
            make_study_config(parse_config_file(path), namespace_with_defaults())

    # One value per study key, as a config file and a flag spell it; each
    # differs from the key's default.
    ONE_KEY = {
        "model": "linear",
        "theta0": "1.5, -2",
        "K": "7",
        "n": "30",
        "c": "0.9",
        "alpha": "0.1",
        "replicates": "9",
        "seed": "5",
        "contamination": "gaussian",
        "count": "1",
        "gaussian_scale": "3.5",
        "omniscient_value": "3,4",
        "workers": "2",
    }

    @pytest.mark.parametrize("key", list(ONE_KEY))
    def test_file_and_flag_set_a_key_alike(self, tmp_path, monkeypatch, key):
        monkeypatch.delenv("ROBUSTAGG_WORKERS", raising=False)
        value = self.ONE_KEY[key]
        from_file = make_study_config(
            parse_config_file(write_config(tmp_path, f"{key} = {value}\n")),
            namespace_with_defaults(),
        )
        flag = "--" + key.replace("_", "-")
        from_flag = make_study_config({}, cli.build_parser().parse_args(["simulate", flag, value]))
        assert from_file == from_flag
        assert from_file != (StudyConfig(), 1)

    def test_every_key_has_a_flag_with_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        entries = re.split(r"\n  (?=-)", capsys.readouterr().out)
        for key in self.ONE_KEY:
            flag = "--" + key.replace("_", "-")
            (entry,) = [e for e in entries if e.split(" ", 1)[0] == flag]
            assert len(entry.split(None, 2)) == 3, entry  # flag, metavar, help

    def test_contamination_settings(self, tmp_path):
        path = write_config(
            tmp_path, "contamination = omniscient\ncount = 2\nK = 20\nn = 100\n"
        )
        config, _ = make_study_config(parse_config_file(path), namespace_with_defaults())
        assert config.contamination.kind is ContaminationKind.OMNISCIENT
        assert config.contamination.count == 2


def make_shards(tmp_path, k=4, n=300, model=ModelKind.LOGISTIC, theta0=(2.0, 1.0), seed=5):
    data = generate_dataset(model, theta0, k * n, seed)
    shards = partition(data, k)
    paths = []
    header = ["y", "x1", "x2"]
    for i, shard in enumerate(shards, start=1):
        path = tmp_path / f"server_{i:02d}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for y, x in zip(shard.y, shard.X):
                writer.writerow([repr(float(y))] + [repr(float(v)) for v in x])
        paths.append(path)
    return paths


# metrics.csv of the linear K = 10, n = 50 study with one server sending
# 1e200 in both coordinates, at the default seed.
EXTREME_OMNISCIENT_METRICS = """\
estimator,coefficient,bias,sd,ase,cp,re
huber,1,0.028061401447131873,0.03563239468629736,0.046925114069775564,1.0,inf
huber,2,0.01861410006870079,0.05781075819388864,0.0480825293091692,1.0,inf
weighted_average,1,1e+199,0.0,nan,0.0,
weighted_average,2,1e+199,0.0,nan,0.0,
summary,hr,1.0,,,,
"""


class TestSimulateCommand:
    def test_writes_metrics_and_detection(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            [
                "simulate",
                "--model", "linear",
                "--K", "4",
                "--n", "50",
                "--replicates", "3",
                "--seed", "9",
                "--out-dir", str(out),
            ]
        )
        assert rc == 0
        assert (out / "metrics.csv").exists()
        assert (out / "detection_rates.csv").exists()
        table = capsys.readouterr().out
        assert "huber" in table and "weighted_average" in table

    def test_printed_rows_split_into_the_header_cells(self, tmp_path, capsys):
        # Coverages such as 0.0666667 take nine characters.
        args = [
            "simulate", "--model", "linear", "--theta0", "1,2", "--K", "5", "--n", "50",
            "--replicates", "3", "--c", "0.5", "--out-dir", str(tmp_path),
        ]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("estimator"))
        header = lines[start].split()
        rows = [line.split() for line in lines[start + 1 :] if line.startswith(("huber", "weighted"))]
        assert [row[0] for row in rows] == ["huber", "huber", "weighted_average", "weighted_average"]
        for row in rows:
            # The weighted average is the reference, so its re cell is empty.
            assert len(row) == len(header) - (row[0] == "weighted_average")
            for cell in row[1:]:
                float(cell)  # raises where two cells ran together

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate", "--model", "linear", "--K", "4", "--n", "50",
            "--replicates", "3", "--seed", "9",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (
            out1 / "detection_rates.csv"
        ).read_bytes() == (out2 / "detection_rates.csv").read_bytes()

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            [
                "simulate", "--model", "linear", "--K", "4", "--n", "50",
                "--replicates", "3", "--dry-run", "--out-dir", str(out),
            ]
        )
        assert rc == 0
        assert not out.exists()
        assert "dry run" in capsys.readouterr().out

    def test_omniscient_detection_section(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            [
                "simulate", "--model", "linear", "--K", "4", "--n", "100",
                "--replicates", "3", "--seed", "11",
                "--contamination", "omniscient", "--count", "1",
                "--out-dir", str(out),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "servers flagged in a majority of replicates: 1" in stdout
        with open(out / "detection_rates.csv") as fh:
            rates = dict(
                (row["server_id"], float(row["theta_flag_rate"]))
                for row in csv.DictReader(fh)
            )
        assert rates["1"] == 1.0
        # HR summary row present in the metrics file
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[-1] == "summary,hr,1.0,,,,"

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_wrong_length_omniscient_value_rejected_up_front(
        self, tmp_path, capsys, monkeypatch, dry_run
    ):
        def no_study(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(cli, "run_study", no_study)
        out = tmp_path / "out"
        args = [
            "simulate", "--contamination", "omniscient", "--omniscient-value", "1,2,3",
            "--replicates", "20", "--out-dir", str(out),
        ]
        assert main(args + (["--dry-run"] if dry_run else [])) == 1
        captured = capsys.readouterr()
        assert "omniscient_value has 3 coordinates, theta0 has 2" in captured.err
        assert "dry run" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_one_replicate_rejected_up_front(self, tmp_path, capsys, monkeypatch, dry_run):
        def no_study(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(cli, "run_study", no_study)
        out = tmp_path / "out"
        args = ["simulate", "--replicates", "1", "--out-dir", str(out)]
        assert main(args + (["--dry-run"] if dry_run else [])) == 1
        captured = capsys.readouterr()
        assert "a study needs at least 2 replicates" in captured.err
        assert "dry run" not in captured.out
        assert not out.exists()

    def test_extreme_omniscient_value_completes(self, tmp_path):
        rc = main(
            [
                "simulate", "--model", "linear", "--theta0", "1,2", "--K", "10",
                "--n", "50", "--replicates", "4", "--contamination", "omniscient",
                "--count", "1", "--omniscient-value", "1e200,1e200",
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert rc == 0

    @pytest.mark.filterwarnings("error")
    def test_extreme_omniscient_value_warns_of_nothing(self, tmp_path):
        # The corrupted server's sandwich, its d1 and the weighted average's
        # MSE overflow; each is then inf or NaN, as these metrics show.
        out = tmp_path / "out"
        rc = main(
            [
                "simulate", "--model", "linear", "--theta0", "1,2", "--K", "10",
                "--n", "50", "--replicates", "4", "--contamination", "omniscient",
                "--count", "1", "--omniscient-value", "1e200,1e200", "--workers", "1",
                "--out-dir", str(out),
            ]
        )
        assert rc == 0
        assert (out / "metrics.csv").read_text() == EXTREME_OMNISCIENT_METRICS

    @pytest.mark.filterwarnings("error")
    def test_fits_whose_sandwich_sums_overflow_fail_their_replicates(self, tmp_path, capsys):
        # At theta0 = (1e300, 2) every clean fit's sandwich sums overflow:
        # each replicate fails with the package's error, which the study
        # counts, and numpy warns of nothing.
        argv = [
            "simulate", "--model", "linear", "--theta0", "1e300,2", "--K", "5", "--n", "50",
            "--replicates", "3", "--workers", "1", "--out-dir", str(tmp_path / "out"),
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 3 of 3 replicates failed (first failure: sandwich variance ")
        assert "inf" in err

    def test_non_numeric_theta0_is_rejected(self, tmp_path, capsys):
        # A field with an inner space, or an empty field, is not a number;
        # neither is glued to or dropped from its neighbours.
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "theta0 = 2,,1\n")
        for args, key in [
            (["--theta0", "1,a"], "theta0"),
            (["--theta0", "1 0,2"], "theta0"),
            (["--theta0", "2,,1"], "theta0"),
            (["--theta0", "2,1,"], "theta0"),
            (["--config", str(cfg)], "theta0"),
            (["--contamination", "omniscient", "--omniscient-value", "1 0,2"], "omniscient_value"),
            (["--contamination", "omniscient", "--omniscient-value", "2,,1"], "omniscient_value"),
        ]:
            assert main(["simulate", *args, "--out-dir", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"error: {key} must be a comma-separated list of numbers\n"
            )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--contamination", "gaussian", "--gaussian-scale", "nan"], "gaussian_scale must be positive and finite"),
            (["--model", "linear", "--theta0", "nan,1"], "theta0 must be finite"),
            (["--model", "logistic", "--theta0", "1,inf"], "theta0 must be finite"),
        ],
    )
    def test_non_finite_design_is_rejected(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert main(["simulate", *flags, "--replicates", "2", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True])
    def test_unusable_out_dir_is_an_error_before_the_study(self, tmp_path, monkeypatch, capsys, below):
        monkeypatch.setattr(cli, "run_study", lambda *a, **k: pytest.fail("the study ran"))
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out" if below else blocker
        argv = [
            "simulate", "--model", "linear", "--theta0", "1,2", "--K", "4", "--n", "50",
            "--replicates", "3", "--out-dir", str(out),
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(blocker) in err
        # A dry run makes no directory, so it does not test the path.
        assert main(argv + ["--dry-run"]) == 0

    def test_invalid_config_returns_nonzero(self, tmp_path, capsys):
        rc = main(["simulate", "--K", "0", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_config_file_end_to_end(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "model = linear\nK = 4\nn = 50\nreplicates = 3\nseed = 13\n",
        )
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 0
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "estimator,coefficient,bias,sd,ase,cp,re"


class TestPipelineCommand:
    def test_end_to_end_consistency(self, tmp_path, capsys):
        paths = make_shards(tmp_path, k=4, n=500, seed=21)
        out = tmp_path / "out"
        rc = main(
            ["fit-aggregate-detect", *map(str, paths), "--model", "logistic",
             "--c", "1.345", "--out-dir", str(out)]
        )
        assert rc == 0
        with open(out / "aggregate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["name"] for r in rows] == ["x1", "x2"]
        theta = np.array([float(r["huber"]) for r in rows])
        se = np.array([float(r["huber_se"]) for r in rows])
        assert np.all(np.abs(theta - [2.0, 1.0]) <= 5 * se)
        with open(out / "detection.csv") as fh:
            detection = list(csv.DictReader(fh))
        assert len(detection) == 4
        assert all(r["theta_flagged"] == "False" for r in detection)

    def test_shard_path_order_is_not_server_order(self, tmp_path, monkeypatch):
        # Path sorts "a-b.csv" before "a.csv"; server order puts id "a"
        # before "a-b".  One directory per shard puts the same stems in
        # path order too, so that round needs no sort.
        texts = [p.read_text() for p in make_shards(tmp_path, k=3, n=300, seed=8)]
        stems = ["a", "a-b", "b"]
        flat = [tmp_path / "flat" / f"{stem}.csv" for stem in stems]
        nested = [tmp_path / "nested" / str(k) / f"{stem}.csv" for k, stem in enumerate(stems)]
        for path, text in [*zip(flat, texts), *zip(nested, texts)]:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        assert [p.stem for p in sorted(flat)] == ["a-b", "a", "b"]
        assert [p.stem for p in sorted(nested)] == stems

        sorts = []
        admit = distsim.admit

        def counting(received, p=None):
            view = admit(received, p)
            sorts.append(view is not received)
            return view

        monkeypatch.setattr(distsim, "admit", counting)
        written = {}
        for name, paths in (("flat", flat), ("nested", nested)):
            out = tmp_path / name / "out"
            assert main(["fit-aggregate-detect", *map(str, paths), "--out-dir", str(out)]) == 0
            written[name] = [(out / f).read_bytes() for f in ("aggregate.csv", "detection.csv")]
        assert sorts == [False, False]  # the round was sent in server order
        assert written["flat"] == written["nested"]
        rows = list(csv.reader(written["flat"][1].decode().splitlines()))
        assert [r[0] for r in rows[1:]] == stems

    def test_unfittable_shard_is_named(self, tmp_path, capsys):
        paths = make_shards(tmp_path, k=5, n=300)
        lines = paths[2].read_text().splitlines(keepends=True)
        paths[2].write_text(lines[0] + "".join("0.0" + line[line.index(","):] for line in lines[1:]))
        assert main(["fit-aggregate-detect", *map(str, paths), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {paths[2]}: only one response class present; logistic MLE does not exist\n"
        )

    @pytest.mark.parametrize(
        "sizes, bad, rows",
        [
            # Every size its own, the bad shard last: each shard is fitted
            # once, alone.
            ((120, 150, 180, 210, 240), 5, 5),
            # The bad shard s03 shares a stacked pass with s01: the pass (2
            # rows) raises, then s01, s02 and s03 are fitted alone, in order,
            # up to the bad one; s04 is never fitted.
            ((150, 200, 150, 260), 3, 5),
        ],
    )
    def test_failing_run_fits_in_fit_shards_only(self, tmp_path, capsys, monkeypatch, sizes, bad, rows):
        data = generate_dataset(ModelKind.LOGISTIC, (2.0, 1.0), sum(sizes), 9)
        paths, start = [], 0
        for k, n in enumerate(sizes, start=1):
            y = data.y[start : start + n] * (k != bad)
            path = tmp_path / f"s{k:02d}.csv"
            path.write_text("y,x1,x2\n" + "".join(
                f"{v!r},{a!r},{b!r}\n" for v, (a, b) in zip(y.tolist(), data.X[start : start + n].tolist())
            ))
            paths.append(path)
            start += n
        fitted = []
        fit_group = models._fit_group

        def counting(model, X, y):
            fitted.append(len(X))
            return fit_group(model, X, y)

        monkeypatch.setattr(models, "_fit_group", counting)
        assert main(["fit-aggregate-detect", *map(str, paths), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {paths[bad - 1]}: only one response class present; logistic MLE does not exist\n"
        )
        assert sum(fitted) == rows

    def test_header_mismatch_rejected(self, tmp_path):
        paths = make_shards(tmp_path, k=2, n=100)
        bad = tmp_path / "server_99.csv"
        bad.write_text("y,z1,z2\n1.0,0.5,0.25\n")
        rc = main(["fit-aggregate-detect", *map(str, paths), str(bad)])
        assert rc == 1

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1.0,0.5\n0.0,oops\n")
        rc = main(["fit-aggregate-detect", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "3" in err and "x1" in err and "oops" in err

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1.0,0.5\n0.0,oops\n1.0\n", "3: column 2 ('x1') is not numeric: 'oops'"),
            ("1.0,0.5\n1.0\n0.0,oops\n", "3: row has 1 cells, header has 2"),
            ("1.0,0.5\nno,1,2\n", "3: row has 3 cells, header has 2"),
            ("\n1.0,0.5\n\nno,0.1\n", "5: column 1 ('y') is not numeric: 'no'"),
            ("1.0,0.5\r\n0.0,\r\n", "3: column 2 ('x1') is not numeric: ''"),
        ],
    )
    def test_first_defect_in_file_order_is_reported(self, tmp_path, capsys, body, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(("y,x1\n" + body).encode())
        assert main(["fit-aggregate-detect", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:{message}\n"

    @pytest.mark.parametrize(
        "cell, blank",
        [("inf", ""), ("-inf", ""), ("nan", ""), ("1e400", ""), ("inf", "\n")],
        ids=["inf", "-inf", "nan", "1e400 (plain text)", "after a blank line"],
    )
    def test_non_finite_cell_is_named(self, tmp_path, capsys, cell, blank):
        paths = make_shards(tmp_path, k=3, n=200)
        lines = paths[1].read_text().splitlines(keepends=True)
        lines.insert(4, f"{blank}1,0.3,{cell}\n")
        paths[1].write_text("".join(lines))
        line = 5 + len(blank)
        assert main(["fit-aggregate-detect", *map(str, paths), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {paths[1]}:{line}: column 3 ('x2') is not finite: {cell!r}\n"

    def test_defect_before_an_undecodable_byte_is_reported_first(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(("y,x1\n0.0,oops\n" + "1.0,0.5\n" * 2000).encode() + b"\xff\n")
        assert main(["fit-aggregate-detect", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: column 2 ('x1') is not numeric: 'oops'\n"

    def test_cell_over_the_csv_field_limit_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("y,x1\n1.0,0.5\n0.0," + "1" * 200_000 + "\n")
        assert main(["fit-aggregate-detect", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: cannot read shard: field larger than field limit (131072)\n"
        )

    @pytest.mark.parametrize("head", [b"y,x1\n1.0,0.5\n", b"", b"\xef\xbb\xbfy,x1\n1.0,0.5\n"])
    def test_undecodable_byte_is_a_config_error(self, tmp_path, capsys, head):
        path = tmp_path / "bytes.csv"
        path.write_bytes(head + b"0.0,0.\xff\n")
        assert main(["fit-aggregate-detect", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: cannot read shard: ")
        assert "'utf-8' codec can't decode byte 0xff" in err

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain reader", "csv reader"])
    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, quoted):
        # A leading BOM, as "CSV UTF-8" exports write it, on one shard with
        # LF endings, which np.loadtxt reads.  A quoted cell sends its body
        # to csv instead, which reads it again from the start of the file.
        paths = make_shards(tmp_path, k=3, n=200)
        body = paths[1].read_text().encode()
        if quoted:
            header, first, rest = body.split(b"\n", 2)
            y, cells = first.split(b",", 1)
            body = b"\n".join([header, b'"' + y + b'",' + cells, rest])
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
        outputs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            paths[1].write_bytes(bom + body)
            out = tmp_path / f"out{len(bom)}"
            assert main(["fit-aggregate-detect", *map(str, paths), "--out-dir", str(out)]) == 0
            outputs.append([(out / f).read_bytes() for f in ("aggregate.csv", "detection.csv")])
        assert outputs[0] == outputs[1]
        assert len(calls) == (0 if quoted else 2)

    def test_header_naming_y_twice_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "twice.csv"
        path.write_text("y,x1,y\n1.0,0.5,1.0\n0.0,0.1,0.0\n")
        assert main(["fit-aggregate-detect", str(path), "--dry-run"]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: header names the 'y' column more than once\n"
        )

    def test_cell_spellings_float_accepts_write_the_same_bytes(self, tmp_path, capsys):
        # Quoted cells, padded cells, 1_0, CRLF endings and blank lines read
        # the doubles of the plain spelling.
        (tmp_path / "plain").mkdir()
        (tmp_path / "spelled").mkdir()
        plain = make_shards(tmp_path / "plain", k=3, n=200, seed=47)
        for path in plain:
            header, *rows = [line.split(",") for line in path.read_text().splitlines()]
            rows[0][2] = "10.0"
            path.write_text("\n".join(map(",".join, [header, *rows])) + "\n")
            rows[0][2] = "1_0"
            spelled = [header] + [[f'"{y}"', f" {x1} ", x2] for y, x1, x2 in rows]
            lines = [",".join(row) + ("\r\n\r\n" if i % 50 == 0 else "\r\n")
                     for i, row in enumerate(spelled)]
            (tmp_path / "spelled" / path.name).write_bytes("".join(lines).encode())
        spelled = sorted((tmp_path / "spelled").glob("*.csv"))
        want = self.run_pipeline(plain, tmp_path / "plain_out", capsys)
        got = self.run_pipeline(spelled, tmp_path / "spelled_out", capsys)
        assert want[0] == 0 and got == want

    def test_missing_file(self, tmp_path):
        rc = main(["fit-aggregate-detect", str(tmp_path / "nope.csv")])
        assert rc == 1

    def test_empty_shard(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("y,x1\n")
        rc = main(["fit-aggregate-detect", str(path)])
        assert rc == 1

    def test_empty_shard_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["fit-aggregate-detect", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: shard file is empty\n"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            pytest.param("--c", "0", "tuning constant c must be positive", id="--c-0-c must be positive"),
            ("--c", "-inf", "tuning constant c must be positive"),
            ("--alpha", "1", "alpha must lie strictly between 0 and 1"),
        ],
    )
    def test_bad_tuning_value_is_rejected(self, tmp_path, capsys, monkeypatch, flag, value, message):
        paths = make_shards(tmp_path, k=2, n=100)
        monkeypatch.setattr(cli, "_read_shard", no_read)
        out = tmp_path / "out"
        # Checked before any shard is read, so a dry run rejects it too.
        for dry_run in ([], ["--dry-run"]):
            rc = main(["fit-aggregate-detect", *map(str, paths), f"{flag}={value}", "--out-dir", str(out), *dry_run])
            assert rc == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    def test_worker_variable_is_not_read(self, tmp_path, monkeypatch):
        # Only a study runs workers; the shard command takes no worker count.
        monkeypatch.setenv("ROBUSTAGG_WORKERS", "none")
        paths = make_shards(tmp_path, k=2, n=100)
        assert main(["fit-aggregate-detect", *map(str, paths), "--dry-run"]) == 0

    def test_model_choices_are_the_model_kinds(self, capsys):
        parser = cli.build_parser()
        for kind in ModelKind:
            assert parser.parse_args(["fit-aggregate-detect", "s.csv", "--model", kind.value]).model == kind.value
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["fit-aggregate-detect", "s.csv", "--model", "probit"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'probit'" in capsys.readouterr().err

    @pytest.mark.parametrize("layout", ["two_directories", "one_file_twice"])
    @pytest.mark.parametrize("dry_run", [False, True])
    def test_shards_sharing_a_server_id_are_rejected(
        self, tmp_path, capsys, monkeypatch, layout, dry_run
    ):
        # The server id is the file stem: a/s0.csv and b/s0.csv would both
        # be server 's0', and naming one file twice would count its rows twice.
        shards = make_shards(tmp_path, k=5, n=100)
        if layout == "two_directories":
            (tmp_path / "a").mkdir()
            (tmp_path / "b").mkdir()
            paths = [tmp_path / "a" / f"s{i}.csv" for i in range(4)] + [tmp_path / "b" / "s0.csv"]
            for src, dst in zip(shards, paths):
                dst.write_bytes(src.read_bytes())
            first, second = paths[0], paths[4]
        else:
            paths = [tmp_path / "s0.csv", tmp_path / "s0.csv", tmp_path / "s1.csv"]
            for src, dst in zip(shards, paths[1:]):
                dst.write_bytes(src.read_bytes())
            first = second = paths[0]
        monkeypatch.setattr(cli, "_read_shard", no_read)
        out = tmp_path / "out"
        args = ["fit-aggregate-detect", *map(str, paths), "--out-dir", str(out)]
        assert main(args + (["--dry-run"] if dry_run else [])) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: shards {first} and {second} share the server id 's0'\n"
        assert captured.out == ""
        assert not out.exists()

    def test_missing_y_column(self, tmp_path):
        path = tmp_path / "noy.csv"
        path.write_text("resp,x1\n1.0,0.5\n")
        rc = main(["fit-aggregate-detect", str(path)])
        assert rc == 1

    def test_non_binary_logistic_response_is_diagnosed(self, tmp_path, capsys):
        path = tmp_path / "bad_response.csv"
        path.write_text("y,x1\n1.0,0.5\n2.0,-0.3\n0.0,0.1\n")
        rc = main(["fit-aggregate-detect", str(path), "--model", "logistic"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [False, True])
    def test_unusable_out_dir_is_an_error_before_the_fits(self, tmp_path, monkeypatch, capsys, below):
        paths = make_shards(tmp_path, k=2, n=100)
        monkeypatch.setattr(cli, "fit_shards", lambda *a, **k: pytest.fail("a shard was fit"))
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out" if below else blocker
        argv = ["fit-aggregate-detect", *map(str, paths), "--out-dir", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(blocker) in err
        assert main(argv + ["--dry-run"]) == 0

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        paths = make_shards(tmp_path, k=2, n=100)
        out = tmp_path / "out"
        rc = main(
            ["fit-aggregate-detect", *map(str, paths), "--dry-run", "--out-dir", str(out)]
        )
        assert rc == 0
        assert not out.exists()

    def test_trusted_server_option(self, tmp_path, capsys, monkeypatch):
        paths = make_shards(tmp_path, k=3, n=400, seed=33)
        out = tmp_path / "out"
        rc = main(
            [
                "fit-aggregate-detect", *map(str, paths),
                "--trusted-server", "server_01", "--out-dir", str(out),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        # Checked against the shard stems before any shard is read.
        monkeypatch.setattr(cli, "_read_shard", no_read)
        for dry_run in ([], ["--dry-run"]):
            rc = main(
                [
                    "fit-aggregate-detect", *map(str, paths),
                    "--trusted-server", "missing", "--out-dir", str(out), *dry_run,
                ]
            )
            assert rc == 1
            assert capsys.readouterr().err == "error: trusted server 'missing' not among shards\n"

    def test_trusted_server_matrix_is_decomposed_once(self, tmp_path, monkeypatch):
        # The CLI checks the trusted matrix, and process(), the Huber step
        # and detect reuse that check's factorization.
        paths = make_shards(tmp_path, k=3, n=400, seed=33)
        calls = []
        eigh = numkit._eigh

        def counting(a):
            calls.append(a)
            return eigh(a)

        monkeypatch.setattr(numkit, "_eigh", counting)
        rc = main(
            [
                "fit-aggregate-detect", *map(str, paths),
                "--trusted-server", "server_02", "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        assert len(calls) == 1

    def test_trusted_server_not_pd_is_named(self, tmp_path, capsys):
        # A two-row linear shard is fitted exactly, so its sandwich is zero.
        paths = make_shards(tmp_path, k=4, n=100, model=ModelKind.LINEAR, seed=33)
        lines = paths[2].read_text().splitlines(keepends=True)
        paths[2].write_text("".join(lines[:3]))
        out = tmp_path / "out"
        rc = main(
            [
                "fit-aggregate-detect", *map(str, paths), "--model", "linear",
                "--trusted-server", "server_03", "--out-dir", str(out),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: trusted server 'server_03' cannot standardize the round: its variance "
            "matrix is not positive definite (smallest eigenvalue "
        )
        assert "pd_project" not in err
        # The directory is made before the shards are fit; nothing is written.
        assert list(out.iterdir()) == []

    @staticmethod
    def run_pipeline(paths, out, capsys):
        rc = main(["fit-aggregate-detect", *map(str, paths), "--out-dir", str(out)])
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        return rc, files, capsys.readouterr().err

    def test_stacked_fits_write_the_per_shard_bytes(self, tmp_path, capsys, monkeypatch):
        # Three 300-row shards share a stacked pass; the trimmed one is
        # fitted alone.  A one-shard pass limit fits every shard alone.
        paths = make_shards(tmp_path, k=4, n=300, seed=41)
        lines = paths[2].read_text().splitlines(keepends=True)
        paths[2].write_text("".join(lines[:201]))
        stacked = self.run_pipeline(paths, tmp_path / "stacked", capsys)
        monkeypatch.setattr(models, "STACK_ENTRIES", 0)
        alone = self.run_pipeline(paths, tmp_path / "alone", capsys)
        assert stacked[0] == 0 and stacked == alone

    def test_failing_shard_in_a_stacked_pass_reports_its_own_error(
        self, tmp_path, capsys, monkeypatch
    ):
        paths = make_shards(tmp_path, k=4, n=300, seed=43)
        lines = paths[1].read_text().splitlines(keepends=True)
        one_class = [lines[0]] + ["1.0" + line[line.index(","):] for line in lines[1:]]
        paths[1].write_text("".join(one_class))
        stacked = self.run_pipeline(paths, tmp_path / "stacked", capsys)
        monkeypatch.setattr(models, "STACK_ENTRIES", 0)
        alone = self.run_pipeline(paths, tmp_path / "alone", capsys)
        assert stacked[0] == 1 and "response class" in stacked[2]
        assert stacked == alone


SPELLINGS = (repr, "{:.17g}".format, "{:.12e}".format, "{:.3g}".format)


@st.composite
def shard_texts(draw):
    """A shard's text and the cell strings csv hands to the parser."""
    p = draw(st.integers(0, 3))
    header = [f"x{j + 1}" for j in range(p)]
    header.insert(draw(st.integers(0, p)), "y")
    cells = [
        [
            " " * draw(st.integers(0, 2))
            + draw(st.sampled_from(SPELLINGS))(draw(st.floats(allow_nan=False, allow_infinity=False)))
            + " " * draw(st.integers(0, 2))
            for _ in header
        ]
        for _ in range(draw(st.integers(1, 6)))
    ]
    quoted = [[f'"{c}"' if draw(st.booleans()) else c for c in row] for row in cells]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(",".join(row) for row in [header, *quoted]) + newline
    return header, cells, text


def reference_read(path):
    """A shard read by ``csv.reader`` and one ``float()`` per cell, stopping
    at the first defect: (header, table) or the ConfigError of the CLI."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows = []
        try:
            for rowno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ConfigError(
                        f"{path}:{rowno}: row has {len(row)} cells, header has {len(header)}"
                    )
                values = []
                for colno, cell in enumerate(row, start=1):
                    try:
                        values.append(float(cell))
                    except ValueError:
                        raise ConfigError(
                            f"{path}:{rowno}: column {colno} ({header[colno - 1]!r}) "
                            f"is not numeric: {cell!r}"
                        ) from None
                rows.append(values)
        except csv.Error as exc:
            raise ConfigError(f"{path}: cannot read shard: {exc}") from None
    if not rows:
        raise ConfigError(f"{path}: shard contains no observations")
    return header, np.array(rows)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
PLAIN_CELLS = st.one_of(
    FINITE.map(repr),
    st.floats(-2.3e-308, 2.3e-308).map(repr),  # subnormals
    st.tuples(st.integers(1, 25), FINITE).map(lambda t: "%.*g" % t),
    st.sampled_from(
        ["-0", "0", ".5", "5.", "+3", "00012", "1e400", "-1e400", "1e-400", "1E5", "-.5e-3",
         "4.9e-324", "2.4703282292062327e-324", "1.7976931348623159e308",
         "e5", ".", "1e", "--1", "1.0.0", "+-1"]
    ),
)
SPELLED_CELLS = st.one_of(
    PLAIN_CELLS.map(" {}".format),
    PLAIN_CELLS.map("{}\t".format),
    PLAIN_CELLS.map('"{}"'.format),
    st.sampled_from(["1_0", "inf", "-Infinity", "nan", "NaN", "", "oops", "\u0663", "1\u00e9"]),
)
# A field csv rejects, spelled in plain decimal characters.
OVER_THE_LIMIT = "0." + "0" * csv.field_size_limit() + "1"


@st.composite
def shard_bodies(draw):
    """A shard's header and text: plain decimal rows, or rows that may hold
    spelled, ragged, blank or over-long cells, with LF or CRLF endings."""
    p = draw(st.integers(0, 3))
    header = [f"x{j + 1}" for j in range(p)]
    header.insert(draw(st.integers(0, p)), "y")
    cells = st.one_of(PLAIN_CELLS, SPELLED_CELLS) if draw(st.booleans()) else PLAIN_CELLS
    kinds = ["full"] * 6 + (["ragged", "blank", "long"] if draw(st.booleans()) else [])
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
            continue
        width = len(header)
        if kind == "ragged":
            width = draw(st.integers(1, len(header) + 2).filter(lambda n: n != len(header)))
        row = [draw(cells) for _ in range(width)]
        if kind == "long":
            row[draw(st.integers(0, width - 1))] = OVER_THE_LIMIT
        lines.append(",".join(row))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    end = newline if draw(st.booleans()) else ""
    return header, newline.join(lines) + end


def assert_reads_as_reference(path):
    try:
        header, table = reference_read(path)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as got:
            _read_shard(path, None)
        assert str(got.value) == str(exc)
        return
    if not np.isfinite(table).all():
        with pytest.raises(ValueError, match="finite"):
            _read_shard(path, None)
        return
    got_header, obs = _read_shard(path, None)
    y_idx = header.index("y")
    assert got_header == header
    assert obs.y.tobytes() == table[:, y_idx].tobytes()
    assert obs.X.tobytes() == np.delete(table, y_idx, axis=1).tobytes()


class TestShardParser:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shard_bodies())
    def test_reads_what_csv_and_float_read(self, tmp_path, shard):
        path = tmp_path / "shard.csv"
        path.write_bytes(shard[1].encode())
        assert_reads_as_reference(path)

    @pytest.mark.parametrize(
        "spelling, plain",
        [
            (lambda text: text, True),
            (lambda text: text.replace("\n1.0,", '\n"1.0",', 1), False),
            (lambda text: text.replace("\n1.0,", "\n 1.0,", 1), False),
            (lambda text: text.replace("\n", "\r\n"), False),
            (lambda text: text.replace("\n1.0,", "\n1_0,", 1), False),
        ],
        ids=["repr", "quoted", "padded", "crlf", "underscore"],
    )
    def test_only_plain_shards_take_the_c_reader(self, tmp_path, monkeypatch, spelling, plain):
        rng = np.random.default_rng(3)
        rows = [
            [float(y)] + (rng.standard_normal(2) * 10.0 ** rng.uniform(-300, 300, 2)).tolist()
            for y in rng.integers(0, 2, 50)
        ]
        rows[0][0] = 1.0
        text = "y,x1,x2\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
        path = tmp_path / "shard.csv"
        path.write_text(spelling(text), newline="")
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
        assert_reads_as_reference(path)
        assert len(calls) == plain

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shard_texts())
    def test_reads_the_bits_of_float_per_cell(self, tmp_path, shard):
        header, cells, text = shard
        path = tmp_path / "shard.csv"
        path.write_bytes(text.encode())
        table = np.array([[float(c) for c in row] for row in cells])
        y_idx = header.index("y")
        if not np.isfinite(table).all():
            with pytest.raises(ValueError, match="finite"):
                _read_shard(path, None)
            return
        got_header, obs = _read_shard(path, None)
        assert got_header == header
        assert obs.y.tobytes() == table[:, y_idx].tobytes()
        assert obs.X.tobytes() == np.delete(table, y_idx, axis=1).tobytes()


def nudged(module, attr):
    """A fault that moves the output of ``module.attr`` up one ulp (the
    first item, if it returns a tuple)."""

    def apply(monkeypatch, *_):
        real = getattr(module, attr)

        def up(*args, **kwargs):
            out = real(*args, **kwargs)
            if isinstance(out, tuple):
                return (np.nextafter(out[0], np.inf), *out[1:])
            return np.nextafter(out, np.inf)

        monkeypatch.setattr(module, attr, up)

    return apply


def flipped(monkeypatch, name):
    """Flip one bit of the output of the check line ``name``."""

    def flip(kernel):
        def run(rng):
            data = bytearray(cli._bits(kernel(rng)))
            data[0] ^= 1
            return bytes(data)

        return run

    lines = [(n, s, d, flip(k) if n == name else k) for n, s, d, k in cli._CHECKS]
    monkeypatch.setattr(cli, "_CHECKS", tuple(lines))


# The fault that moves one line of ``check`` alone, by the kernel its name
# contains: a one-ulp nudge at the name the line calls, or, where other
# lines reach the same kernel, a flipped bit of the line's output.
CHECK_FAULTS = {
    "Generator": flipped,
    "numkit.vech": nudged(numkit, "vech"),
    "numkit.inv_sqrt_pd": nudged(numkit, "inv_sqrt_pd"),
    "numkit.pd_project": nudged(numkit, "pd_project"),
    "tau_c": nudged(cli, "tau_c"),
    "detection_threshold": nudged(cli, "detection_threshold"),
    "exact_column_means": flipped,
    "certificate's edges": flipped,
    "linear fit_shards": flipped,
    "lockstep Newton": flipped,
    "doubled Hessian column": flipped,
    "one shard per pass": flipped,
    "desk round": flipped,
    "eigh and solve": flipped,
    "weighted_average": nudged(cli, "weighted_average"),
    "_read_plain": nudged(cli, "_read_plain"),
    "csv shard path": nudged(cli, "_read_records"),
    "one dimension": flipped,
    "mixed dimensions": flipped,
    "golden bytes": flipped,
    "screen_positive_definite": flipped,
    "spatial_median": flipped,
}


def reseeded(monkeypatch):
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: real(seed + 1))


def big_endian_wire(monkeypatch):
    monkeypatch.setattr(distsim, "_WIRE_FLOAT", np.dtype(">f8"))


# For each line whose fault above is a flipped bit, a fault of the kernel
# itself, which the line must report among others.
SHARED_KERNEL_FAULTS = {
    "Generator": reseeded,
    "exact_column_means": nudged(numkit, "exact_column_means"),
    "certificate's edges": nudged(numkit, "exact_column_means"),
    "linear fit_shards": nudged(models, "_stacked_sandwich"),
    "lockstep Newton": nudged(models, "_newton"),
    "doubled Hessian column": nudged(models, "_logistic_hessians"),
    "one shard per pass": nudged(models, "_logistic_hessians"),
    "desk round": nudged(models, "_newton"),
    "eigh and solve": nudged(np.linalg, "solve"),
    "one dimension": big_endian_wire,
    "mixed dimensions": big_endian_wire,
    "golden bytes": big_endian_wire,
    # Every matrix certified: the indefinite ones pass.
    "screen_positive_definite": nudged(numkit, "_certified_pd"),
    "spatial_median": nudged(spatialmed, "_norms"),
}


class TestSmallCommands:
    def test_tau(self, capsys):
        assert main(["tau", "1.345"]) == 0
        out = capsys.readouterr().out
        assert "0.95" in out
        assert main(["tau", "inf"]) == 0
        assert "1" in capsys.readouterr().out

    def test_tau_of_zero_is_rejected(self, capsys):
        assert main(["tau", "0"]) == 1
        assert capsys.readouterr().err == "error: tuning constant c must be positive\n"

    @pytest.mark.parametrize("text", ["-inf", "nan"])
    def test_tau_of_minus_inf_or_nan_is_rejected(self, capsys, text):
        assert main(["tau", "--", text]) == 1
        assert capsys.readouterr().err == "error: tuning constant c must be positive\n"

    @pytest.mark.parametrize("text", ["inf", "INF", "Infinity", "1e155", "1e308"])
    def test_tau_of_infinity_is_one(self, capsys, text):
        assert main(["tau", text]) == 0
        assert capsys.readouterr().out == f"tau_c({text}) = 1\n"

    @pytest.mark.parametrize("text", ["1e-160", "5e-324"])
    def test_tau_of_a_tiny_c_is_two_over_pi(self, capsys, text):
        assert main(["tau", text]) == 0
        assert capsys.readouterr().out == f"tau_c({text}) = 0.63662\n"

    def test_check_passes(self, capsys):
        assert main(["check"]) == 0
        assert "all self-tests passed" in capsys.readouterr().out

    def test_check_pins_the_wire_bytes(self, monkeypatch, capsys):
        assert main(["check"]) == 0
        assert "ok   wire payload of a fixed estimate equals its golden bytes" in capsys.readouterr().out
        # A host that packed its doubles big-endian would send other bytes.
        monkeypatch.setattr(distsim, "_WIRE_FLOAT", np.dtype(">f8"))
        assert main(["check"]) == 1
        assert "FAIL wire payload of a fixed estimate equals its golden bytes" in capsys.readouterr().out

    def test_check_reports_inexact_column_sums(self, monkeypatch, capsys):
        from robustagg import numkit

        exact = numkit.exact_column_means
        monkeypatch.setattr(
            numkit, "exact_column_means", lambda a: np.nextafter(exact(a), np.inf)
        )
        assert main(["check"]) == 1
        assert "FAIL exact column sums equal math.fsum" in capsys.readouterr().out

    @pytest.mark.parametrize("name", [line[0] for line in cli._CHECKS])
    def test_check_fails_each_line_alone(self, monkeypatch, capsys, name):
        [kernel] = [k for k in CHECK_FAULTS if k in name]
        CHECK_FAULTS[kernel](monkeypatch, name)
        assert main(["check"]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1
        assert failed[0].startswith(f"FAIL {name}: sha256 ")
        assert kernel in failed[0]

    @pytest.mark.parametrize("kernel", sorted(SHARED_KERNEL_FAULTS))
    def test_check_line_runs_its_shared_kernel(self, monkeypatch, capsys, kernel):
        # These kernels are reached by more than one line, so the fault
        # fails this one among others.
        SHARED_KERNEL_FAULTS[kernel](monkeypatch)
        assert main(["check"]) == 1
        out = capsys.readouterr().out
        assert any(line.startswith("FAIL") and kernel in line for line in out.splitlines())

    def test_check_prints_each_digest_once(self, capsys):
        assert main(["check"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(cli._CHECKS) + 1
        for _, _, digest, _ in cli._CHECKS:
            assert sum(digest in line for line in lines) == 1

    def test_simulate_loads_neither_scipy_optimize_nor_stats(self, tmp_path):
        # Either module costs ~20 MB of resident memory in a run.
        code = (
            "import sys\n"
            "from robustagg.cli import main\n"
            "assert main(['simulate', '--K', '4', '--n', '100', '--replicates', '2',\n"
            "             '--contamination', 'omniscient', '--count', '1',\n"
            f"             '--out-dir', {str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules))\n"
        )
        src = str(Path(robustagg.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize(
        "flag, config, env, message",
        [
            (["--workers", "0"], None, None, "workers must be >= 1"),
            ([], "workers = 0\n", None, "workers must be >= 1"),
            ([], None, "abc", "ROBUSTAGG_WORKERS must be an integer, got 'abc'"),
            ([], None, "0", "ROBUSTAGG_WORKERS must be >= 1"),
            ([], None, "-3", "ROBUSTAGG_WORKERS must be >= 1"),
        ],
    )
    def test_bad_worker_count_exits_before_any_replicate(
        self, tmp_path, monkeypatch, capsys, flag, config, env, message
    ):
        monkeypatch.setattr(cli, "run_study", lambda *a, **k: pytest.fail("a replicate ran"))
        if env is None:
            monkeypatch.delenv("ROBUSTAGG_WORKERS", raising=False)
        else:
            monkeypatch.setenv("ROBUSTAGG_WORKERS", env)
        argv = ["simulate", "--replicates", "2", "--out-dir", str(tmp_path), *flag]
        if config is not None:
            argv += ["--config", str(write_config(tmp_path, config))]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_flag_and_file_workers_do_not_read_the_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ROBUSTAGG_WORKERS", "abc")
        path = write_config(tmp_path, "workers = 3\n")
        assert main(["simulate", "--dry-run", "--workers", "2"]) == 0
        assert main(["simulate", "--dry-run", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert ["workers=2" in lines[0], "workers=3" in lines[1]] == [True, True]

    def test_workers_env_default(self, monkeypatch):
        from robustagg.distsim import default_workers

        monkeypatch.setenv("ROBUSTAGG_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("ROBUSTAGG_WORKERS", "junk")
        with pytest.raises(ConfigError, match="ROBUSTAGG_WORKERS must be an integer"):
            default_workers()
        monkeypatch.delenv("ROBUSTAGG_WORKERS")
        assert default_workers() == 1


def has_mallopt() -> bool:
    try:
        return sys.platform.startswith("linux") and hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


def minor_faults_of(code: str) -> int:
    """The number ``code`` prints last, run in a fresh interpreter that
    imports this checkout's package: how a heap faults depends on what the
    process allocated and freed before."""
    src = str(Path(robustagg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return int(out.stdout.splitlines()[-1])


class TestFreedMemory:
    @pytest.mark.skipif(not has_mallopt(), reason="needs glibc's mallopt")
    def test_desk_replicate_takes_no_page_faults(self):
        # The first robustagg command sets malloc to keep what a stacked
        # pass frees; at glibc's defaults a desk replicate faults hundreds
        # of pages in again.
        faults = minor_faults_of(
            "import resource\n"
            "from robustagg import distsim\n"
            "from robustagg.cli import main\n"
            "from robustagg.distsim import ContaminationKind, ContaminationSpec, StudyConfig\n"
            "assert main(['tau', '1.345']) == 0\n"
            "config = StudyConfig(contamination=ContaminationSpec(ContaminationKind.OMNISCIENT, count=2))\n"
            "for index in range(2):\n"
            "    distsim.run_replicate(config, index)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for index in range(2, 12):\n"
            "    distsim.run_replicate(config, index)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        assert faults < 20 * 10, faults

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 15: without cli.main's malloc setting, each 65-shard pass of "
        "fit_shards faults its scratch in again (~4,190 minor faults per replicate)",
    )
    def test_library_replicate_takes_no_page_faults(self):
        # The linear K = 400 replicate of the benchmark, run from Python as
        # a library caller would, never through cli.main.
        faults = minor_faults_of(
            "import resource\n"
            "from robustagg import distsim\n"
            "from robustagg.distsim import ContaminationKind, ContaminationSpec, StudyConfig\n"
            "from robustagg.models import ModelKind\n"
            "config = StudyConfig(model=ModelKind.LINEAR, theta0=(1.0, -1.0, 0.5, 2.0, 0.0), n_servers=400,\n"
            "                     shard_size=50, contamination=ContaminationSpec(ContaminationKind.GAUSSIAN))\n"
            "for index in range(3):\n"
            "    distsim.run_replicate(config, index)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for index in range(3, 13):\n"
            "    distsim.run_replicate(config, index)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        assert faults < 50 * 10, faults

    def test_without_mallopt_main_runs_and_looks_once(self, monkeypatch, capsys):
        lookups = []

        def missing(name):
            lookups.append(name)
            raise OSError("no C library")

        # A fresh once-per-process helper, so this test sees its first call.
        monkeypatch.setattr(cli, "_keep_freed_memory", functools.cache(cli._keep_freed_memory.__wrapped__))
        monkeypatch.setattr(ctypes, "CDLL", missing)
        assert main(["tau", "1.345"]) == 0
        assert main(["tau", "inf"]) == 0
        assert "tau_c(inf) = 1" in capsys.readouterr().out
        assert lookups == ([None] if sys.platform.startswith("linux") else [])
