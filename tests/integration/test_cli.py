"""CLI integration tests (tiny budgets, real artefacts)."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.benchmark import AccelNASBench
from repro.core.store import BenchmarkStore


@pytest.fixture(scope="module")
def bench_file(tmp_path_factory):
    # A directory that does not exist yet: build creates it.
    path = tmp_path_factory.mktemp("cli") / "new" / "anb.json"
    code = main(["build", "--out", str(path), "--num-archs", "200"])
    assert code == 0
    return path


def _packed_store(bench_file, path):
    """``bench_file`` packed as a columnar store at ``path``."""
    AccelNASBench.load(bench_file).save(path, format="columnar")
    return path


def _accuracy_shard(path, role):
    manifest = BenchmarkStore.open(path).manifest
    return manifest["models"]["accuracy"]["arrays"][role]


def _query_exit_message(bench) -> str:
    """The SystemExit message of ``query`` on ``bench`` (in a daemon
    thread, so a query that never ends fails the test instead)."""
    arch = "e1k3L1se1|e6k3L2se1|e6k5L2se1|e6k3L3se1|e6k5L3se1|e6k5L3se1|e6k3L1se1"
    outcome = {}

    def run():
        try:
            main(["query", "--bench", str(bench), "--arch", arch])
        except (SystemExit, Exception) as exc:
            outcome["exc"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), f"query on {bench} did not finish"
    assert isinstance(outcome.get("exc"), SystemExit), outcome
    return str(outcome["exc"])


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table9"])


class TestCommands:
    def test_devices_listing(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "zcu102" in out and "latency" in out

    def test_build_and_query(self, bench_file, capsys):
        arch = "e1k3L1se1|e6k3L2se1|e6k5L2se1|e6k3L3se1|e6k5L3se1|e6k5L3se1|e6k3L1se1"
        code = main(
            [
                "query",
                "--bench",
                str(bench_file),
                "--arch",
                arch,
                "--device",
                "a100",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.5 < payload["accuracy"] < 0.9
        assert payload["performance"] > 0

    def test_query_corrupt_bench_exits_with_clean_message(
        self, bench_file, tmp_path
    ):
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text(bench_file.read_text().replace("0.7", "0.8", 1))
        # Columnar stores skip sha256 on load: a truncated shard and a
        # cyclic tree must still fail at load, not at (or in) the query.
        truncated = _packed_store(bench_file, tmp_path / "truncated.store")
        value = truncated / _accuracy_shard(truncated, "value")
        value.write_bytes(value.read_bytes()[:-16])
        cyclic = _packed_store(bench_file, tmp_path / "cyclic.store")
        left = np.memmap(
            cyclic / _accuracy_shard(cyclic, "left"), dtype="<i8", mode="r+"
        )
        left[0] = 0  # the first root's left child is the root itself
        left.flush()
        del left
        for bench, reason in (
            (corrupt, "sha256 mismatch"),
            (truncated, "truncated"),
            (cyclic, "malformed model entry 'accuracy'"),
        ):
            message = _query_exit_message(bench)
            assert "cannot load benchmark" in message
            assert reason in message

    def test_search(self, bench_file, capsys):
        code = main(
            [
                "search",
                "--bench",
                str(bench_file),
                "--device",
                "zcu102",
                "--metric",
                "throughput",
                "--target",
                "700",
                "--budget",
                "60",
            ]
        )
        assert code == 0
        assert "pareto front" in capsys.readouterr().out

    def test_experiment_fig3(self, capsys):
        code = main(["experiment", "fig3"])
        assert code == 0
        assert "tau" in capsys.readouterr().out


class TestCollect:
    def test_collect_single_device(self, tmp_path, capsys):
        out_dir = tmp_path / "ds"
        code = main(
            [
                "collect",
                "--out-dir",
                str(out_dir),
                "--num-archs",
                "20",
                "--device",
                "a100",
            ]
        )
        assert code == 0
        assert (out_dir / "ANB-a100-Thr.json").exists()
        assert (out_dir / "journal" / "ANB-a100-Thr.jsonl").exists()
        assert "ANB-a100-Thr" in capsys.readouterr().out

    def test_collect_crash_then_resume_byte_identical(self, tmp_path, capsys):
        clean_dir, crash_dir = tmp_path / "clean", tmp_path / "crashy"
        base = ["collect", "--num-archs", "20", "--device", "zcu102",
                "--metric", "latency"]
        assert main(base + ["--out-dir", str(clean_dir)]) == 0

        code = main(
            base
            + ["--out-dir", str(crash_dir), "--faults", "crash:0.3",
               "--fault-seed", "7"]
        )
        assert code == 1
        assert "rerun with --resume" in capsys.readouterr().out

        assert main(base + ["--out-dir", str(crash_dir), "--resume"]) == 0
        clean = (clean_dir / "ANB-zcu102-Lat.json").read_bytes()
        resumed = (crash_dir / "ANB-zcu102-Lat.json").read_bytes()
        assert clean == resumed

    def test_collect_with_retries_and_transient_faults(self, tmp_path):
        out_dir = tmp_path / "ds"
        code = main(
            [
                "collect",
                "--out-dir",
                str(out_dir),
                "--num-archs",
                "12",
                "--device",
                "a100",
                "--faults",
                "timeout:1.0@1",  # every first attempt times out, then heals
                "--retries",
                "2",
            ]
        )
        assert code == 0

    def test_build_loud_failure_below_success_gate(self, tmp_path, capsys):
        code = main(
            [
                "collect",
                "--out-dir",
                str(tmp_path / "ds"),
                "--num-archs",
                "12",
                "--device",
                "a100",
                "--faults",
                "nan:1.0",
            ]
        )
        assert code == 1
        assert "failed" in capsys.readouterr().out


class TestNamedFailures:
    """Bad input to the CLI ends in one named line, never a traceback."""

    @pytest.mark.parametrize("spec", ["meltdown:1", "slow:1", "nan:often"])
    def test_bad_fault_spec_names_the_flag(self, tmp_path, spec):
        with pytest.raises(SystemExit) as err:
            main(["collect", "--out-dir", str(tmp_path), "--num-archs", "4",
                  "--faults", spec])
        message = str(err.value.code)
        assert message.startswith("--faults: ") and "\n" not in message

    @pytest.mark.parametrize("spec", ["crash:1", "error:often"])
    def test_bad_drill_spec_names_the_flag(self, tmp_path, spec):
        with pytest.raises(SystemExit) as err:
            main(["serve", "--bench", str(tmp_path / "missing.store"),
                  "--drills", spec])
        message = str(err.value.code)
        assert message.startswith("--drills: ") and "\n" not in message

    def test_serve_missing_bench_exits_with_clean_message(self, tmp_path):
        missing = tmp_path / "missing.store"
        with pytest.raises(SystemExit) as err:
            main(["serve", "--bench", str(missing)])
        assert str(err.value.code).startswith("cannot load benchmark: ")

        import repro

        src = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--bench", str(missing)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert "cannot load benchmark" in proc.stderr
        assert "Traceback" not in proc.stderr + proc.stdout
