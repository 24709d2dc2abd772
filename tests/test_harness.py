import contextlib
import io
import json
import math
import os
import platform
import re
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

import cji
import cji.conjugate
from cji import cli, harness
from cji.errors import ConfigError, OracleRemoteError, OracleTimeoutError
from cji.operators import BlockAverage, Mask
from cji.oracles import GaussianModel, exact_posterior
from cji.samplers import SamplerSpec, sample
from cji.tensorio import read_tensor, write_tensor

RNG = np.random.default_rng(23)
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")
ORACLE_SERVER = [sys.executable, "-m", "cji.oracle_server", "--kind", "gaussian-diffusion"]
# Completes the handshake for d = 8, then never answers.
SILENT_CHILD = [sys.executable, "-c", "import time; print('{\"protocol\": \"score-oracle/1\", "
                "\"d\": 8}', flush=True); time.sleep(30)"]


def base_config(**sampler_overrides):
    sampler = {"method": "conjugate_diffusion", "w": 2.0, "lambda": 0.0,
               "tau": 0.6, "nfe": 5, "schedule_kind": "adaptive_paper"}
    sampler.update(sampler_overrides)
    return {
        "schedule": {"beta_min": 0.1, "beta_max": 20.0},
        "problem": {
            "operator": {"kind": "mask", "indices": [0, 2, 4, 6]},
            "data": {"source": "gaussian", "dim": 8, "mean": 0.0, "var": 1.0},
            "sigma_y": 0.0,
        },
        "model": {"kind": "auto"},
        "sampler": sampler,
        "seeds": [0, 1, 2],
    }


def build_operator(desc, n=8):
    """The operator of base_config with desc as its problem.operator block,
    on signals of size n."""
    cfg = base_config()
    cfg["problem"]["operator"] = desc
    return harness.build_operator(harness.validate(cfg)["problem"]["operator"], n)


def diverging_configs():
    """One sweep point that diverges (non-finite state) and one whose
    transform exponent would overflow exp() (constant weight, w = 30)."""
    configs = [
        base_config(method="explicit_diffusion", w=1e10, nfe=80,
                    schedule_kind="constant_r2"),
        base_config(method="conjugate_diffusion", w=30.0, tau=0.7,
                    schedule_kind="constant"),
    ]
    for cfg in configs:
        cfg["seeds"] = [0]
    return configs


class TestTensorIO:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "t.cji"
        arr = RNG.standard_normal((3, 5)) * np.exp(RNG.uniform(-300, 300, (3, 5)))
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    def test_one_dimensional(self, tmp_path):
        path = tmp_path / "v.cji"
        arr = np.array([0.1, -1e-300, 1e300, 0.0])
        write_tensor(path, arr)
        np.testing.assert_array_equal(read_tensor(path), arr)

    def test_header_format(self, tmp_path):
        path = tmp_path / "h.cji"
        write_tensor(path, np.zeros((2, 3)))
        with open(path, "rb") as fh:
            assert fh.readline() == b"CJI f64 2 2 3\n"

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.cji"
        path.write_bytes(b"NOPE f64 1 3\n" + b"\0" * 24)
        with pytest.raises(ValueError):
            read_tensor(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "short.cji"
        path.write_bytes(b"CJI f64 1 4\n" + b"\0" * 8)
        with pytest.raises(ValueError):
            read_tensor(path)

    @pytest.mark.parametrize("content,named", [
        (b"CJI f64 1 -3\n", "dimension '-3'"),
        (b"CJI f64 1 x\n", "dimension 'x'"),
        (b"CJI f64 1 1\n" + b"\0" * 9, "payload of 9 bytes, but the header gives 8"),
    ], ids=["negative-dimension", "non-integer-dimension", "trailing-bytes"])
    def test_rejects_malformed_naming_the_path(self, tmp_path, content, named):
        path = tmp_path / "bad.cji"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")) as info:
            read_tensor(path)
        assert named in str(info.value)
        cfg = base_config()
        cfg["problem"]["data"] = {"source": "tensor_file", "path": str(path)}
        cfg["model"] = {"kind": "auto", "source": "gaussian"}
        with pytest.raises(ConfigError, match="tensor_file data 'path'"):
            harness.run(cfg)


class TestConfig:
    def test_overrides(self):
        cfg = base_config()
        harness.apply_overrides(cfg, ["sampler.w=3.5", "problem.sigma_y=0.1",
                                      "sampler.schedule_kind=constant_r2"])
        assert cfg["sampler"]["w"] == 3.5
        assert cfg["problem"]["sigma_y"] == 0.1
        assert cfg["sampler"]["schedule_kind"] == "constant_r2"

    def test_bad_override(self):
        with pytest.raises(ConfigError):
            harness.apply_overrides({}, ["no_equals_sign"])

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            harness.load_config(path)

    def test_sweep_cross_product_count(self):
        cfg = base_config()
        cfg["sweep"] = {"nfe": [5, 10, 20]}
        report = harness.run(cfg)
        assert len(report.records) == 9  # 3 nfe x 3 seeds

    def test_sweep_guard(self):
        cfg = base_config()
        cfg["sweep"] = {"w": list(range(1, 200)), "tau": [0.1 * k for k in range(1, 8)]}
        cfg["seeds"] = list(range(10))
        with pytest.raises(ConfigError):
            harness.run(cfg)

    def test_unknown_sweep_key(self):
        cfg = base_config()
        cfg["sweep"] = {"temperature": [1, 2]}
        with pytest.raises(ConfigError):
            harness.run(cfg)

    def test_operator_builders(self, tmp_path):
        op = build_operator({"kind": "mask", "indices": [1, 3]}, 6)
        assert isinstance(op, Mask) and op.in_dim == 6
        bpath = tmp_path / "bitmap.cji"
        write_tensor(bpath, np.array([0.0, 1.0, 0.0, 1.0, 1.0]))
        for bitmap in (str(bpath), [0, 1, 0, 1, 1]):
            op = build_operator({"kind": "mask", "bitmap": bitmap})
            np.testing.assert_array_equal(op.indices, [1, 3, 4])
            assert op.in_dim == 5
        op = build_operator({"kind": "block_average", "factor": 2, "height": 4, "width": 4})
        assert isinstance(op, BlockAverage)
        kpath = tmp_path / "k.cji"
        write_tensor(kpath, np.array([0.25, 0.5, 0.25]))
        op = build_operator({"kind": "circulant_blur", "kernel": str(kpath)}, 12)
        assert op.in_dim == 12
        write_tensor(kpath, np.full((2, 2), 0.25))
        op = build_operator({"kind": "circulant_blur", "kernel": str(kpath), "height": 3,
                             "width": 4})
        assert op.in_dim == 12
        hpath = tmp_path / "H.cji"
        write_tensor(hpath, RNG.standard_normal((2, 5)))
        op = build_operator({"kind": "dense", "matrix": str(hpath)})
        assert op.out_dim == 2 and op.in_dim == 5
        with pytest.raises(ConfigError):
            build_operator({"kind": "wavelet"})

    def test_mask_indices_file(self, tmp_path):
        # A tensor file stores floats: integral values are indices, and a
        # fraction is a configuration error rather than a truncated index.
        ipath = tmp_path / "idx.cji"
        write_tensor(ipath, np.array([1.0, 4.0]))
        op = build_operator({"kind": "mask", "indices": str(ipath)}, 6)
        np.testing.assert_array_equal(op.indices, [1, 4])
        write_tensor(ipath, np.array([1.0, 4.5]))
        with pytest.raises(ConfigError, match="indices"):
            build_operator({"kind": "mask", "indices": str(ipath)}, 6)


class TestRun:
    def test_determinism_rerun(self):
        cfg = base_config()
        a = harness.run(cfg)
        b = harness.run(cfg)
        assert [r.mse for r in a.records] == [r.mse for r in b.records]

    @pytest.mark.parametrize("model", ["auto", "external"])
    def test_thread_count_does_not_change_results(self, model):
        import sys

        cfg = base_config()
        cfg["sweep"] = {"nfe": [5, 10]}
        if model == "external":
            # worker threads share one child process
            cfg["model"] = {
                "kind": "external",
                "argv": [sys.executable, "-m", "cji.oracle_server",
                         "--kind", "gaussian-diffusion", "--dim", "8"],
            }
        a = harness.run(cfg, threads=1)
        b = harness.run(cfg, threads=4)
        for ra, rb in zip(a.records, b.records):
            assert (ra.method, ra.w, ra.lam, ra.tau, ra.nfe, ra.seed) == \
                   (rb.method, rb.w, rb.lam, rb.tau, rb.nfe, rb.seed)
            assert ra.mse == rb.mse
            assert ra.observed_residual == rb.observed_residual

    def test_psnr_relation(self):
        report = harness.run(base_config())
        for r in report.records:
            assert r.psnr == pytest.approx(10.0 * math.log10(1.0 / r.mse), abs=1e-12)

    def test_outputs_written(self, tmp_path):
        cfg = base_config()
        cfg["output_dir"] = str(tmp_path / "out")
        report = harness.run(cfg)
        files = sorted(os.listdir(cfg["output_dir"]))
        assert "report.csv" in files and "summary.json" in files
        recon = [f for f in files if f.startswith("recon_")]
        assert len(recon) == len(report.records)
        x = read_tensor(os.path.join(cfg["output_dir"], recon[0]))
        assert x.shape == (8,)
        with open(os.path.join(cfg["output_dir"], "summary.json")) as fh:
            summary = json.load(fh)
        assert all("mse_mean" in v for v in summary.values())

    def test_csv_round_trip(self):
        report = harness.run(base_config())
        text = harness.report_to_csv(report)
        back = harness.report_from_csv(text)
        assert back.records == report.records

    def test_csv_header_is_contract(self):
        text = harness.report_to_csv(harness.RunReport(records=[]))
        assert text.splitlines()[0] == \
            "method,w,lambda,tau,nfe,seed,mse,psnr,observed_residual,wall_time_ms"

    def test_aggregates(self):
        cfg = base_config()
        report = harness.run(cfg)
        (key, agg), = report.aggregates.items()
        assert agg["runs"] == 3 and agg["diverged"] == 0
        mses = [r.mse for r in report.records]
        assert agg["mse_mean"] == pytest.approx(np.mean(mses))

    def test_divergence_recorded_not_fatal(self):
        for cfg in diverging_configs():
            with np.errstate(over="ignore", invalid="ignore"):
                report = harness.run(cfg)
            assert report.diverged_count == 1
            assert report.records[0].mse is None
            text = harness.report_to_csv(report)
            assert harness.report_from_csv(text).records == report.records

    def test_external_model_config(self):
        import sys

        cfg = base_config(nfe=2)
        cfg["model"] = {
            "kind": "external",
            "argv": [sys.executable, "-m", "cji.oracle_server",
                     "--kind", "gaussian-diffusion", "--dim", "8"],
        }
        cfg["seeds"] = [0]
        report = harness.run(cfg)
        assert report.records[0].mse is not None


def direct_reconstruction(config, point, seed):
    """One harness.run record recomputed by a sample() call without table=."""
    config = harness.validate(config)
    problem = config["problem"]
    sched = harness.build_schedule(config)
    sigma_y = problem["sigma_y"]
    op, inputs = harness.draw_inputs(problem, [seed])
    oracle = harness.build_oracle(config["model"], sched, op.in_dim)
    x0, y = inputs[seed]
    spec = SamplerSpec(method=point["method"],
                       guidance=harness.guidance_from_sampler(point, sigma_y))
    z = np.random.default_rng([seed, harness._CHAIN_SALT]).standard_normal(op.in_dim)
    return sample(spec, y, op, oracle, sched, z).x


class TestTableCache:
    @pytest.fixture
    def builds(self, monkeypatch, cold_table_memo):
        calls = []
        original = cji.conjugate._table_columns

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(cji.conjugate, "_table_columns", counting)
        return calls

    def check_reconstructions(self, config, out_dir):
        points = harness.sweep_points(config)
        for pi, point in enumerate(points):
            for seed in config["seeds"]:
                x = read_tensor(os.path.join(out_dir, f"recon_{pi:04d}_{seed}.cji"))
                np.testing.assert_array_equal(x, direct_reconstruction(config, point, seed))

    def test_one_build_per_point(self, builds, tmp_path):
        cfg = harness.load_config(os.path.join(CONFIGS, "gaussian_mask.json"))
        report = harness.run(cfg, output_dir=str(tmp_path / "a"))
        assert len(report.records) == 9 and len(builds) == 3
        self.check_reconstructions(cfg, str(tmp_path / "a"))
        # more threads than cores and frequent switches: a check-then-act
        # race on the table dict would show as extra builds
        interval = sys.getswitchinterval()
        cji.conjugate._table_memo.clear()
        sys.setswitchinterval(1e-6)
        try:
            threaded = harness.run(cfg, threads=4, output_dir=str(tmp_path / "b"))
        finally:
            sys.setswitchinterval(interval)
        assert len(builds) == 6
        assert [r.mse for r in threaded.records] == [r.mse for r in report.records]

    def test_explicit_points_share_w_free_tables(self, builds, tmp_path):
        cfg = base_config(method="explicit_diffusion")
        cfg["sweep"] = {"w": [1.0, 2.0, 3.0], "nfe": [5, 10]}
        report = harness.run(cfg, output_dir=str(tmp_path))
        assert len(report.records) == 18 and report.diverged_count == 0
        assert len(builds) == 2 and all(g.w == 0.0 for g in builds)
        self.check_reconstructions(cfg, str(tmp_path))

    def test_failed_build_is_not_cached(self, builds, tmp_path):
        cfg = harness.load_config(os.path.join(CONFIGS, "gaussian_mask.json"))
        harness.apply_overrides(cfg, ["sampler.method=conjugate_flow", "sampler.lambda=1100",
                                      "sampler.tau=0.7", "sweep.nfe=[5]"])
        with np.errstate(over="ignore", invalid="ignore"):
            report = harness.run(cfg, output_dir=tmp_path)
        assert report.diverged_count == 3 and len(builds) == 3


@pytest.fixture
def spawned(monkeypatch):
    """Every ExternalOracle started while the test runs; all are closed at teardown."""
    import cji.external

    opened = []

    class Tracked(cji.external.ExternalOracle):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(cji.external, "ExternalOracle", Tracked)
    yield opened
    for oracle in opened:
        oracle.close()


class TestInputs:
    def test_tensor_file_read_once_per_run(self, monkeypatch, tmp_path):
        reads = []

        def counting(path):
            reads.append(path)
            return read_tensor(path)

        monkeypatch.setattr(harness, "read_tensor", counting)
        write_tensor(tmp_path / "x0.cji", RNG.standard_normal(8))
        cfg = base_config()
        cfg["problem"]["data"] = {"source": "tensor_file", "path": str(tmp_path / "x0.cji")}
        cfg["model"] = {"kind": "auto", "source": "gaussian"}
        cfg["sweep"] = {"nfe": [3, 4, 5]}
        report = harness.run(cfg)
        assert len(report.records) == 9 and len(reads) == 1

    def test_missing_data_file_spawns_no_child(self, spawned):
        cfg = base_config()
        cfg["problem"]["data"] = {"source": "tensor_file", "path": "/nonexistent.cji"}
        cfg["model"] = {"kind": "external", "argv": ORACLE_SERVER + ["--dim", "8"]}
        with pytest.raises(ConfigError, match="'path'"):
            harness.run(cfg)
        assert spawned == []

    @pytest.mark.parametrize("argv,timeout,error", [
        (ORACLE_SERVER + ["--dim", "6"], 30.0, ConfigError),
        ([sys.executable, "-m", "cji.oracle_server", "--kind", "gaussian-flow", "--dim", "8"],
         30.0, OracleRemoteError),
        (SILENT_CHILD, 0.5, OracleTimeoutError),
    ], ids=["dim-mismatch", "remote-error", "request-timeout"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_run_reaps_the_child(self, spawned, argv, timeout, error, threads):
        cfg = base_config()
        cfg["model"] = {"kind": "external", "argv": argv, "timeout": timeout}
        with pytest.raises(error):
            harness.run(cfg, threads=threads)
        assert len(spawned) == 1
        assert spawned[0]._proc.returncode is not None

    def test_stalled_child_fails_a_threaded_run_within_one_timeout(self, spawned):
        # The first timeout marks the child stalled: the other worker's
        # request fails at once and no queued record runs.
        timeout = 0.5
        cfg = base_config()
        cfg["model"] = {"kind": "external", "argv": SILENT_CHILD, "timeout": timeout}
        start = time.perf_counter()
        with pytest.raises(OracleTimeoutError):
            harness.run(cfg, threads=2)
        assert time.perf_counter() - start < 2 * timeout


class TestDegrade:
    def test_noiseless_exact(self):
        op = Mask([0, 2], 4)
        x0 = np.array([1.0, 2.0, 3.0, 4.0])
        y = harness.degrade(x0, op, 0.0, seed=0)
        np.testing.assert_array_equal(y, [1.0, 3.0])

    def test_seeded_reproducible(self):
        op = Mask([0, 2], 4)
        x0 = RNG.standard_normal(4)
        a = harness.degrade(x0, op, 0.3, seed=5)
        b = harness.degrade(x0, op, 0.3, seed=5)
        np.testing.assert_array_equal(a, b)
        c = harness.degrade(x0, op, 0.3, seed=6)
        assert np.any(a != c)

    def test_pinv_round_trip(self):
        op = Mask([0, 2, 3], 6)
        x0 = RNG.standard_normal(6)
        y = harness.degrade(x0, op, 0.0, seed=0)
        np.testing.assert_allclose(op.apply(op.pinv_apply(y)), y, atol=1e-12)


class TestPosteriorStats:
    def setup_problem(self):
        d = 12
        op = Mask(np.arange(0, d, 2), d)
        prior = GaussianModel(mean=np.zeros(d), var=np.ones(d))
        x0 = RNG.standard_normal(d)
        y = op.apply(x0)
        return d, op, prior, y

    def test_exact_posterior_samples_pass(self):
        d, op, prior, y = self.setup_problem()
        post = exact_posterior(prior, op, y, 0.0)
        rng = np.random.default_rng(0)
        samples = post.mean + rng.standard_normal((4000, d)) * post.marginal_std()
        stats = harness.posterior_stats(samples, op, y, prior)
        assert stats.max_observed_residual < 1e-10
        assert np.mean(stats.ks_pvalues > 0.01) >= 0.95
        assert 0.9 <= stats.pooled_var <= 1.1
        assert not stats.low_sample_warning and not stats.degenerate_variance

    def test_identical_samples_flagged(self):
        d, op, prior, y = self.setup_problem()
        samples = np.tile(op.pinv_apply(y), (50, 1))
        stats = harness.posterior_stats(samples, op, y, prior)
        assert stats.degenerate_variance

    def test_low_sample_warning(self):
        d, op, prior, y = self.setup_problem()
        samples = RNG.standard_normal((10, d))
        stats = harness.posterior_stats(samples, op, y, prior)
        assert stats.low_sample_warning


class TestCLI:
    def write_config(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_run_exit_zero(self, tmp_path):
        path = self.write_config(tmp_path, base_config())
        rc = cli.main(["run", path, "--output-dir", str(tmp_path / "out")])
        assert rc == 0

    def test_config_error_exit_one(self, tmp_path):
        cfg = base_config(method="unknown_method")
        path = self.write_config(tmp_path, cfg)
        assert cli.main(["run", path]) == 1

    def test_divergence_exit_two(self, tmp_path):
        for i, cfg in enumerate(diverging_configs()):
            path = self.write_config(tmp_path, cfg)
            with np.errstate(over="ignore", invalid="ignore"):
                assert cli.main(["run", path, "--output-dir", str(tmp_path / f"o{i}")]) == 2

    @staticmethod
    def shipped_mask_argv(out_dir, *overrides):
        """cji run arguments for configs/gaussian_mask.json."""
        argv = ["run", os.path.join(CONFIGS, "gaussian_mask.json"), "--output-dir", str(out_dir)]
        for item in overrides:
            argv += ["--override", item]
        return argv

    def run_shipped_mask(self, tmp_path, *overrides):
        """cji run on configs/gaussian_mask.json; returns the exit code and
        the report read back from report.csv."""
        argv = self.shipped_mask_argv(tmp_path / "out", *overrides)
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(argv)
            text = (tmp_path / "out" / "report.csv").read_text()
            assert text.splitlines()[0] == ",".join(harness.CSV_HEADER)
            return rc, harness.report_from_csv(text)

    def test_quadrature_failure_recorded(self, tmp_path):
        # exp(lambda t) overflows inside the first table interval
        rc, report = self.run_shipped_mask(
            tmp_path, "sampler.method=conjugate_flow", "sampler.lambda=1100",
            "sampler.tau=0.7", "sweep.nfe=[5]")
        assert rc == 2
        assert len(report.records) == 3 and report.diverged_count == 3

    def test_overflowing_mse_recorded(self, tmp_path):
        # finite but huge states: MSEs of about 1e91 and 1e175 at NFE 5 and
        # 10, and a squared error that overflows at NFE 20
        rc, report = self.run_shipped_mask(
            tmp_path, "sampler.method=explicit_diffusion", "sampler.w=1e10",
            "sampler.schedule_kind=constant_r2")
        assert rc == 2
        by_nfe = {n: [r for r in report.records if r.nfe == n] for n in (5, 10, 20)}
        assert all(r.mse is not None and math.isfinite(r.psnr)
                   for n in (5, 10) for r in by_nfe[n])
        assert all(r.mse is None and r.psnr is None for r in by_nfe[20])

    def test_huge_mse_summary_is_strict_json(self, tmp_path):
        # MSEs near 1e175 at NFE 10 used to overflow np.std, warn and write
        # "mse_stderr": Infinity into summary.json
        def reject(name):
            raise ValueError(f"summary.json holds {name}")

        out = tmp_path / "out"
        argv = self.shipped_mask_argv(out, "sampler.method=explicit_diffusion", "sampler.w=1e10",
                                      "sampler.schedule_kind=constant_r2")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 2
            back = harness.report_from_csv((out / "report.csv").read_text())
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary == back.aggregates
        huge = summary["explicit_diffusion w=1e+10 lambda=0 tau=0.6 nfe=10"]
        assert huge["mse_mean"] > 1e174 and 0 < huge["mse_stderr"] < huge["mse_mean"]

    def test_override_and_seeds_flags(self, tmp_path):
        path = self.write_config(tmp_path, base_config())
        rc = cli.main(["run", path, "--output-dir", str(tmp_path / "o2"),
                       "--seeds", "7", "--override", "sampler.nfe=3"])
        assert rc == 0
        report = harness.report_from_csv(
            (tmp_path / "o2" / "report.csv").read_text())
        assert {r.seed for r in report.records} == {7}
        assert {r.nfe for r in report.records} == {3}

    def test_below_floor_grid_refused_before_any_sample(self, monkeypatch, tmp_path):
        # the nfe=20 grid evaluates the oracle below the time floor; the nfe 5
        # and 10 points must not run first
        calls = []
        original = harness.sample

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "sample", counting)
        config = harness.apply_overrides(
            harness.load_config(os.path.join(CONFIGS, "gaussian_mask.json")),
            ["sampler.t_floor=2e-5", "sampler.tau=0.001"])
        with pytest.raises(ConfigError, match="below the time floor"):
            harness.run(config, output_dir=tmp_path)
        assert calls == []

    @pytest.mark.parametrize("overrides", [
        ("model.kind=mixture_flow",),
        ("model.kind=gaussian_diffusion", "sampler.method=conjugate_flow"),
    ], ids=["mixture_flow", "gaussian_diffusion"])
    def test_unknown_model_kind_is_a_config_error(self, tmp_path, capsys, overrides):
        assert cli.main(self.shipped_mask_argv(tmp_path / "out", *overrides)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "'auto' or 'external'" in err

    @pytest.mark.parametrize("override,named", [
        ('problem.operator={"kind":"dense"}', "'matrix'"),
        ('problem.operator={"kind":"block_average","factor":2}', "'height'"),
        ('problem.data={"source":"gaussian"}', "'dim'"),
        ('sweep={"w":3}', "['w']"),
    ], ids=["dense-matrix", "block-height", "data-dim", "scalar-sweep"])
    def test_incomplete_config_is_a_config_error(self, tmp_path, capsys, override, named):
        assert cli.main(self.shipped_mask_argv(tmp_path / "out", override)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err

    @pytest.mark.parametrize("command,path,value,named", [
        ("run", "problem.operator", None, "'operator'"),
        ("degrade", "problem.operator", None, "'operator'"),
        ("run", "problem.data", None, "'data'"),
        ("degrade", "problem.data", {"source": "tensor_file"}, "'path'"),
        ("run", "model", {"kind": "external"}, "'argv'"),
        ("coeff-dump", "sampler", None, "'sampler'"),
        ("coeff-dump", "sampler.method", None, "'method'"),
        ("coeff-dump", "sampler.method", [1], "method [1]"),
        ("run", "", [1, 2], "JSON object"),
        ("run", "problem.operator.indices", [0, 99], "indices out of range"),
        ("run", "problem.operator", {"kind": "circulant_blur", "kernel": [0.25, 0.5, 0.25],
                                     "threshold": 0}, "threshold"),
        ("run", "model", {"kind": "external", "argv": ["no-such-oracle-binary"]},
         "no-such-oracle-binary"),
        ("degrade", "seeds", [-1], "'seeds'"),
        ("degrade", "seeds", [], "'seeds'"),
        ("degrade", "problem.sigma_y", -0.1, "sigma_y"),
        ("degrade", "problem.sigma_y", math.nan, "sigma_y must be finite"),
        ("degrade", "problem.data", {"source": "tensor_file", "path": 9999}, "'path'"),
        ("degrade", "problem.data", {"source": "tensor_file", "path": "missing.cji"},
         "'path'"),
        ("degrade", "problem.data", {"source": "tensor_file", "path": __file__}, "'path'"),
        ("run", "problem.operator", {"kind": "mask", "bitmap": "missing.cji"}, "'bitmap'"),
        ("run", "problem.operator", {"kind": "mask", "indices": 9999}, "'indices'"),
        ("run", "problem.operator", {"kind": "circulant_blur", "kernel": "missing.cji"},
         "'kernel'"),
        ("run", "problem.operator", {"kind": "dense", "matrix": __file__}, "'matrix'"),
        ("run", "problem.operator.bitmap", [1, 0, 1, 0, 1, 0, 1, 0],
         "mask operator needs exactly one of 'indices' and 'bitmap'"),
        ("run", "problem.operator.indices", None,
         "mask operator needs exactly one of 'indices' and 'bitmap'"),
        ("run", "problem.operator", {"kind": "circulant_blur", "kernel": [0.25, 0.5, 0.25],
                                     "height": 2, "width": 4},
         "'height' and 'width' are for a 2-d kernel"),
        ("run", "model", {"kind": "external", "argv": ["true"]}, "model.argv"),
        ("run", "model", {"kind": "external", "argv": ["echo", "hi"]}, "model.argv"),
        ("run", "model", {"kind": "external", "argv": ["sleep", "5"], "timeout": 0.2},
         "model.argv"),
        ("run", "model", {"kind": "external", "argv": ["true"], "timeout": 0}, "timeout"),
        ("run", "model", {"kind": "external", "argv": ["true"], "timeout": math.nan},
         "timeout"),
        ("run", "problem.operator", {"kind": "block_average", "factor": 2, "height": 4,
                                     "width": 4}, "x0 of size 8, but the operator's in_dim is 16"),
        ("degrade", "problem.operator", {"kind": "block_average", "factor": 2, "height": 4,
                                         "width": 4},
         "x0 of size 8, but the operator's in_dim is 16"),
        ("run", "model", {"kind": "external", "argv": ORACLE_SERVER + ["--dim", "6"]},
         "model's dim 6 does not match the operator's in_dim 8"),
        ("run", "problem.operator.indices_file", "i.cji",
         "unknown key 'problem.operator.indices_file'; did you mean 'problem.operator.indices'?"),
        ("run", "problem.operator.bitmap_file", "b.cji",
         "unknown key 'problem.operator.bitmap_file'; did you mean 'problem.operator.bitmap'?"),
        ("run", "problem.operator.dim", 8,
         "unknown key 'problem.operator.dim'; did you mean 'problem.data.dim'?"),
        ("run", "problem.operator.in_dim", 8,
         "unknown key 'problem.operator.in_dim'; did you mean 'problem.data.dim'?"),
        ("run", "problem.operator", {"kind": "circulant_blur", "kernel": [1.0], "in_dim": 8},
         "unknown key 'problem.operator.in_dim'; did you mean 'problem.data.dim'?"),
        ("run", "problem.operator", {"kind": "circulant_blur", "kernel_file": "k.cji"},
         "unknown key 'problem.operator.kernel_file'; did you mean 'problem.operator.kernel'?"),
        ("run", "problem.operator", {"kind": "dense", "matrix_file": "h.cji"},
         "unknown key 'problem.operator.matrix_file'; did you mean 'problem.operator.matrix'?"),
        ("run", "model.dim", 8, "unknown key 'model.dim'; did you mean 'problem.data.dim'?"),
    ], ids=["run-no-operator", "degrade-no-operator", "no-data", "tensor-file-no-path",
            "external-no-argv", "coeff-dump-no-sampler", "coeff-dump-no-method",
            "coeff-dump-list-method",
            "top-level-list", "mask-index-range", "blur-threshold", "argv-not-spawned",
            "degrade-negative-seed", "degrade-no-seeds", "degrade-negative-sigma-y",
            "degrade-nan-sigma-y",
            "tensor-file-path-number", "tensor-file-missing", "tensor-file-malformed",
            "bitmap-file-missing", "indices-file-number", "kernel-file-missing",
            "matrix-file-malformed", "mask-bitmap-and-indices", "mask-neither",
            "blur-1d-kernel-height", "argv-exits", "argv-not-protocol", "handshake-timeout",
            "timeout-zero", "timeout-nan", "data-dim-mismatch", "degrade-data-dim-mismatch",
            "external-dim-mismatch", "deleted-indices-file", "deleted-bitmap-file",
            "deleted-mask-dim", "deleted-mask-in-dim", "deleted-blur-in-dim",
            "deleted-kernel-file", "deleted-matrix-file", "deleted-model-dim"])
    def test_malformed_config_exits_one(self, tmp_path, capsys, command, path, value, named):
        # value None deletes the key; the empty path replaces the whole config
        cfg = base_config()
        if path:
            *parents, key = path.split(".")
            node = cfg
            for part in parents:
                node = node[part]
            if value is None:
                del node[key]
            else:
                node[key] = value
        else:
            cfg = value
        argv = [command, self.write_config(tmp_path, cfg), "--output-dir", str(tmp_path / "o")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err

    @pytest.mark.parametrize("override,named", [
        ("problem=3", "'problem'"),
        ("problem.operator=3", "'operator'"),
        ("model=3", "'model'"),
        ("seeds=5", "'seeds'"),
        ("sweep=3", "'sweep'"),
        ("problem.data.dim=abc", "'dim'"),
        ('sampler.w="x"', "'w'"),
        ("problem.sigma_y=[1]", "'sigma_y'"),
        ('problem.data.mean="abc"', "'mean'"),
        ('problem.data={"source":"mixture","dim":16,"weights":[0.6,0.4],'
         '"means":["a",1],"vars":[0.3,0.5]}', "'means'"),
        ('seeds=["a"]', "'seeds'"),
        ("seeds=[1.5]", "'seeds'"),
        ("seeds=[-1]", "'seeds'"),
        ('problem.data={"source":"mixture","dim":16,"weights":["a",1],'
         '"means":[1,-1],"vars":[1,1]}', "'weights'"),
        ("sampler.method=[1]", "sampler.method"),
        ("problem.operator.indices=[0.5]", "indices"),
        ("peak=0", "'peak'"),
        ("peak=-1", "'peak'"),
        ("seeds=[]", "'seeds'"),
        ("sweep.nfe=[]", "'nfe'"),
        ("sweep.nfe=[2.5]", "'nfe'"),
        ("sweep.nfe=[true]", "'nfe'"),
        ("sampler.w=Infinity", "w must be finite"),
        ("sampler.w=NaN", "w must be finite"),
        ("sampler.lambda=NaN", "lam must be finite"),
        ("problem.sigma_y=NaN", "sigma_y must be finite"),
        ("schedule.beta_max=Infinity", "['beta_max'] must be positive and finite"),
        ("problem.data.mean=NaN", "must be finite"),
        ("problem.data.var=1e400", "must be finite"),
        ('problem.data={"source":"mixture","dim":16,"weights":[NaN,0.4],'
         '"means":[1,-1],"vars":[0.3,0.5]}', "must be finite"),
        ('problem.operator={"kind":"block_average","factor":0,"height":4,"width":4}',
         "'factor'"),
        ("problem.data.dim=-1", "'dim'"),
        ('model={"kind":"external","argv":[1]}', "'argv'"),
        ("sampler.w=1" + "0" * 400, "'w'"),
        ('problem.data={"source":"mixture","dim":16,"weights":[0.6,0.4],'
         '"means":[1.2,-1.0,5.0],"vars":[0.3,0.5]}',
         "problem.data mixture 'weights', 'means' and 'vars'"),
        ('model={"kind":"auto","source":"mixture","weights":[0.6,0.4],'
         '"means":[1.2,-1.0],"vars":[0.3,0.5,0.2]}', "model mixture 'weights', 'means' and 'vars'"),
        ('model={"kind":"auto","source":"gaussian","mean":[1,2]}',
         "model.mean must be one number or 16 numbers, got [1.0, 2.0]"),
        ("problem.data.var=[1,2,3]", "problem.data.var must be one number or 16 numbers"),
        ('problem.data={"source":"mixture","dim":16,"weights":[0.6,0.4],'
         '"means":[[1,2],-1.0],"vars":[0.3,0.5]}', "problem.data.means must be one number"),
        ('model={"kind":"auto","source":"mixture","weights":[0.6,0.4],'
         '"means":[1.2,-1.0],"vars":[0.3,[1,2]]}', "model.vars must be one number"),
    ], ids=["problem", "operator", "model", "seeds", "sweep", "data-dim", "sampler-w",
            "sigma-y", "data-mean", "mixture-means", "seed-string", "seed-float",
            "seed-negative", "mixture-weights", "sampler-method", "mask-index-fraction",
            "peak-zero", "peak-negative", "no-seeds", "empty-sweep-list", "nfe-fraction",
            "nfe-boolean", "w-infinite", "w-nan", "lambda-nan", "sigma-y-nan",
            "beta-max-infinite", "data-mean-nan", "data-var-overflow",
            "mixture-weight-nan", "block-factor-zero", "data-dim-negative", "argv-number",
            "w-huge-integer", "mixture-three-means", "model-mixture-three-vars",
            "model-mean-length", "data-var-length", "data-means-length", "model-vars-length"])
    def test_mistyped_config_is_a_config_error(self, tmp_path, capsys, override, named):
        # a block that is not an object, a list that is not a list, a number
        # that does not parse, or a seed that is not a non-negative integer
        assert cli.main(self.shipped_mask_argv(tmp_path / "out", override)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err

    def test_non_integer_seeds_flag_is_a_config_error(self, tmp_path, capsys):
        assert cli.main(self.shipped_mask_argv(tmp_path / "out") + ["--seeds", "x"]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "--seeds" in err

    def test_empty_seeds_flag_is_a_config_error(self, tmp_path, capsys):
        assert cli.main(self.shipped_mask_argv(tmp_path / "out") + ["--seeds", ""]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "'seeds'" in err

    @pytest.mark.parametrize("threads", ["--threads=0", "--threads=-4"])
    def test_threads_below_one_is_a_config_error(self, tmp_path, capsys, threads):
        assert cli.main(self.shipped_mask_argv(tmp_path / "out") + [threads]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "--threads" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "degrade", "coeff-dump"])
    @pytest.mark.parametrize("value", ["5", "[1]"])
    def test_mistyped_output_dir_is_a_config_error(self, tmp_path, capsys, command, value):
        # no --output-dir flag: it would replace the config's value
        argv = [command, self.write_config(tmp_path, base_config()),
                "--override", f"output_dir={value}"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "'output_dir'" in err

    def test_rank_deficient_dense_is_a_config_error(self, tmp_path, capsys):
        override = 'problem.operator={"kind":"dense","matrix":[[1,0,0],[2,0,0]]}'
        assert cli.main(self.shipped_mask_argv(tmp_path / "out", override)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "full row rank" in err

    def test_flags_only_where_read(self, tmp_path):
        path = self.write_config(tmp_path, base_config())
        for argv in (["degrade", path, "--threads", "2"],
                     ["coeff-dump", path, "--threads", "2"],
                     ["coeff-dump", path, "--seeds", "1"]):
            with pytest.raises(SystemExit):
                cli.main(argv)

    def test_coeff_dump(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_config())
        assert cli.main(["coeff-dump", path]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == \
            "t,kappa1,kappa2,kappa3,phi_y,phi_main_id,phi_main_p,phi_j_id,phi_j_p"

    def test_refused_degrade_writes_nothing(self, tmp_path):
        cfg = base_config()
        cfg["problem"]["data"] = {"source": "tensor_file", "path": "missing.cji"}
        argv = ["degrade", self.write_config(tmp_path, cfg), "--output-dir", str(tmp_path / "o")]
        assert cli.main(argv) == 1
        assert not (tmp_path / "o").exists()

    def test_degrade_writes_files(self, tmp_path):
        path = self.write_config(tmp_path, base_config())
        rc = cli.main(["degrade", path, "--output-dir", str(tmp_path / "deg"),
                       "--seeds", "0,1"])
        assert rc == 0
        assert sorted(os.listdir(tmp_path / "deg")) == [
            "x0_0.cji", "x0_1.cji", "y_0.cji", "y_1.cji"]


def strict_json_constant(token):
    raise ValueError(f"{token} is not JSON")


def shipped(name):
    return harness.load_config(os.path.join(CONFIGS, name))


def key_paths(node, parent=()):
    """(parent path, key) of every key of a config block, at any depth."""
    for key, value in node.items():
        yield parent, key
        if isinstance(value, dict):
            yield from key_paths(value, (*parent, key))


@st.composite
def misplaced_keys(draw):
    """A shipped config with one key, at any depth, given a one-character
    edit or moved into a sibling block; and that key's dotted path."""
    config = shipped(draw(st.sampled_from(["gaussian_mask.json", "mixture_blur.json"])))
    parent, key = draw(st.sampled_from(list(key_paths(config))))
    node = config
    for part in parent:
        node = node[part]
    siblings = [k for k, v in node.items() if isinstance(v, dict) and k != key]
    if siblings and draw(st.booleans()):
        block = draw(st.sampled_from(siblings))
        node[block][key] = node.pop(key)
        path = (*parent, block, key)
    else:
        i = draw(st.integers(0, len(key)))
        char = draw(st.sampled_from("abdeiklmnorstwy_.0"))
        edited = draw(st.sampled_from([key[:i] + char + key[i:], key[:i] + key[i + 1:],
                                       key[:i] + char + key[i + 1:]]))
        assume(edited and edited not in node)
        node[edited] = node.pop(key)
        path = (*parent, edited)
    assume(".".join(path) not in set(harness.declared_paths()))
    return config, ".".join(path)


class TestSchema:
    @pytest.mark.parametrize("command", ["run", "degrade", "coeff-dump"])
    @pytest.mark.parametrize("override,path,near", [
        ("sampler.lamda=0.5", "sampler.lamda", "sampler.lambda"),
        ("sampler.sigma_y=0.05", "sampler.sigma_y", "problem.sigma_y"),
        ("model.knd=external", "model.knd", "model.kind"),
        ("sampler.schedule=constant", "sampler.schedule", "sampler.schedule_kind"),
        ("problem.operator.indicies=[1]", "problem.operator.indicies",
         "problem.operator.indices"),
    ], ids=["lamda", "sampler-sigma-y", "model-knd", "sampler-schedule", "indicies"])
    def test_unknown_key_is_a_config_error(self, tmp_path, capsys, command, override, path,
                                           near):
        # each of these used to run without the setting
        argv = [command, os.path.join(CONFIGS, "gaussian_mask.json"),
                "--output-dir", str(tmp_path / "o"), "--override", override]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert f"unknown key {path!r}; did you mean {near!r}?" in err
        assert not (tmp_path / "o").exists()

    def test_key_of_another_kind_is_unknown(self):
        cfg = base_config()
        cfg["problem"]["operator"]["factor"] = 2  # a block_average key on a mask
        with pytest.raises(ConfigError, match="unknown key 'problem.operator.factor'"):
            harness.validate(cfg)

    def test_auto_model_of_tensor_file_data_needs_its_own_source(self, tmp_path):
        write_tensor(tmp_path / "x0.cji", np.zeros(8))
        cfg = base_config()
        cfg["problem"]["data"] = {"source": "tensor_file", "path": str(tmp_path / "x0.cji")}
        with pytest.raises(ConfigError, match="model.source"):
            harness.run(cfg)

    def test_auto_model_with_a_source_has_its_own_prior(self):
        cfg = base_config()
        cfg["model"] = {"kind": "auto", "source": "gaussian", "mean": 5.0}
        assert harness.validate(cfg)["model"] == {"kind": "auto", "source": "gaussian",
                                                  "mean": 5.0, "var": 1.0}
        assert harness.validate(base_config())["model"] == {
            "kind": "auto", "source": "gaussian", "mean": 0.0, "var": 1.0}
        own = [r.mse for r in harness.run(cfg).records]
        assert own != [r.mse for r in harness.run(base_config()).records]

    @pytest.mark.parametrize("name", ["gaussian_mask.json", "mixture_blur.json"])
    def test_validate_is_idempotent(self, name):
        resolved = harness.validate(shipped(name))
        assert harness.validate(json.loads(json.dumps(resolved))) == resolved

    @settings(max_examples=60, deadline=2000)
    @seed(20261020)
    @given(misplaced_keys())
    def test_misplaced_keys_are_refused_by_every_command(self, case):
        config, path = case
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = os.path.join(tmp, "cfg.json")
            with open(cfg_path, "w") as fh:
                json.dump(config, fh)
            for command in ("run", "degrade", "coeff-dump"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    rc = cli.main([command, cfg_path, "--output-dir", os.path.join(tmp, "o")])
                assert rc == 1 and "configuration error" in err.getvalue()
                assert repr(path) in err.getvalue()
            assert not os.path.exists(os.path.join(tmp, "o"))

    def test_shipped_configs_resolve(self):
        common = {
            "model": {"kind": "auto"},
            "schedule": {"beta_min": 0.1, "beta_max": 20.0},
            "peak": 1.0,
        }
        sampler = {"method": "conjugate_diffusion", "lambda": 0.0, "tau": 0.6,
                   "schedule_kind": "adaptive_paper", "t_floor": 1e-4}
        gaussian = {"source": "gaussian", "mean": 0.0, "var": 1.0}
        mixture = {"source": "mixture", "weights": [0.6, 0.4], "means": [1.2, -1.0],
                   "vars": [0.3, 0.5]}
        assert harness.validate(shipped("gaussian_mask.json")) == {
            **common,
            "problem": {"operator": {"kind": "mask", "indices": [0, 2, 4, 6, 8, 10, 12, 14],
                                     "bitmap": None},
                        "data": {**gaussian, "dim": 16}, "sigma_y": 0.0},
            "model": {"kind": "auto", **gaussian},
            "sampler": {**sampler, "w": 2.0, "nfe": 20},
            "sweep": {"w": None, "lambda": None, "tau": None, "nfe": [5, 10, 20]},
            "seeds": [0, 1, 2],
            "output_dir": "out/gaussian_mask",
        }
        assert harness.validate(shipped("mixture_blur.json")) == {
            **common,
            "problem": {"operator": {"kind": "circulant_blur", "kernel": [0.2, 0.6, 0.2],
                                     "height": None, "width": None, "threshold": 1e-8},
                        "data": {**mixture, "dim": 32}, "sigma_y": 0.05},
            "model": {"kind": "auto", **mixture},
            "sampler": {**sampler, "w": 4.0, "nfe": 10},
            "sweep": {"w": [2.0, 4.0, 8.0], "lambda": None, "tau": None, "nfe": None},
            "seeds": [0, 1],
            "output_dir": "out/mixture_blur",
        }

    @pytest.mark.parametrize("name", ["gaussian_mask.json", "mixture_blur.json"])
    def test_run_records_the_resolved_config(self, tmp_path, name):
        out = tmp_path / "out"
        assert cli.main(["run", os.path.join(CONFIGS, name), "--output-dir", str(out)]) == 0
        record = json.loads((out / "config.resolved.json").read_text(),
                            parse_constant=strict_json_constant)
        resolved = harness.validate(shipped(name))
        assert record == {"config": {**resolved, "output_dir": str(out)},
                          "cji": cji.__version__, "numpy": np.__version__,
                          "python": platform.python_version()}
        for block, key in (("problem", "sigma_y"), ("problem", "operator"),
                           ("sampler", "schedule_kind")):
            assert record["config"][block][key] == resolved[block][key]
        assert (out / "report.csv").read_text().splitlines()[0] == ",".join(harness.CSV_HEADER)

    def test_flow_run_refuses_an_infinite_beta_max(self, tmp_path, capsys):
        # a flow method builds no DiffusionSchedule, so only the schema sees it
        argv = ["run", os.path.join(CONFIGS, "gaussian_mask.json"),
                "--output-dir", str(tmp_path / "o"), "--override", "sampler.method=conjugate_flow",
                "--override", "schedule.beta_max=Infinity", "--override", "sweep.nfe=[5]"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "['beta_max'] must be positive and finite" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides,named", [
        (["sampler.w=NaN", "sweep.w=[2.0]"], "w must be finite"),
        (['problem.operator={"kind":"mask","bitmap":[NaN,1,1,1,1,1,1,1]}'],
         "bitmap entries must be finite"),
    ], ids=["swept-sampler-key", "bitmap"])
    def test_unbuilt_non_finite_value_is_refused(self, tmp_path, overrides, named):
        # each would otherwise reach config.resolved.json as a bare NaN
        cfg = harness.apply_overrides(base_config(), overrides)
        with pytest.raises(ConfigError, match=named):
            harness.run(cfg, output_dir=tmp_path / "o")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["degrade", "coeff-dump"])
    @pytest.mark.parametrize("name", ["gaussian_mask.json", "mixture_blur.json"])
    def test_shipped_configs_pass_every_command(self, tmp_path, command, name):
        out = tmp_path / "o"
        assert cli.main([command, os.path.join(CONFIGS, name), "--output-dir", str(out)]) == 0
        assert os.listdir(out)

    def test_readme_lists_every_config_key(self):
        with open(README, encoding="utf-8") as fh:
            readme = fh.read()
        assert [p for p in harness.declared_paths() if f"`{p}`" not in readme] == []
