"""Tests for the presto CLI."""

import pytest

from repro.cli import main


def test_pipelines_command(capsys):
    assert main(["pipelines"]) == 0
    out = capsys.readouterr().out
    assert "CV" in out
    assert "FLAC" in out


def test_datasets_command(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "ILSVRC2012" in out
    assert "CREAM" in out


def test_profile_command(capsys):
    assert main(["profile", "MP3"]) == 0
    out = capsys.readouterr().out
    assert "Recommended strategy" in out
    assert "spectrogram-encoded" in out


def test_profile_on_ssd(capsys):
    assert main(["profile", "MP3", "--storage", "ceph-ssd"]) == 0
    assert "Recommended" in capsys.readouterr().out


def test_tune_command(capsys):
    assert main(["tune", "NILM", "--wt", "1"]) == 0
    out = capsys.readouterr().out
    assert "best =" in out
    assert "aggregated" in out


def test_bottleneck_command(capsys):
    assert main(["bottleneck", "NLP"]) == 0
    out = capsys.readouterr().out
    assert "bound by" in out


def test_diagnose_command(capsys):
    assert main(["diagnose", "MP3"]) == 0
    out = capsys.readouterr().out
    assert "## diagnosis: MP3" in out
    assert "bound" in out
    assert "rewrites (per strategy, best first):" in out
    assert "insert-prefetch" in out


def test_diagnose_verify_top(capsys):
    assert main(["diagnose", "MP3", "--verify-top", "2"]) == 0
    out = capsys.readouterr().out
    assert "verification (top 2):" in out
    assert "measured" in out
    assert "prediction error" in out


def test_diagnose_accepts_registry_variants(capsys):
    """Sec. 4.6 variants are registered but not in the paper seven;
    diagnose must accept them."""
    assert main(["diagnose", "CV+greyscale-after",
                 "--sample-count", "2000"]) == 0
    assert "## diagnosis: CV+greyscale-after" in capsys.readouterr().out


def test_diagnose_with_jobs_and_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "diag-cache")
    assert main(["diagnose", "FLAC", "--jobs", "2",
                 "--cache", cache_dir]) == 0
    first = capsys.readouterr()
    assert "0 hits / 3 lookups" in first.err
    assert main(["diagnose", "FLAC", "--jobs", "2",
                 "--cache", cache_dir]) == 0
    second = capsys.readouterr()
    assert second.out == first.out
    assert "3 hits / 3 lookups (100%)" in second.err


def test_diagnose_sample_count_subset(capsys):
    assert main(["diagnose", "FLAC", "--sample-count", "500"]) == 0
    assert "## diagnosis: FLAC" in capsys.readouterr().out


def test_fio_command(capsys):
    assert main(["fio"]) == 0
    out = capsys.readouterr().out
    assert "MB/s" in out


def test_cost_command(capsys):
    assert main(["cost", "MP3", "--epochs", "5"]) == 0
    out = capsys.readouterr().out
    assert "total_usd" in out
    assert "dollar cost" in out


def test_amortize_command(capsys):
    assert main(["amortize", "FLAC", "--horizons", "1", "50"]) == 0
    out = capsys.readouterr().out
    assert "winner" in out
    assert "total_hours" in out


def test_fanout_command(capsys):
    assert main(["fanout", "NILM", "--trainers", "1", "8"]) == 0
    out = capsys.readouterr().out
    assert "delivered_sps" in out


def test_fanout_with_explicit_strategy(capsys):
    assert main(["fanout", "CV", "--strategy", "pixel-centered",
                 "--trainers", "1", "8"]) == 0
    assert "network_bound" in capsys.readouterr().out


def test_fanout_simulate_crosschecks_the_closed_form(capsys):
    assert main(["fanout", "MP3", "--simulate", "--trainers", "1"]) == 0
    out = capsys.readouterr().out
    assert "analytic_sps" in out
    assert "simulated_sps" in out
    assert "co-simulating" in out


def test_serve_command(capsys):
    assert main(["serve", "--tenants", "3", "--policy", "fifo",
                 "--trace", "steady", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "## serve: 3 tenants" in out
    assert "p99_epoch_s" in out
    assert "service [fifo]" in out
    assert "cluster diagnosis [fifo]" in out


def test_serve_policy_comparison(capsys):
    assert main(["serve", "--tenants", "4", "--policy", "all",
                 "--trace", "bursty", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "policies compared" in out
    assert "best policy by aggregate throughput:" in out
    for policy in ("fifo", "fair-share", "cache-aware"):
        assert f"cluster diagnosis [{policy}]" in out


def test_profile_with_jobs_and_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "profiles")
    assert main(["profile", "MP3", "--jobs", "2",
                 "--cache", cache_dir]) == 0
    first = capsys.readouterr()
    assert "Recommended strategy" in first.out
    assert "0 hits / 3 lookups" in first.err

    assert main(["profile", "MP3", "--jobs", "2",
                 "--cache", cache_dir]) == 0
    second = capsys.readouterr()
    assert second.out == first.out
    assert "3 hits / 3 lookups (100%)" in second.err


def test_profile_cache_mode_flag(capsys):
    assert main(["profile", "MP3", "--epochs", "2",
                 "--cache-mode", "system"]) == 0
    assert "Recommended strategy" in capsys.readouterr().out


def test_sweep_command(capsys):
    assert main(["sweep", "--pipelines", "MP3", "NILM"]) == 0
    captured = capsys.readouterr()
    assert "## MP3" in captured.out
    assert "## NILM" in captured.out
    assert captured.out.count("Recommended strategy") == 2
    assert "profiling job(s)" in captured.err
    assert "sweep: 6 strategies across 2 pipeline(s)" in captured.err


def test_sweep_parallel_output_matches_serial(capsys):
    assert main(["sweep", "--quiet", "--pipelines", "FLAC"]) == 0
    serial = capsys.readouterr().out
    assert main(["sweep", "--quiet", "--jobs", "2",
                 "--pipelines", "FLAC"]) == 0
    assert capsys.readouterr().out == serial


def test_sweep_cache_reports_hits(tmp_path, capsys):
    cache_dir = str(tmp_path / "sweep-cache")
    assert main(["sweep", "--quiet", "--pipelines", "MP3",
                 "--cache", cache_dir]) == 0
    capsys.readouterr()
    assert main(["sweep", "--quiet", "--pipelines", "MP3",
                 "--cache", cache_dir]) == 0
    assert "3 hits / 3 lookups (100%)" in capsys.readouterr().err


def test_tune_with_jobs(capsys):
    assert main(["tune", "NILM", "--jobs", "2", "--wt", "1"]) == 0
    assert "best =" in capsys.readouterr().out


def test_cache_rejects_old_cache_mode_values(capsys):
    """--cache used to be the epoch-caching knob; old values must fail
    loudly instead of becoming directory names."""
    assert main(["profile", "MP3", "--cache", "application"]) == 2
    err = capsys.readouterr().err
    assert "--cache-mode application" in err


def test_cli_reports_engine_errors_cleanly(capsys):
    assert main(["sweep", "--jobs", "0", "--pipelines", "MP3"]) == 2
    assert "presto: error:" in capsys.readouterr().err


def test_unknown_pipeline_exits_with_valid_names(capsys):
    """Unknown registry names exit 2 with the valid list, no traceback."""
    assert main(["profile", "VIDEO"]) == 2
    err = capsys.readouterr().err
    assert "unknown pipeline 'VIDEO'" in err
    assert "CV2-JPG" in err and "FLAC" in err


def test_unknown_names_exit_2_across_registries(capsys):
    cases = [
        (["diagnose", "CV3"], "did you mean 'CV'?"),
        (["serve", "--policy", "lru"], "valid policies:"),
        (["serve", "--trace", "spiky"], "unknown trace 'spiky'"),
        (["sweep", "--storage", "floppy"], "unknown storage device"),
        (["fanout", "CV", "--strategy", "bogus"], "valid strategies:"),
    ]
    for argv, fragment in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "presto: error:" in err, argv
        assert fragment in err, (argv, err)


@pytest.mark.parametrize("flag", ["--rate", "--slo-stretch"])
def test_stream_rejects_non_finite_knobs(capsys, flag):
    """An infinite rate or SLO stretch is a spec error (exit 2), not a
    run whose deadlines and latencies mean nothing."""
    argv = ["stream", "--tenants", "1", "--requests", "4", flag, "inf"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "presto: error:" in err
    assert "finite" in err


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
