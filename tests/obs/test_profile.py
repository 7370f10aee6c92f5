"""Cost-attribution profiler: attribution conservation, flamegraph
round-trip, the provably-zero-cost disabled path, serial == sharded
attribution equivalence, and the ``repro profile`` command.

The conservation tests pin the acceptance criterion of the profiler:
attributed unit costs must tile the measured stage spans (within
tolerance), so "where did the time go" always has an answer that sums
to the time that actually passed.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import load_app
from repro.core import Sierra, SierraOptions
from repro.obs import metrics
from repro.obs.profile import (
    STAGE_NAMES,
    Profiler,
    active,
    collapsed_stacks,
    parse_collapsed,
    profiled,
)

#: the acceptance app: big enough that every stage does real work
APP = "paper:K-9 Mail"

#: relative slack on conservation sums — attribution timers nest inside
#: the stage span, so sums may only undershoot plus timer jitter
REL_TOL = 0.10


@pytest.fixture(scope="module")
def summary():
    # profiling is a hook the caller installs around the run
    with profiled() as prof:
        Sierra(SierraOptions()).analyze(load_app(APP))
    return prof.summary(app=APP)


class TestConservation:
    def test_attributes_at_least_ninety_percent_of_stage_walltime(self, summary):
        # the headline acceptance criterion: >= 90% of pointsto + hb +
        # refutation wall time lands on named semantic units
        assert summary["coverage"] >= 0.90

    def test_every_stage_present_with_valid_coverage(self, summary):
        assert set(summary["stages"]) == set(STAGE_NAMES)
        for name, stage in summary["stages"].items():
            assert stage["seconds"] > 0.0, name
            assert 0.0 <= stage["coverage"] <= 1.0
            assert stage["covered_s"] <= stage["seconds"] * (1.0 + REL_TOL)

    def test_unit_sums_tile_their_stage_spans(self, summary):
        # per-unit sums (full totals, not the top-K display cap) must
        # stay within the stage span they claim to explain
        stages, totals = summary["stages"], summary["totals"]
        slack = lambda s: stages[s]["seconds"] * (1.0 + REL_TOL) + 0.005
        assert totals["pointsto.method"]["seconds"] <= slack("cg_pa")
        assert totals["hb.rule"]["seconds"] <= slack("hbg")
        # refutation candidates overlap wall time under a fork pool, so
        # only the serial default (parallelism=1 fixture) can be tiled
        assert totals["refute.candidate"]["seconds"] <= slack("refutation")

    def test_context_sums_equal_method_sums(self, summary):
        # per-context rows are a re-bucketing of the same charges, not a
        # second measurement: identical grand totals
        a = summary["totals"]["pointsto.method"]["seconds"]
        b = summary["totals"]["pointsto.context"]["seconds"]
        assert b == pytest.approx(a, rel=1e-3, abs=1e-4)

    def test_self_overhead_measured_and_small(self, summary):
        total = sum(s["seconds"] for s in summary["stages"].values())
        assert 0.0 <= summary["self_overhead_s"] < max(total, 0.01)
        assert summary["charges"] > 0 and summary["events"] > 0


class TestFlamegraph:
    def test_round_trips_and_tiles_stage_seconds(self, summary):
        text = collapsed_stacks(summary)
        rows = parse_collapsed(text)
        assert rows, "flamegraph export is empty"
        per_stage = {}
        for frames, micros in rows:
            assert frames[0] == "sierra"
            assert micros >= 0
            per_stage[frames[1]] = per_stage.get(frames[1], 0) + micros
        # residual/unattributed frames make each stage subtree sum to the
        # measured span exactly (modulo per-line integer rounding)
        for name, stage in summary["stages"].items():
            got = per_stage[name] / 1e6
            assert got == pytest.approx(stage["seconds"], rel=0.02, abs=0.002)

    def test_frames_carry_no_separator_characters(self, summary):
        for frames, _micros in parse_collapsed(collapsed_stacks(summary)):
            for frame in frames:
                assert ";" not in frame and " " not in frame

    @pytest.mark.parametrize(
        "text",
        [
            "sierra;cg_pa",  # no count
            "sierra;cg_pa notanumber",  # non-integer count
            "sierra;cg_pa -12",  # negative count
            " 42",  # empty stack
        ],
    )
    def test_malformed_lines_are_rejected(self, text):
        with pytest.raises(ValueError):
            parse_collapsed(text)


class TestDisabledPath:
    def test_disabled_run_installs_no_hooks_and_mints_no_counters(self):
        before_hooks = len(obs.diagnostics._hooks)
        Sierra(SierraOptions()).analyze(load_app("quickstart"))
        assert active() is None
        assert len(obs.diagnostics._hooks) == before_hooks
        # the profiler keeps every tally internal: no registry series
        # exist for it whether it ran or not
        assert not [n for n in metrics.registry().names() if "profile" in n]

    def test_enabled_run_also_keeps_registry_clean(self, summary):
        assert not [n for n in metrics.registry().names() if "profile" in n]

    def test_profiler_uninstalled_after_profiled_run(self, summary):
        assert active() is None
        assert not any(
            isinstance(h, Profiler) for h in obs.diagnostics._hooks
        )


class TestSerialEqualsSharded:
    def test_refutation_attribution_units_match(self):
        apk = load_app(APP)

        def run(parallelism):
            # uncapped top_k: the display cap would make the comparison
            # depend on wall-clock ordering of the top 40 rows
            with profiled(top_k=1_000_000) as prof:
                Sierra(SierraOptions(parallelism=parallelism)).analyze(apk)
                return prof.summary(app=apk.name)

        serial, sharded = run(1), run(2)

        def units(summary, kind):
            return {row["name"]: row["count"] for row in summary["units"][kind]}

        # fork workers re-emit their candidate spans to the parent, so
        # the sharded run attributes the same candidates the same number
        # of times — wall seconds differ, the unit set must not
        for kind in ("refute.candidate", "refute.field"):
            assert units(serial, kind) == units(sharded, kind), kind
        assert serial["totals"]["refute.candidate"]["count"] == (
            sharded["totals"]["refute.candidate"]["count"]
        )


class TestCompareNoAs:
    def test_no_as_reanalysis_is_not_charged_to_the_stages(self):
        """``--compare-no-as`` re-runs extraction and the HB rules under its
        own ``no_as`` root span; none of that is stage cost."""

        def profile(compare_without_as):
            options = SierraOptions(compare_without_as=compare_without_as)
            with profiled() as prof:
                Sierra(options).analyze(load_app("opensudoku"))
            return prof.summary()

        plain, with_no_as = profile(False), profile(True)
        for key in ("events", "charges"):
            assert with_no_as[key] == plain[key], key

        def counts(summary):
            return {kind: total["count"] for kind, total in summary["totals"].items()}

        assert counts(with_no_as) == counts(plain)
        for kind in ("extract.phase", "hb.rule"):
            assert {row["count"] for row in with_no_as["units"][kind]} == {1}, kind


@pytest.mark.profile_smoke
class TestProfileCli:
    def test_profile_command_writes_json_and_flamegraph(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.profile import parse_collapsed

        flame = tmp_path / "out.txt"
        assert main(["profile", "quickstart", "--json",
                     "--flamegraph", str(flame)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["app"] == "quickstart"
        assert summary["coverage"] > 0.0
        rows = parse_collapsed(flame.read_text())
        assert rows and rows[0][0][0] == "sierra"

    def test_profile_command_renders_tables(self, capsys):
        from repro.cli import main

        assert main(["profile", "quickstart", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out and "points-to cost by method" in out
