"""Race provenance: the evidence bundle behind every reported race."""

from __future__ import annotations

import json

import pytest

from repro.core import Sierra, SierraOptions, render_evidence_tree


@pytest.fixture(scope="module")
def sudoku_result(request):
    apk = request.getfixturevalue("opensudoku_apk")
    return Sierra(SierraOptions()).analyze(apk)


class TestProvenanceBundle:
    def test_every_report_carries_provenance(self, sudoku_result):
        reports = sudoku_result.report.reports
        assert reports
        for report in reports:
            assert report.provenance is not None
            d = report.provenance.to_dict()
            assert set(d) == {"hb", "aliasing", "refutation", "refuted_siblings"}

    def test_hb_evidence_names_the_gap(self, sudoku_result):
        report = sudoku_result.report.reports[0]
        hb = report.provenance.hb
        a, b = report.pair.actions
        assert hb["ordered"] is False
        assert set(hb["actions"]) == {str(a), str(b)}
        # every action block names the rules that did order it elsewhere
        for info in hb["actions"].values():
            assert "describe" in info and "incident_rules" in info

    def test_fork_evidence_chains_reach_the_actions(self, sudoku_result):
        report = sudoku_result.report.reports[0]
        hb = report.provenance.hb
        fork = hb["fork_evidence"]
        assert fork is not None
        a, b = report.pair.actions
        assert fork["fork"] in hb["fork_points"]
        # rule-labeled derivation chains start at the fork point and end at
        # the respective action
        for chain, target in ((fork["chain_to_a"], a), (fork["chain_to_b"], b)):
            assert chain[0]["src"] == fork["fork"]
            assert chain[-1]["dst"] == target
            assert all(edge["rule"] for edge in chain)

    def test_fork_points_are_latest_common_ancestors(self, sudoku_result):
        shbg = sudoku_result.shbg
        report = sudoku_result.report.reports[0]
        a, b = report.pair.actions
        forks = shbg.fork_points(a, b)
        ancestors = shbg.common_ancestors(a, b)
        assert set(forks) <= set(ancestors)
        # no other common ancestor is ordered after a fork point
        for fork in forks:
            assert not any(shbg.ordered(fork, c) for c in ancestors if c != fork)

    def test_aliasing_evidence_shows_overlap(self, sudoku_result):
        report = sudoku_result.report.reports[0]
        al = report.provenance.aliasing
        assert al["location"]["field"] == report.field_name
        assert len(al["accesses"]) == 2
        kinds = {access["kind"] for access in al["accesses"]}
        assert "write" in kinds
        assert al["overlap"]["items"], "racy accesses must share a location"

    def test_refutation_evidence_for_survivor(self, sudoku_result):
        report = sudoku_result.report.reports[0]
        ref = report.provenance.refutation
        assert ref["enabled"] is True
        assert ref["verdict"] == "race"
        assert ref["refuted_ordering"] is None

    def test_refutation_disabled_is_explicit(self, opensudoku_apk):
        result = Sierra(SierraOptions(refute=False)).analyze(opensudoku_apk)
        ref = result.report.reports[0].provenance.refutation
        assert ref == {"enabled": False}

    def test_report_json_includes_provenance(self, sudoku_result):
        d = sudoku_result.report.to_dict()
        json.dumps(d)  # bundle must stay JSON-clean
        assert d["reports"]
        for entry in d["reports"]:
            assert entry["provenance"]["hb"]["ordered"] is False


class TestEvidenceTree:
    def test_render_names_all_three_pillars(self, sudoku_result):
        report = sudoku_result.report.reports[0]
        tree = render_evidence_tree(report)
        a, b = report.pair.actions
        assert f"race #{report.rank}" in tree
        assert f"actions {a} and {b} are unordered" in tree
        assert "fork point" in tree
        assert "aliasing" in tree
        assert "refutation: survived" in tree

    def test_render_without_provenance_degrades(self, sudoku_result):
        report = sudoku_result.report.reports[0]
        stashed, report.provenance = report.provenance, None
        try:
            assert "no provenance" in render_evidence_tree(report)
        finally:
            report.provenance = stashed


class TestExplainCli:
    def test_explain_by_rank(self, capsys):
        from repro.cli import main

        assert main(["explain", "opensudoku", "1"]) == 0
        out = capsys.readouterr().out
        assert "race #1" in out
        assert "happens-before" in out

    def test_explain_by_field_name(self, capsys):
        from repro.cli import main

        assert main(["explain", "opensudoku", "1"]) == 0
        field = None
        for line in capsys.readouterr().out.splitlines():
            if "aliasing: both may touch" in line:
                field = line.rsplit(".", 1)[-1]
        assert field
        assert main(["explain", "opensudoku", field]) == 0
        assert f"race #" in capsys.readouterr().out

    def test_explain_unknown_race_exits_2(self, capsys):
        from repro.cli import main

        assert main(["explain", "opensudoku", "9999"]) == 2
        assert "no reported race" in capsys.readouterr().err


# ----------------------------------------------------------------------
# brute-force reference: the per-race scans provenance ran before it read
# per-run indexes — an adjacency rebuild per BFS, an all-edges incident
# scan, an all-actions common-ancestor scan, an all-results sibling scan
# ----------------------------------------------------------------------
def _ref_rule_path(shbg, src, dst):
    if src == dst or not shbg.ordered(src, dst):
        return None
    adjacency = {}
    for edge in shbg.direct_edges:
        adjacency.setdefault(edge.src, []).append(edge)
    frontier, came_from, seen = [src], {}, {src}
    while frontier:
        nxt = []
        for node in frontier:
            for edge in adjacency.get(node, ()):
                if edge.dst in seen:
                    continue
                seen.add(edge.dst)
                came_from[edge.dst] = edge
                if edge.dst == dst:
                    path, cursor = [], dst
                    while cursor != src:
                        step = came_from[cursor]
                        path.append(step)
                        cursor = step.src
                    return path[::-1]
                nxt.append(edge.dst)
        frontier = nxt
    return None


def _ref_common_ancestors(shbg, a, b):
    return [
        action.id
        for action in shbg.actions
        if shbg.ordered(action.id, a) and shbg.ordered(action.id, b)
    ]


def _ref_fork_points(shbg, a, b):
    ancestors = _ref_common_ancestors(shbg, a, b)
    pool = set(ancestors)
    return [
        c for c in ancestors
        if not any(shbg.ordered(c, other) for other in pool if other != c)
    ]


def _ref_incident_rules(shbg, action_id):
    counts = {}
    for edge in shbg.direct_edges:
        if edge.src == action_id or edge.dst == action_id:
            counts[edge.rule] = counts.get(edge.rule, 0) + 1
    return dict(sorted(counts.items()))


def _ref_siblings(pair, all_results):
    from repro.core.provenance import MAX_SIBLINGS

    siblings = []
    pair_actions = set(pair.actions)
    for result in all_results:
        if result.is_race or result.pair is pair:
            continue
        if not (
            result.pair.field_name == pair.field_name
            or set(result.pair.actions) & pair_actions
        ):
            continue
        siblings.append(
            {
                "actions": list(result.pair.actions),
                "field": result.pair.field_name,
                "kind": result.pair.kind,
                "refuted_ordering": result.refuted_ordering,
            }
        )
        if len(siblings) >= MAX_SIBLINGS:
            break
    return siblings


def _reference_provenance(pair, extraction, shbg, result, all_results):
    from repro.core.provenance import (
        MAX_LIST,
        RaceProvenance,
        _aliasing_evidence,
        _edge_dicts,
        _refutation_evidence,
        _rule6_gap,
    )

    a_id, b_id = pair.actions
    a, b = extraction.by_id(a_id), extraction.by_id(b_id)
    forks = _ref_fork_points(shbg, a_id, b_id)
    fork_evidence = None
    if forks:
        fork_evidence = {
            "fork": forks[0],
            "fork_label": extraction.by_id(forks[0]).describe(),
            "chain_to_a": _edge_dicts(_ref_rule_path(shbg, forks[0], a_id)),
            "chain_to_b": _edge_dicts(_ref_rule_path(shbg, forks[0], b_id)),
        }
    hb = {
        "ordered": False,
        "actions": {
            str(a_id): {"describe": a.describe(), "incident_rules": _ref_incident_rules(shbg, a_id)},
            str(b_id): {"describe": b.describe(), "incident_rules": _ref_incident_rules(shbg, b_id)},
        },
        "fork_points": forks[:MAX_LIST],
        "fork_evidence": fork_evidence,
        "same_looper": a.affinity.same_looper(b.affinity),
    }
    gap = _rule6_gap(extraction, shbg, a_id, b_id)
    if gap is not None:
        hb["rule6_gap"] = gap
    return RaceProvenance(
        hb=hb,
        aliasing=_aliasing_evidence(pair),
        refutation=_refutation_evidence(result),
        refuted_siblings=_ref_siblings(pair, all_results),
    )


@pytest.fixture(
    scope="module",
    params=["opensudoku", "paper:APV", "paper:Mileage", "paper:K-9 Mail"],
)
def pipeline(request):
    """The detector's public calls in order, keeping every refutation
    result (the siblings oracle needs them all)."""
    from repro.cli import load_app
    from repro.core import (
        RefutationEngine,
        attach_provenance,
        build_shbg,
        collect_accesses,
        extract_actions,
        find_racy_pairs,
        generate_harnesses,
        rank_races,
    )

    apk = load_app(request.param)
    extraction = extract_actions(apk, generate_harnesses(apk))
    shbg = build_shbg(extraction)
    pairs = find_racy_pairs(extraction, shbg, collect_accesses(extraction))
    results = RefutationEngine(extraction).refute_all(pairs).results
    reports = rank_races(extraction, [r.pair for r in results if r.is_race])
    attach_provenance(reports, extraction, shbg, results=results)
    return extraction, shbg, results, reports


class TestIndexedProvenanceMatchesScans:
    def test_blocks_and_signatures_equal_the_brute_force_reference(self, pipeline):
        extraction, shbg, results, reports = pipeline
        assert reports
        by_pair = {id(r.pair): r for r in results}
        siblings_seen = 0
        for report in reports:
            expected = _reference_provenance(
                report.pair, extraction, shbg, by_pair.get(id(report.pair)), results
            )
            got = report.provenance
            assert json.dumps(got.to_dict()) == json.dumps(expected.to_dict())
            assert got.rule_chain_signature() == expected.rule_chain_signature()
            siblings_seen += len(got.refuted_siblings)
        assert siblings_seen  # the sibling index was exercised

    def test_shbg_queries_equal_the_scans(self, pipeline):
        extraction, shbg, _results, reports = pipeline
        # chains between arbitrary ordered actions, not just from fork
        # points: longer ones have several shortest paths, and the BFS must
        # pick the same one the scan did (about 40 x 40 probes per app)
        ids = [a.id for a in extraction.actions]
        sample = ids[:: max(1, len(ids) // 40)]
        for src in sample:
            for dst in sample:
                assert shbg.rule_path(src, dst) == _ref_rule_path(shbg, src, dst)
        for report in reports:
            a, b = report.pair.actions
            assert shbg.common_ancestors(a, b) == _ref_common_ancestors(shbg, a, b)
            forks = shbg.fork_points(a, b)
            assert forks == _ref_fork_points(shbg, a, b)
            for fork in forks:
                for target in (a, b):
                    assert shbg.rule_path(fork, target) == _ref_rule_path(shbg, fork, target)
