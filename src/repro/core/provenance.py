"""Race provenance: the evidence behind every reported race.

A SIERRA report is only as deployable as its audit trail (cf. the True
Positives Theorem line of work): an operator triaging a race needs to see
*why* the detector believes it, not just a rank. For every surviving race
we record three pillars of evidence:

1. **Happens-before** — the two actions are unordered in the SHBG. The
   block names the latest common ancestors ("fork points") with the
   rule-labeled derivation chains from a fork point to each action, the
   HB rules incident to each action, and — for same-looper pairs — the
   rule-6 gap: which poster pair stayed unordered, which is exactly the
   chain that failed to order the race.
2. **Aliasing** — the points-to facts that made the accesses conflict:
   the racy location, each access's instruction/method/action, and the
   overlap of their location sets.
3. **Refutation** — the symbolic-execution verdict for this pair and for
   its *refuted siblings* (candidates on the same field or sharing an
   action that backward symbolic execution killed): evidence the
   detector did try to disprove this report.

The machine-readable block rides on each report in ``--json`` output
(``provenance``); ``repro explain <app> <race-id>`` renders the same
data as a human-readable evidence tree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.extract import Extraction
from repro.core.hb import HBEdge, SHBG
from repro.core.races import RacyPair
from repro.core.refute import RefutationResult
from repro.core.report import RaceReport

#: caps keeping provenance blocks bounded on pathological apps
MAX_LIST = 8
MAX_SIBLINGS = 10


@dataclass
class RaceProvenance:
    """Evidence bundle for one reported race (JSON-ready via to_dict)."""

    hb: Dict[str, object] = field(default_factory=dict)
    aliasing: Dict[str, object] = field(default_factory=dict)
    refutation: Dict[str, object] = field(default_factory=dict)
    refuted_siblings: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "hb": dict(self.hb),
            "aliasing": dict(self.aliasing),
            "refutation": dict(self.refutation),
            "refuted_siblings": [dict(s) for s in self.refuted_siblings],
        }

    def rule_chain_signature(self) -> str:
        """Canonical rendering of the HB-rule derivation behind this race.

        The rule names (not action ids) along the fork point's chains to
        each action, with the two chains sorted so the signature does not
        depend on which access the pair listed first. Feeds the stable
        race fingerprint (:func:`repro.core.report.race_fingerprint`):
        ranks and action ids shift between runs, the *derivation shape*
        does not.
        """
        fork = self.hb.get("fork_evidence") or {}
        chains = sorted(
            ",".join(str(e.get("rule", "?")) for e in fork.get(key) or [])
            for key in ("chain_to_a", "chain_to_b")
        )
        if not any(chains):
            return "no-fork"
        return ";".join(chains)

    def verdict(self) -> str:
        """One-word refutation verdict for cross-run comparison.

        ``survived`` (refutation ran, could not disprove), ``survived-
        budget-exceeded`` (survived only because the path budget ran out —
        a weaker claim), or ``unrefuted`` (refutation was off). Diffing
        flags a fingerprint whose verdict changes between runs even though
        the race persisted.
        """
        if not self.refutation.get("enabled"):
            return "unrefuted"
        if self.refutation.get("budget_exceeded"):
            return "survived-budget-exceeded"
        return "survived"


def _edge_dicts(path: Optional[List[HBEdge]]) -> List[Dict[str, object]]:
    if not path:
        return []
    return [{"src": e.src, "dst": e.dst, "rule": e.rule} for e in path]


def _capped(items: List, cap: int = MAX_LIST) -> Dict[str, object]:
    out: Dict[str, object] = {"items": items[:cap]}
    if len(items) > cap:
        out["truncated"] = len(items) - cap
    return out


class _EvidenceIndex:
    """Per-run lookups built once for every report of a run: the HB rules
    incident to each action, and the refuted candidates by field and by
    action (positions into the refutation results, ascending)."""

    def __init__(self, shbg: SHBG, results: List[RefutationResult]) -> None:
        self.results = results
        self.incident: Dict[int, Dict[str, int]] = {}
        for edge in shbg.direct_edges:
            for end in (edge.src, edge.dst):
                counts = self.incident.setdefault(end, {})
                counts[edge.rule] = counts.get(edge.rule, 0) + 1
        self.refuted_by_field: Dict[str, List[int]] = {}
        self.refuted_by_action: Dict[int, List[int]] = {}
        for position, result in enumerate(results):
            if result.is_race:
                continue
            self.refuted_by_field.setdefault(result.pair.field_name, []).append(position)
            for action_id in set(result.pair.actions):
                self.refuted_by_action.setdefault(action_id, []).append(position)

    def incident_rules(self, action_id: int) -> Dict[str, int]:
        """Rules that produced direct edges touching this action."""
        return dict(sorted(self.incident.get(action_id, {}).items()))

    def related_refuted(self, pair: RacyPair) -> Iterator[RefutationResult]:
        """Refuted candidates on the pair's field or sharing one of its
        actions, in refutation-result order."""
        lists = [self.refuted_by_field.get(pair.field_name, [])]
        lists += [self.refuted_by_action.get(a, []) for a in set(pair.actions)]
        last = -1
        for position in heapq.merge(*lists):
            if position != last:
                last = position
                yield self.results[position]


# ----------------------------------------------------------------------
# pillar 1: happens-before evidence
# ----------------------------------------------------------------------
def _rule6_gap(
    extraction: Extraction, shbg: SHBG, a_id: int, b_id: int
) -> Optional[Dict[str, object]]:
    """Why rule 6 (inter-action transitivity) failed to order the pair:
    the poster pairs that stayed unordered. Only meaningful when both
    actions have posters at all."""
    a, b = extraction.by_id(a_id), extraction.by_id(b_id)
    if not a.parents or not b.parents:
        return None
    pairs: List[Dict[str, object]] = []
    unordered = 0
    for p in sorted(a.parents):
        for q in sorted(b.parents):
            if p == q:
                status = "same-action"
            elif shbg.ordered(p, q):
                status = "p<q"
            elif shbg.ordered(q, p):
                status = "q<p"
            else:
                status = "unordered"
            if status in ("unordered", "same-action"):
                unordered += 1
            pairs.append({"poster_of_a": p, "poster_of_b": q, "status": status})
    return {
        "posters_of_a": sorted(a.parents),
        "posters_of_b": sorted(b.parents),
        "unordered_poster_pairs": unordered,
        "pairs": _capped(pairs),
    }


def _hb_evidence(
    extraction: Extraction, shbg: SHBG, pair: RacyPair, index: _EvidenceIndex
) -> Dict[str, object]:
    a_id, b_id = pair.actions
    a, b = extraction.by_id(a_id), extraction.by_id(b_id)
    forks = shbg.fork_points(a_id, b_id)
    fork_evidence: Optional[Dict[str, object]] = None
    if forks:
        fork = forks[0]
        fork_evidence = {
            "fork": fork,
            "fork_label": extraction.by_id(fork).describe(),
            "chain_to_a": _edge_dicts(shbg.rule_path(fork, a_id)),
            "chain_to_b": _edge_dicts(shbg.rule_path(fork, b_id)),
        }
    out: Dict[str, object] = {
        "ordered": False,
        "actions": {
            str(a_id): {
                "describe": a.describe(),
                "incident_rules": index.incident_rules(a_id),
            },
            str(b_id): {
                "describe": b.describe(),
                "incident_rules": index.incident_rules(b_id),
            },
        },
        "fork_points": forks[:MAX_LIST],
        "fork_evidence": fork_evidence,
        "same_looper": a.affinity.same_looper(b.affinity),
    }
    gap = _rule6_gap(extraction, shbg, a_id, b_id)
    if gap is not None:
        out["rule6_gap"] = gap
    return out


# ----------------------------------------------------------------------
# pillar 2: aliasing evidence
# ----------------------------------------------------------------------
def _aliasing_evidence(pair: RacyPair) -> Dict[str, object]:
    overlap = sorted(
        repr(loc) for loc in (pair.access1.locations & pair.access2.locations)
    )
    accesses = []
    for access in (pair.access1, pair.access2):
        accesses.append(
            {
                "kind": access.kind,
                "field": access.field_name,
                "method": access.method_signature,
                "action": access.action.id,
                "action_label": access.action.describe(),
                "instruction": repr(access.instr),
                "locations": _capped(sorted(repr(loc) for loc in access.locations)),
            }
        )
    return {
        "location": {
            "base": repr(pair.location.base),
            "field": pair.location.field,
            "static": pair.location.is_static,
        },
        "accesses": accesses,
        "overlap": _capped(overlap),
    }


# ----------------------------------------------------------------------
# pillar 3: refutation evidence
# ----------------------------------------------------------------------
def _refutation_evidence(result: Optional[RefutationResult]) -> Dict[str, object]:
    if result is None:
        return {"enabled": False}
    return {
        "enabled": True,
        "verdict": "race" if result.is_race else "refuted",
        "refuted_ordering": result.refuted_ordering,
        "budget_exceeded": result.budget_exceeded,
        "nodes_expanded": result.nodes_expanded,
    }


def _sibling_evidence(pair: RacyPair, index: _EvidenceIndex) -> List[Dict[str, object]]:
    """Refuted candidates related to this pair (same field, or sharing an
    action): the refutations that vouch for the detector's selectivity."""
    siblings: List[Dict[str, object]] = []
    for result in index.related_refuted(pair):
        if result.pair is pair:
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


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------
def build_provenance(
    pair: RacyPair,
    extraction: Extraction,
    shbg: SHBG,
    result: Optional[RefutationResult] = None,
    all_results: Optional[List[RefutationResult]] = None,
    index: Optional[_EvidenceIndex] = None,
) -> RaceProvenance:
    """Assemble the three-pillar evidence bundle for one racy pair.

    ``index`` is the run's :class:`_EvidenceIndex` over ``shbg`` and
    ``all_results``; :func:`attach_provenance` builds it once for all
    reports, a lone call builds its own."""
    if index is None:
        index = _EvidenceIndex(shbg, all_results or [])
    return RaceProvenance(
        hb=_hb_evidence(extraction, shbg, pair, index),
        aliasing=_aliasing_evidence(pair),
        refutation=_refutation_evidence(result),
        refuted_siblings=_sibling_evidence(pair, index),
    )


def attach_provenance(
    reports: List[RaceReport],
    extraction: Extraction,
    shbg: SHBG,
    results: Optional[List[RefutationResult]] = None,
) -> None:
    """Attach a provenance bundle to every ranked report (in place)."""
    by_pair: Dict[int, RefutationResult] = {}
    if results:
        by_pair = {id(r.pair): r for r in results}
    index = _EvidenceIndex(shbg, results or [])
    for report in reports:
        report.provenance = build_provenance(
            report.pair,
            extraction,
            shbg,
            result=by_pair.get(id(report.pair)),
            index=index,
        )


# ----------------------------------------------------------------------
# rendering (repro explain)
# ----------------------------------------------------------------------
def _chain_str(chain: List[Dict[str, object]]) -> str:
    if not chain:
        return "(direct)"
    hops = " → ".join(f"{e['rule']}" for e in chain)
    via = " ".join(f"{e['src']}≺{e['dst']}" for e in chain)
    return f"{hops} ({via})"


def render_evidence_tree(report: RaceReport) -> str:
    """The ``repro explain`` output: a human-readable evidence tree."""
    prov = report.provenance
    if prov is None:
        return f"race #{report.rank}: no provenance recorded"
    pair = report.pair
    a_id, b_id = pair.actions
    flags = [
        name
        for name, on in (("NPE-risk", report.pointer_race), ("guard-var", report.benign_guard))
        if on
    ]
    suffix = f" [{', '.join(flags)}]" if flags else ""
    lines = [
        f"race #{report.rank}: {pair.kind}-race on {pair.location!r} "
        f"— tier {report.tier}, priority {report.priority}{suffix}"
    ]

    hb = prov.hb
    lines.append(f"├─ happens-before: actions {a_id} and {b_id} are unordered")
    actions_block = hb.get("actions", {})
    for action_id in (a_id, b_id):
        info = actions_block.get(str(action_id), {})
        rules = info.get("incident_rules", {})
        rules_str = (
            ", ".join(f"{rule}×{n}" for rule, n in rules.items()) if rules else "none"
        )
        lines.append(f"│  ├─ action {action_id}: {info.get('describe', '?')}")
        lines.append(f"│  │    ordered by: {rules_str}")
    fork = hb.get("fork_evidence")
    if fork:
        lines.append(f"│  ├─ fork point: action {fork['fork']} ({fork['fork_label']})")
        lines.append(f"│  │    ≺ {a_id} via {_chain_str(fork['chain_to_a'])}")
        lines.append(f"│  │    ≺ {b_id} via {_chain_str(fork['chain_to_b'])}")
    else:
        lines.append("│  ├─ no common ancestor: the actions never synchronize")
    gap = hb.get("rule6_gap")
    if gap:
        lines.append(
            f"│  └─ rule-6 gap: {gap['unordered_poster_pairs']} poster pair(s) "
            f"unordered (posters of {a_id}: {gap['posters_of_a']}, "
            f"of {b_id}: {gap['posters_of_b']})"
        )
    else:
        lines.append("│  └─ rule-6 not applicable (an action has no posters)")

    al = prov.aliasing
    loc = al.get("location", {})
    lines.append(f"├─ aliasing: both may touch {loc.get('base')}.{loc.get('field')}")
    for access in al.get("accesses", []):
        lines.append(
            f"│  ├─ {access['kind']} {access['field']} in {access['method']} "
            f"[action {access['action']}]"
        )
    overlap = al.get("overlap", {}).get("items", [])
    lines.append(f"│  └─ overlapping cells: {len(overlap)}")

    ref = prov.refutation
    if not ref.get("enabled"):
        lines.append("└─ refutation: not run (--no-refute)")
    else:
        budget = " (path budget exceeded: over-approximated)" if ref.get(
            "budget_exceeded"
        ) else ""
        lines.append(
            f"└─ refutation: survived — no ordering could be disproven"
            f"{budget} (nodes expanded: {ref.get('nodes_expanded', 0)})"
        )
        siblings = prov.refuted_siblings
        if siblings:
            for i, sib in enumerate(siblings):
                branch = "└─" if i == len(siblings) - 1 else "├─"
                lines.append(
                    f"   {branch} refuted sibling: actions {tuple(sib['actions'])} "
                    f"on {sib['field']} (ordering {sib['refuted_ordering']} infeasible)"
                )
        else:
            lines.append("   └─ no refuted siblings on this field or these actions")
    return "\n".join(lines)
