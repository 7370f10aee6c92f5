"""Table 3 — SIERRA effectiveness on the 20-app dataset.

Regenerates every column: harnesses, actions, HB edges, ordered fraction,
racy pairs without/with action sensitivity, reports after refutation,
true races / false positives (scored against the generator's ground truth —
the stand-in for the paper's manual inspection), and the EventRacer
comparison column.

Shape assertions (DESIGN.md):
  * action sensitivity cuts racy pairs by a large factor (paper ≈ 5.4×),
  * refutation removes a substantial further share (paper ≈ 59%),
  * SIERRA finds several times more true races than EventRacer (paper 29.5
    vs 4), with few false positives.
"""

from conftest import print_table

from repro.corpus import TWENTY_PAPER_MEDIANS
from tests.test_table3 import assert_table3_claims, table3_medians, table3_rows


def test_table3_effectiveness(benchmark, twenty_runs):
    rows = benchmark.pedantic(
        table3_rows, args=(twenty_runs,), rounds=1, iterations=1
    )
    print_table("Table 3 — SIERRA effectiveness (20-app synthetic dataset)", rows)

    med = table3_medians(rows)
    paper = TWENTY_PAPER_MEDIANS
    print(
        "\nmedians   measured | paper: "
        f"harnesses {med['Harnesses']:.1f}|{paper['harnesses']}, "
        f"actions {med['Actions']:.1f}|{paper['actions']}, "
        f"hb {med['HB Edges']:.0f}|{paper['hb_edges']}, "
        f"ordered% {med['Ordered (%)']:.1f}|{paper['ordered_pct']}, "
        f"noAS {med['Racy w/o AS']:.1f}|{paper['racy_no_as']}, "
        f"AS {med['Racy with AS']:.1f}|{paper['racy_with_as']}, "
        f"after {med['After refut.']:.1f}|{paper['after_refutation']}, "
        f"true {med['True']:.1f}|{paper['true_races']}, "
        f"fp {med['FP']:.1f}|{paper['false_positives']}, "
        f"eventracer {med['EventRacer']:.1f}|{paper['eventracer']}"
    )

    # --- shape assertions, shared with tier-1 ------------------------------
    assert_table3_claims(med)
