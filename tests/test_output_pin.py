"""Every output format, pinned by one digest.

The digest covers the JSON report, the text report and the three DOT graphs
of the roots instances of ``default_specs(200)`` and of their matrix twins,
so any change to a byte of any of them fails here.
"""

import hashlib

from condisc import analyze, build_matrix
from condisc.harness import default_specs, gen_instance
from condisc.render import dot_cover, dot_model, dot_tree, render_text

PINNED = "85c53e355cddb2a55b21ec1ba91cf897fc963e3c933e48019a09a55287f2fffa"


def test_outputs_match_the_pinned_digest():
    digest = hashlib.sha256()
    for spec in default_specs(200):
        inst = gen_instance(spec)
        for source in (inst, build_matrix(inst)):
            r = analyze(source)
            for text in (r.to_json(), render_text(r), dot_tree(r.tree), dot_cover(r.ygraph), dot_model(r.xgraph)):
                digest.update(text.encode())
                digest.update(b"\0")
    assert digest.hexdigest() == PINNED
