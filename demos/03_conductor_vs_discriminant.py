"""
When is the conductor bound sharp?
==================================

-Art(X/S) <= nu(d_f) always holds, and the per-vertex comparison says
exactly when it is an equality: every even vertex may only carry even
children of weight 2, and every odd vertex must have weight 2, or weight 3
with no even children.  Here we sweep random instances, tabulate how often
equality occurs, and dissect one strict example vertex by vertex.
"""

from collections import Counter

from condisc import Instance, analyze
from condisc.harness import GenSpec, gen_instance

stats = Counter()
gaps = []
for seed in range(300):
    report = analyze(gen_instance(GenSpec(seed=seed, p=5, genus=3, max_depth=3)))
    stats["equality" if report.equality_holds else "strict"] += 1
    gaps.append(report.nu_df - report.artin)

print("300 random genus-3 instances over p = 5:")
print(f"  equality: {stats['equality']}, strict: {stats['strict']}")
print(f"  largest discriminant surplus: {max(gaps)}")

# A hand-picked strict case: a cluster of four roots, two of which collide
# again one level deeper.  The even child of weight 4 breaks equality.
inst = Instance.from_values(p=5, roots=[0, 25, 5, 10, 1, 2], label="strict example")
report = analyze(inst)
print(f"\n{inst.label}: nu(d_f) = {report.nu_df}, -Art = {report.artin}")
for index, (v, led) in enumerate(zip(report.tree, report.ledgers)):  # a vertex is known by its index
    mark = "=" if led.equality else f"<  (defect {led.d - led.D_double_prime}, {led.reason})"
    print(f"  v{index} wt={v.wt} {v.parity:4}  d={led.d:3}  D''={led.D_double_prime:3}  {mark}")

# The defect localizes entirely at the root: its even child has weight 4,
# and 4*3 - 2 = 10 is exactly the gap.
assert report.nu_df - report.artin == 10
