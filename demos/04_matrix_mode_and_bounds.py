"""
Matrix mode, the component bound, and minimality
================================================

The analyzer never needs the roots themselves, only the ultrametric matrix
of their pairwise valuations.  That makes bases without a convenient prime
(power series rings, for instance) representable directly, and it lets you
probe the combinatorics freely -- any ultrametric matrix is accepted.
"""

from condisc import UltrametricViolationError, analyze, matrix_from_rows, validate_ultrametric

# Two pairs at depth 1, one of which deepens to 3: written by hand.
rows = [
    [None, 3, 1, 0, 0, 0],
    [3, None, 1, 0, 0, 0],
    [1, 1, None, 0, 0, 0],
    [0, 0, 0, None, 0, 0],
    [0, 0, 0, 0, None, 0],
    [0, 0, 0, 0, 0, None],
]
matrix = matrix_from_rows(rows)
assert validate_ultrametric(matrix) == ()  # no violating triple

report = analyze(matrix, label="hand-written matrix")
print(f"nu(d_f) = {report.nu_df}, -Art = {report.artin}, n(X) = {report.n_components}")

# Number of components never beats the discriminant: n(X) <= -Art + 1 <= nu + 1.
assert report.n_components <= report.artin + 1 <= report.nu_df + 1
print("component bound n(X) <= nu(d_f) + 1 holds:",
      f"{report.n_components} <= {report.nu_df + 1}")

# Non-ultrametric input is rejected with the offending triples.
bad = [row[:] for row in rows]
bad[0][2] = bad[2][0] = 5  # m(0,2) > m(0,1) >= m(1,2) breaks the triangle
try:
    analyze(matrix_from_rows(bad))
except UltrametricViolationError as exc:
    print("rejected:", exc)

# Minimality detection: an odd vertex with no separating roots, an even
# parent and a single even child marks a contractible component.
shrinkable = analyze(
    matrix_from_rows(
        [
            [None, 2, 2, 0, 0, 0],
            [2, None, 2, 0, 0, 0],
            [2, 2, None, 0, 0, 0],
            [0, 0, 0, None, 0, 0],
            [0, 0, 0, 0, None, 0],
            [0, 0, 0, 0, 0, None],
        ]
    ),
    label="contractible",
)
print("model minimal?", shrinkable.x_minimal,
      "- contractible chain at vertices", list(shrinkable.contractible))
