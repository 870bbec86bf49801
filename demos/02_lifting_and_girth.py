"""Circulant lifting and the three girth views.

Each (point, block) incidence gets a shift in Z_m; expanding every shift
into an m x m circulant permutation yields a quasi-cyclic parity-check
matrix.  Girth can then be measured three ways: exactly on the Tanner graph,
as twice the shortest closed walk of the block-structure graph, read off
the proto matrix (always the same number), and as the shift-independent
ceiling of the system itself.
"""

from fsscode import (
    assemble,
    bsg_shortest_closed_walk,
    expand,
    inevitable_girth,
    shift_sequence_from_list,
    tanner_girth,
    validate_fss,
)

# ten parallel triples: the mother structure of a rate-0.7 family
fss = validate_fss(3, [[1, 2, 3]] * 10)

# a published shift sequence of order 36 (compressed layout: the first
# shift of every block is an implicit zero)
S = shift_sequence_from_list(
    fss, 36,
    [0, 0, 1, 2, 3, 6, 28, 35, 24, 33, 15, 30, 22, 14, 25, 13, 17, 21, 16, 11],
)
q = assemble(fss, S)
H = expand(q)
print(f"lifted matrix: {H.rows} x {H.cols} ({H.nnz} ones)")

exact = tanner_girth(H, cap=12)
print("Tanner girth:", exact.girth)

walk = bsg_shortest_closed_walk(q, cap=8)
print("shortest block-structure walk:", walk.girth,
      "-> girth", 2 * walk.girth)
print("walk witness:", walk.witness.to_dict())

# no shift sequence can beat the system's own ceiling
ceiling = inevitable_girth(fss, cap=8)
print("achievable-girth ceiling of the system:",
      "unbounded" if ceiling.unbounded else ceiling.girth)

# a sloppy sequence shows the gap: all-zero shifts give girth 4
S0 = shift_sequence_from_list(fss, 36, [0] * 30)
print("all-zero shifts girth:",
      tanner_girth(expand(assemble(fss, S0))).girth)
