"""How the SD vertex set reacts to deleting an edge inside the KE part.

Deleting a KE-part edge can only grow the SD set.  If some maximum
matching avoids the edge, nothing changes at all; the growth case needs
an edge that every maximum matching uses.  The 9-vertex example below is
a triangle with tails: the tail edge 5-6 (labels 6-7 in the drawing it
comes from) lies in every maximum matching, and deleting it frees the
rest of the graph to become SD.
"""

from sdke import (
    build_graph,
    check_stability_under_deletion,
    disjoint_union,
    sd_vertices_of,
)

# Everything-KE baseline: a square next to a lone edge.  Deleting any
# square edge is harmless (the opposite pair still matches perfectly).
square_plus_edge = disjoint_union(
    build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    build_graph(2, [(0, 1)]),
)
rep = check_stability_under_deletion(square_plus_edge, (0, 1))
print("square edge avoidable:", rep.avoidable, "| SD unchanged:", rep.equal)
print()

# The strict-growth case: not matchable (odd order), handled by the
# exhaustive flower/posy search.
tails = build_graph(9, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 7), (3, 4),
                        (3, 5), (5, 6), (6, 7), (7, 8)])
rep = check_stability_under_deletion(tails, (5, 6))
print("edge (5,6) avoidable by some maximum matching:", rep.avoidable)
before = sd_vertices_of(tails)
print("SD before deletion:", sorted(before), "| KE:", sorted(set(range(9)) - before))
print("SD after deletion: ", sorted(rep.sd_after),
      "| KE:", sorted(set(range(9)) - rep.sd_after))
print("inclusion holds:", rep.inclusion_ok, "| strict growth:", not rep.equal)
