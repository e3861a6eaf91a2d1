"""How the SD vertex set reacts to deleting an edge inside the KE part.

Deleting a KE-part edge can only grow the SD set.  If some maximum
matching avoids the edge, nothing changes at all; the growth case needs
an edge that every maximum matching uses.  The 9-vertex example below is
a triangle with tails: the tail edge 5-6 (labels 6-7 in the drawing it
comes from) lies in every maximum matching, and deleting it frees the
rest of the graph to become SD.
"""

from sdke import build_graph, delete_edge, matching_number, sd_vertices_of


def delete_and_compare(graph, e):
    """(avoidable, SD before, SD after) for deleting edge e from graph.

    Some maximum matching avoids e exactly when deleting it keeps the
    matching number.
    """
    smaller = delete_edge(graph, e)
    avoidable = matching_number(smaller) == matching_number(graph)
    return avoidable, sd_vertices_of(graph), sd_vertices_of(smaller)


# Everything-KE baseline: a square next to a lone edge.  Deleting any
# square edge is harmless (the opposite pair still matches perfectly).
square_plus_edge = build_graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)])
avoidable, before, after = delete_and_compare(square_plus_edge, (0, 1))
print("square edge avoidable:", avoidable, "| SD unchanged:", before == after)
print()

# The strict-growth case: not matchable (odd order), handled by the
# exhaustive flower/posy search.
tails = build_graph(9, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 7), (3, 4),
                        (3, 5), (5, 6), (6, 7), (7, 8)])
avoidable, before, after = delete_and_compare(tails, (5, 6))
print("edge (5,6) avoidable by some maximum matching:", avoidable)
print("SD before deletion:", sorted(before), "| KE:", sorted(set(range(9)) - before))
print("SD after deletion: ", sorted(after),
      "| KE:", sorted(set(range(9)) - after))
print("inclusion holds:", before <= after, "| strict growth:", before != after)
