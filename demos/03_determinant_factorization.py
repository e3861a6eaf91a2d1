"""Exact determinants and permanents factor across the SD-KE separation.

Both quantities can be computed two independent ways: direct exact linear
algebra, or a census over spanning subgraphs whose components are single
edges and cycles (each such subgraph S contributes (-1)^(even components)
* 2^(cycles) to the determinant and 2^(cycles) to the permanent).  No
such subgraph ever uses a cut edge, which is why the products factor.
"""

from sdke import (
    det_adjacency,
    enumerate_sachs,
    factorization_report,
    perm_adjacency,
    random_matchable_graph,
    sachs_census,
    sd_ke_partition,
)

g = random_matchable_graph(12, 0.25, seed=7)
print(f"random matchable graph: {g.n} vertices, {g.num_edges} edges")

count, det, perm = sachs_census(g)  # one pass over the Sachs subgraphs
print("det  via elimination :", det_adjacency(g))
print("det  via Sachs census:", det)
print("perm via Glynn       :", perm_adjacency(g))
print("perm via Sachs census:", perm)
print("Sachs subgraphs      :", count)
print()

census = {}
for s in enumerate_sachs(g):
    census[s.num_cycles] = census.get(s.num_cycles, 0) + 1
print("Sachs subgraphs by cycle count:", dict(sorted(census.items())))
cut = sd_ke_partition(g).cut
ok = not any(s.edges() & cut for s in enumerate_sachs(g))
print("no Sachs subgraph touches the cut:", ok)
print()

r = factorization_report(g)
print(f"det(G) = det(SD) * det(KE): {r.det_g} = ({r.det_sd})*({r.det_ke})  ok={r.det_product_ok}")
print(f"perm(G) = perm(SD) * perm(KE): {r.perm_g} = ({r.perm_sd})*({r.perm_ke})  ok={r.perm_product_ok}")
print()

# The same factorization on a run of seeds.
print("seed  det(G) = det(SD)*det(KE)    perm(G) = perm(SD)*perm(KE)")
for seed in range(8):
    g = random_matchable_graph(10, 0.3, seed)
    r = factorization_report(g)
    print(f"{seed:4d}  {r.det_g:6d} = {r.det_sd:4d} * {r.det_ke:4d}"
          f"       {r.perm_g:6d} = {r.perm_sd:4d} * {r.perm_ke:4d}")
