"""Walkthrough: Nielsen tuples and braid orbits for S3.

The 4-transposition class vector of S3 has 24 Nielsen tuples forming a
single braid orbit (Clebsch connectivity for simple covers), and adding
more classes keeps the orbit count at 1 (Conway-Parker stabilisation at
desk scale).
"""

from malle_lab import (
    braid_orbits,
    class_vector_of,
    closure,
    conway_parker_probe,
    nielsen_count,
    parse_cycles,
)

G = closure([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], 3)
t = parse_cycles("(1 2)", 3)
c = parse_cycles("(1 2 3)", 3)

cv = class_vector_of(G, [t] * 4)
orbits = braid_orbits(G, G, cv)
print(f"4-transposition Nielsen tuples: {nielsen_count(G, cv)}")
print(f"example tuple: {orbits[0].canonical_rep.entries}")
print(f"braid orbits: {len(orbits)} (size {orbits[0].size} conjugation classes)")

print("\nmixed class vector {transpositions: 2, 3-cycles: 1}:")
cv2 = class_vector_of(G, [t, t, c])
orbits2 = braid_orbits(G, G, cv2)
print(f"braid orbits: {len(orbits2)}, sizes {[o.size for o in orbits2]}")

print("\nConway-Parker probe (pad = {transpositions: 2, 3-cycles: 1}):")
probe = conway_parker_probe(G, G, cv, class_vector_of(G, [t, t, c]), max_m=2)
for m, count in probe.counts:
    print(f"  m = {m}: {count} orbit(s)")
