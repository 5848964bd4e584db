"""
From dependency parses to graph convolutions
============================================

Each microblog arrives pre-parsed: tokens, sentence spans, and for every
token the 1-based position of its syntactic head (0 marks the root).
This demo builds the adjacency matrix for a two-sentence record, shows
the symmetric degree normalization, and contrasts it with the all-ones
ablation that discards the parse.
"""

import numpy as np

from syngcn.corpus import Record, build_graph

np.set_printoptions(precision=3, suppress=True)

# "The weather is great!  My mood soars."  (stand-in tokens)
# Heads are 1-based positions within each sentence, 0 for the root.
record = Record(
    tokens=("weather", "great", "!", "mood", "soars", "."),
    sent_bounds=((0, 3), (3, 6)),
    heads=(2, 0, 2, 2, 0, 2),  # weather -> great (root), mood -> soars (root)
    label=0,
)

g = build_graph(record)

# Adjacency: one row and column per token, self-loops on the diagonal,
# one symmetric pair per head arc, and nothing across the sentence boundary.
print("adjacency (%d x %d):" % g.adjacency.shape)
print(g.adjacency)

# Degrees differ, so normalization rescales each edge by both endpoints:
# entry (i, j) becomes 1 / sqrt(deg_i * deg_j).
deg = g.adjacency.sum(axis=1)
print("degrees:", deg)
print("normalized:")
print(g.normalized)
expected = 1.0 / np.sqrt(deg[0] * deg[1])
print("entry (0, 1) equals 1/sqrt(deg0*deg1):", g.normalized[0, 1], "==", expected)

# The ablation wires every token to every other, parse and sentence
# boundaries included.  After normalization each row is uniform: the
# convolution then averages all tokens, erasing who modifies whom.
flat = build_graph(record, mode="all_ones")
print("\nall-ones normalized (every row uniform):")
print(flat.normalized)
