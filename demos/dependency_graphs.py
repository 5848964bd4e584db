"""
From dependency parses to graph convolutions
============================================

Each microblog arrives pre-parsed: tokens, sentence spans, and for every
token the 1-based position of its syntactic head (0 marks the root); each
sentence's heads form a tree.  ``build_graph`` returns the one matrix the
GCN reads, the normalized adjacency D^-1/2 A D^-1/2.  This demo builds it
for a two-sentence record, recovers the 0/1 adjacency A as its support,
shows the symmetric degree normalization, and contrasts it with the
all-ones ablation that discards the parse.
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

a_hat = build_graph(record)  # the normalized adjacency the GCN reads

# Adjacency: one row and column per token, self-loops on the diagonal,
# one symmetric pair per head arc, and nothing across the sentence boundary.
# Every entry of the normalized matrix is positive exactly where the 0/1
# adjacency is 1, so the adjacency is its support.
a = (a_hat > 0) * 1.0
print("adjacency (%d x %d):" % a.shape)
print(a)

# Degrees differ, so normalization rescales each edge by both endpoints:
# entry (i, j) becomes 1 / sqrt(deg_i * deg_j).
deg = a.sum(axis=1)
print("degrees:", deg)
print("normalized:")
print(a_hat)
expected = 1.0 / np.sqrt(deg[0] * deg[1])
print("entry (0, 1) equals 1/sqrt(deg0*deg1):", a_hat[0, 1], "==", expected)

# The ablation wires every token to every other, parse and sentence
# boundaries included.  After normalization each row is uniform: the
# convolution then averages all tokens, erasing who modifies whom.
flat = build_graph(record, mode="all_ones")
print("\nall-ones normalized (every row uniform):")
print(flat)
