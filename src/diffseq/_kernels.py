"""Resumable depth-first search kernel over canonical colorings.

The search colors positions left to right.  Canonical color order breaks the
color-relabeling symmetry: a position may reuse any color already present or
introduce the single next unused color, which in particular pins position 1
to color 0.  A node is one attempted (position, color) assignment, counted
whether or not the resulting L-value prunes.
"""

from __future__ import annotations

SAT = 1
UNSAT = 0
PAUSED = 2


def search(n, r, k, gaps, colors, L, used, cand, pos0, i_start, max_new_nodes):
    """Run the DFS until SAT, exhaustion, or a node-slice limit.

    State lives in the caller's lists so the search can pause and resume:
    colors/L/used hold per-position assignments, cand[i] is the next color to
    try at position i.  gaps is an ascending list holding every gap below n.
    Positions below pos0 are a fixed prefix.  Returns (status, nodes_done,
    resume_position).
    """
    nodes = 0
    i = i_start
    while i >= pos0:
        if i == n:
            return SAT, nodes, i
        c = cand[i]
        u = used[i - 1] if i > 0 else 0
        maxc = u if u < r - 1 else r - 1
        if c > maxc:
            i -= 1
            continue
        if nodes >= max_new_nodes:
            return PAUSED, nodes, i
        cand[i] = c + 1
        nodes += 1
        best = 0
        for g in gaps:
            j = i - g
            if j < 0:
                break
            if colors[j] == c and L[j] > best:
                best = L[j]
        li = best + 1
        if li >= k:
            continue
        colors[i] = c
        L[i] = li
        used[i] = u + (1 if c == u else 0)
        i += 1
        cand[i] = 0
    return UNSAT, nodes, i


def resolve_engine(engine: str) -> str:
    """Name of the one engine, the kernel above; perfbench records it per run."""
    return "python"
