#!/usr/bin/env python
"""Figures 1 & 2 — a step-by-step trace of the Awerbuch–Shiloach algorithm.

The paper's Figures 1 and 2 illustrate one iteration of hooking/
shortcutting and the star-detection cases on a small forest.  This
walkthrough reproduces that exposition executably: it runs LACC's four
steps one at a time on a 12-vertex graph, printing the parent forest and
star memberships after every operation so the algebra of Algorithms 3–6
can be watched doing its work.

Usage:  python examples/algorithm_walkthrough.py
"""

import numpy as np

from repro.core.convergence import converged_star_vertices
from repro.core.hooking import cond_hook, uncond_hook
from repro.core.shortcut import shortcut
from repro.core.starcheck import starcheck
from repro.graphs import generators as gen


def forest_art(f: np.ndarray, star: np.ndarray) -> str:
    """Render the forest as `child->parent` groups per tree."""
    trees = {}
    roots = np.flatnonzero(f == np.arange(f.size))
    for r in roots:
        members = np.flatnonzero(f == r)
        trees[r] = sorted(set(members.tolist()) - {r})
    lines = []
    for r in sorted(trees):
        mark = "*" if star[r] else " "
        kids = trees[r]
        grandkids = [v for v in range(f.size) if f[v] in kids and v not in kids]
        desc = f"root {r}{mark}"
        if kids:
            desc += f" <- {kids}"
        if grandkids:
            desc += f" <- {grandkids}"
        lines.append("    " + desc)
    return "\n".join(lines)


def show(step: str, f: np.ndarray, star: np.ndarray) -> None:
    print(f"  {step}")
    print(f"    f    = {f.tolist()}")
    print(f"    star = {[int(s) for s in star]}   (* = star root below)")
    print(forest_art(f, star))
    print()


def main() -> None:
    # Two components: a 7-vertex blob and a 5-path — enough structure to
    # exercise every hooking/starcheck case of Figures 1 and 2.
    u = [0, 1, 2, 3, 4, 5, 7, 8, 9, 10]
    v = [1, 2, 0, 4, 5, 6, 8, 9, 10, 11]
    extra_u = [3, 6]
    extra_v = [6, 0]
    g = gen.EdgeList(12, u + extra_u, v + extra_v, "figure1")
    A = g.to_matrix()
    n = 12
    print(f"graph: {n} vertices, {g.nedges} edges, 2 true components\n")

    f = np.arange(n, dtype=np.int64)
    star = starcheck(f)
    show("initialisation: n single-vertex stars (Alg 1, lines 2-3)", f, star)

    for it in range(1, 6):
        print(f"--- iteration {it} " + "-" * 40)
        hooks = cond_hook(A, f, star)
        star = starcheck(f)
        show(f"conditional hooking (Alg 3): {hooks.count} trees hooked", f, star)

        hooks = uncond_hook(A, f, star)
        star = starcheck(f)
        show(f"unconditional hooking (Alg 4): {hooks.count} trees hooked", f, star)

        conv = converged_star_vertices(A, f, star, None)
        print(f"  converged star vertices (strengthened Lemma 1): "
              f"{np.flatnonzero(conv).tolist()}\n")

        all_stars = star.all()
        changed = shortcut(f, ~star)
        star = starcheck(f)
        show(f"shortcut (Alg 5): {changed} parents jumped", f, star)

        if all_stars and changed == 0 and hooks.count == 0:
            print(f"terminated: every tree is a star and nothing moved")
            break

    roots = np.unique(f)
    print(f"\nfinal components ({roots.size}):")
    for r in roots:
        print(f"  root {r}: vertices {np.flatnonzero(f == r).tolist()}")


if __name__ == "__main__":
    main()
