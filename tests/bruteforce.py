"""Independent brute-force oracles used to cross-check the library.

Deliberately naive: enumerate everything and filter.  Only usable at tiny
sizes, which is the point; the library must agree with these on every
instance small enough to brute-force.
"""

from __future__ import annotations

import itertools

from moritakit.exactlin import Basis, Matrix, vec_is_zero
from moritakit.modules import (
    direct_sum,
    is_isomorphic,
    quotient_module,
    regular_module,
    submodule_lattice,
)


def all_vectors(field, n):
    if n == 0:
        return [()]
    return [tuple(field.of_int(t) for t in tup) for tup in itertools.product(range(field.p), repeat=n)]


def all_subspaces(field, n):
    """Every subspace of GF(p)^n, grown one generator at a time (BFS)."""
    vectors = all_vectors(field, n)
    seen = {Basis.zero(field, n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for b in frontier:
            for v in vectors:
                if b.contains_vector(v):
                    continue
                grown = Basis.span(field, n, list(b.vectors) + [v])
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        frontier = nxt
    return sorted(seen, key=lambda b: (b.dim, b.vectors))


def is_stable(module, basis):
    """basis spans a submodule: closed under every algebra basis action."""
    for act in module.action:
        for v in basis.vectors:
            if not basis.contains_vector(act.apply(v)):
                return False
    return True


def brute_submodules(module):
    return [b for b in all_subspaces(module.algebra.field, module.dim) if is_stable(module, b)]


def all_matrices(field, rows, cols):
    flat = itertools.product(range(field.p), repeat=rows * cols)
    out = []
    for tup in flat:
        ent = [tuple(field.of_int(t) for t in tup[r * cols : (r + 1) * cols]) for r in range(rows)]
        out.append(Matrix(field, ent, cols=cols))
    return out


def brute_hom(source, target):
    """All module maps source -> target by filtering every matrix."""
    field = source.algebra.field
    out = []
    for f in all_matrices(field, target.dim, source.dim):
        if all((f @ a) == (b @ f) for a, b in zip(source.action, target.action)):
            out.append(f)
    return out


def brute_annihilator(module, ideal_vectors):
    """All x with a.x = 0 for every a spanning the ideal, by filtering."""
    field = module.algebra.field
    kept = []
    for v in all_vectors(field, module.dim):
        if all(vec_is_zero(field, module.action_of(a).apply(v)) for a in ideal_vectors):
            kept.append(v)
    return Basis.span(field, module.dim, kept)


def brute_rref(m):
    """Textbook Gauss-Jordan on the field's own operations: pivots are
    scaled to 1 and cleared above and below, one column at a time."""
    f = m.field
    ent = [list(r) for r in m.entries]
    pivots = []
    prow = 0
    for col in range(m.cols):
        if prow >= m.rows:
            break
        sel = next((r for r in range(prow, m.rows) if not f.is_zero(ent[r][col])), None)
        if sel is None:
            continue
        ent[prow], ent[sel] = ent[sel], ent[prow]
        inv = f.inv(ent[prow][col])
        ent[prow] = [f.mul(inv, a) for a in ent[prow]]
        for r in range(m.rows):
            if r != prow and not f.is_zero(ent[r][col]):
                c = ent[r][col]
                ent[r] = [f.sub(a, f.mul(c, b)) for a, b in zip(ent[r], ent[prow])]
        pivots.append(col)
        prow += 1
    return Matrix(f, ent, cols=m.cols), tuple(pivots)


def brute_catalog(algebra, max_dim):
    """build_catalog with none of its shortcuts: every quotient of R and of
    R^2 of dim <= max_dim, taken from the full submodule lattice, then the
    sums of kept pairs in build_catalog's order until none is new.  Each
    candidate is searched against every kept module, with no invariant key
    and no orbit filter.  Returns (modules in catalog order, provenance)."""
    reps = []
    proven = True

    def keep(mod):
        nonlocal proven
        misses_proven = True
        for r in reps:
            res = is_isomorphic(r, mod)
            if res.found:
                return False
            misses_proven = misses_proven and res.exhaustive
        reps.append(mod)
        proven = proven and misses_proven
        return True

    reg = regular_module(algebra)
    for free in (reg, direct_sum(reg, reg)):
        for sub in submodule_lattice(free, budget=algebra.field.p ** free.dim):
            if free.dim - sub.dim <= max_dim:
                keep(quotient_module(free, sub.basis)[0])

    done = set()
    changed = True
    while changed:
        changed = False
        for i in range(len(reps)):
            for j in range(len(reps)):
                if (i, j) in done:
                    continue
                done.add((i, j))
                a, b = reps[i], reps[j]
                if a.dim > 0 and b.dim > 0 and a.dim + b.dim <= max_dim:
                    changed = keep(direct_sum(a, b)) or changed

    reps.sort(key=lambda m: (m.dim, tuple(a.entries for a in m.action)))
    provenance = f"exhaustive-up-to-dim({max_dim})" if proven else "sampled(iso dedup seed=0)"
    return tuple(reps), provenance
