"""Independent brute-force oracles used to cross-check the library.

Deliberately naive: enumerate everything and filter.  Only usable at tiny
sizes, which is the point; the library must agree with these on every
instance small enough to brute-force.
"""

from __future__ import annotations

import itertools
import random

import json
from types import SimpleNamespace

from moritakit.algebra import Algebra, validate_algebra

from moritakit.context import bimodule_hom_space, raw_pairing
from moritakit.exactlin import Basis, Field, Matrix, kernel_basis, random_scalar, unit_vector, vec_is_zero
from moritakit.modules import (
    DEFAULT_ENUM_BUDGET,
    DEFAULT_ISO_EXHAUST,
    DEFAULT_ISO_SAMPLES,
    Bimodule,
    HomBasis,
    LeftModule,
    Submodule,
    _projective_points,
    direct_sum,
    extension_space,
    hom_module,
    hom_space,
    is_isomorphic,
    middle_term,
    quotient_module,
    regular_module,
    submodule_lattice,
)
from moritakit.graded import _stray_column, degrees_for_hom_basis, ideal_degrees
from moritakit.torsion import closedness_map, torsion_submodule


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


def _actions(m):
    """Every action matrix of a LeftModule, or of a Bimodule's two sides."""
    return m.left_action + m.right_action if isinstance(m, Bimodule) else m.action


def hom_all_basis(source, target):
    """Vectorized (row-major) maps F with At F = F As for every algebra
    basis element, not only the generators: one equation per entry (r, c)
    of At F - F As, and the common kernel of all of them."""
    field = (source.left_algebra if isinstance(source, Bimodule) else source.algebra).field
    sd, td = source.dim, target.dim
    rows = []
    for a_s, a_t in zip(_actions(source), _actions(target)):
        for r, c in itertools.product(range(td), range(sd)):
            row = [field.zero] * (sd * td)
            for k, x in enumerate(a_t.entries[r]):  # (At F)[r][c]
                if x:
                    row[k * sd + c] = field.add(row[k * sd + c], x)
            for k in range(sd):  # (F As)[r][c]
                if a_s.entries[k][c]:
                    row[r * sd + k] = field.sub(row[r * sd + k], a_s.entries[k][c])
            rows.append(row)
    if not rows:
        return Basis.full(field, sd * td)
    return kernel_basis(Matrix(field, rows, cols=sd * td))


def kron(a, b):
    """Kronecker product in left-factor-major indexing: row (i,k) = i*b.rows+k."""
    f = a.field
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    ent = [[f.zero] * cols for _ in range(rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a.entries[i][j]
            if f.is_zero(aij):
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    ent[i * b.rows + k][j * b.cols + l] = f.mul(aij, b.entries[k][l])
    return Matrix(f, ent, cols=cols)


def tensor_relations_all_basis(middle, left, right):
    """The balancing relations (m.a) (x) n - m (x) (a.n) of left (x) right
    for every basis element a of middle: the columns of
    R_a (x) I - I (x) L_a, in the raw basis (i, j) |-> i*dim(right)+j."""
    field = middle.field
    right_left = right.left_action if isinstance(right, Bimodule) else right.action
    eye_m, eye_n = Matrix.identity(field, left.dim), Matrix.identity(field, right.dim)
    cols = [col for ra, la in zip(left.right_action, right_left)
            for col in (kron(ra, eye_n) + -kron(eye_m, la)).columns()]
    return Basis.span(field, left.dim * right.dim, cols)


def first_invertible_lex(hom):
    """(map, exhaustive) of the plain sweep under the iso policy
    (DEFAULT_ISO_EXHAUST, DEFAULT_ISO_SAMPLES, seed 0): every
    coefficient tuple in lexicographic order, or the seeded draws, each
    built with from_coords and tested with is_invertible, none skipped."""
    if hom.dim == 0:
        return None, True
    field = hom.source.algebra.field
    if field.is_prime_field and field.p ** hom.dim <= DEFAULT_ISO_EXHAUST:
        tuples, exhaustive = itertools.product(range(field.p), repeat=hom.dim), True
    else:
        rng = random.Random(0)
        tuples = ([random_scalar(field, rng) for _ in range(hom.dim)]
                  for _ in range(DEFAULT_ISO_SAMPLES))
        exhaustive = False
    for coeffs in tuples:
        cand = hom.from_coords(coeffs)
        if cand.is_invertible():
            return cand, exhaustive
    return None, exhaustive


def first_context_iso_lex(c1, c2):
    """(u, v) of the plain sweep for a context isomorphism: the first
    invertible u of the bimodule Hom(M1, M2) in lexicographic coefficient
    order, with the first invertible v of Hom(N1, N2) in that order that
    carries c1's pairings to c2's, checked on the induced maps; or
    (None, None).  Only for hom spaces small enough to sweep whole."""
    field = c1.R.field
    hom_u, hom_v = bimodule_hom_space(c1.M, c2.M), bimodule_hom_space(c1.N, c2.N)

    def invertibles(hom):
        for coeffs in itertools.product(range(field.p), repeat=hom.dim):
            cand = hom.from_coords(coeffs)
            if cand.is_invertible():
                yield cand

    for u in invertibles(hom_u):
        for v in invertibles(hom_v):
            if (c2.phi @ c1.MN.induced_map(c2.MN, u, v) == c1.phi
                    and c2.psi @ c1.NM.induced_map(c2.NM, v, u) == c1.psi):
                return u, v
    return None, None


def invertible_tuples_lex(field, maps):
    """Every nonzero coefficient tuple over GF(p), in lexicographic order,
    whose combination of the square matrices maps is invertible, by
    filtering."""
    n = maps[0].rows
    out = []
    for coeffs in itertools.product(range(field.p), repeat=len(maps)):
        total = Matrix.zeros(field, n, n)
        for c, m in zip(coeffs, maps):
            total = total + m.scale(c)
        if any(coeffs) and total.is_invertible():
            out.append(coeffs)
    return out


def brute_annihilator(module, ideal_vectors):
    """All x with a.x = 0 for every a spanning the ideal, by filtering."""
    field = module.algebra.field
    kept = []
    for v in all_vectors(field, module.dim):
        if all(vec_is_zero(field, module.action_of(a).apply(v)) for a in ideal_vectors):
            kept.append(v)
    return Basis.span(field, module.dim, kept)


def lifting_by_composites(tt, p, catalog):
    """(verdict, failures) of the ideal-projectivity oracle the long way:
    for each catalog module X and each submodule K of the brute-force
    annihilator of the ideal, every basis map of Hom(P, X) is composed with
    the projection X -> X/K, and (X, K) fails when the composites do not
    span Hom(P, X/K).  The submodule walk must fit DEFAULT_ENUM_BUDGET."""
    f = p.algebra.field
    failures = []
    for x in catalog:
        hom_px = hom_space(p, x)
        ann = brute_annihilator(x, tt.ideal.basis.vectors)
        for sub in submodule_lattice(Submodule(x, ann).as_module(), DEFAULT_ENUM_BUDGET):
            k_basis = Basis.span(f, x.dim, [ann.from_coords(v) for v in sub.basis.vectors])
            quo, proj = quotient_module(x, k_basis)
            hom_pq = hom_space(p, quo)
            if hom_pq.dim == 0:
                continue
            comp = hom_pq.coords_matrix((proj @ g for g in hom_px.matrices),
                                        "projection left the hom space")
            if Basis.span(f, comp.rows, comp.columns()).dim < hom_pq.dim:
                failures.append((x, k_basis))
    return not failures, tuple(failures)


def torsion_simples(tt):
    """One simple module killed by the ideal I per isomorphism class, by a
    walk: a simple S with IS = 0 is a simple quotient of R/I, so every
    submodule of R/I is walked (DEFAULT_LATTICE_BUDGET, no sampling) and
    a quotient is kept when it has two submodules and is new up to iso."""
    r_mod_i = quotient_module(regular_module(tt.algebra), tt.ideal.basis)[0]
    simples = []
    for sub in submodule_lattice(r_mod_i):
        s = sub.quotient()[0]
        if len(submodule_lattice(s)) == 2 and not any(is_isomorphic(t, s).found for t in simples):
            simples.append(s)
    return simples


def projective_by_simples(tt, p, simples):
    """Projective-class membership by the Ext^1 route: IP = P and
    Ext^1(P, S) = 0 for each simple S of torsion_simples(tt).  K killed by
    I has a composition series of such simples and Ext^1(P, -) is half
    exact, so every P -> X/K lifts; conversely a non-split class of
    Ext^1(P, S) has a middle term along which id_P does not lift."""
    full = Basis.span(p.algebra.field, p.dim, [col for v in tt.ideal.basis.vectors
                                               for col in p.action_of(v).columns()])
    return full.dim == p.dim and not any(extension_space(s, p).dim for s in simples)


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
    """build_catalog's candidate stream with no invariant key: every
    quotient of R of dim <= max_dim, taken from the full submodule lattice,
    then for each kept class T and each simple S (a kept quotient whose
    only submodules are 0 and itself), both in the order kept, the split
    sum with the earlier-kept class first and the library's middle terms,
    one per projective point of its extension space.  Each candidate is
    searched against every kept module.  This checks that the key skips
    only known answers; it shares the stream, so it is no check of
    completeness (count_module_classes is).  Returns (modules in catalog
    order, provenance)."""
    reps = []
    proven = True

    def keep(mod):
        nonlocal proven
        misses_proven = True
        for r in reps:
            res = is_isomorphic(r, mod)
            if res.found:
                return
            misses_proven = misses_proven and res.exhaustive
        reps.append(mod)
        proven = proven and misses_proven

    reg = regular_module(algebra)
    for sub in submodule_lattice(reg, budget=algebra.field.p ** reg.dim):
        if reg.dim - sub.dim <= max_dim:
            keep(quotient_module(reg, sub.basis)[0])
    simples = [(j, s) for j, s in enumerate(reps) if s.dim > 0 and len(brute_submodules(s)) == 2]
    for i, t in enumerate(reps):
        for j, s in simples:
            if t.dim > 0 and s.dim + t.dim <= max_dim:
                keep(direct_sum(s, t) if j < i else direct_sum(t, s))
                ext = extension_space(s, t)
                for coeffs in _projective_points(algebra.field, ext.dim):
                    keep(middle_term(s, t, ext.from_coords(coeffs)))

    reps.sort(key=lambda m: (m.dim, tuple(a.entries for a in m.action)))
    provenance = f"exhaustive-up-to-dim({max_dim})" if proven else "sampled(iso dedup seed=0)"
    return tuple(reps), provenance


def _mat_mul(p, a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)) for row in a)


def _mat_combination(p, coeffs, mats, d):
    """sum of c * mats[k] over the nonzero coefficients c = coeffs[k]."""
    out = [[0] * d for _ in range(d)]
    for k, c in enumerate(coeffs):
        if c % p:
            for r in range(d):
                for s in range(d):
                    out[r][s] = (out[r][s] + c * mats[k][r][s]) % p
    return tuple(tuple(row) for row in out)


def module_actions(algebra, d):
    """Every tuple of d x d action matrices over GF(p), one per algebra
    basis element, that satisfies rho(1) = I and rho(a) rho(b) = rho(ab),
    by filtering.  The first basis element in the unit's support is solved
    from rho(1) = I; every other one ranges over all d x d matrices, and a
    law is checked as soon as every matrix it names is chosen.  Over
    k[x_1, ..., x_n]/(x_1, ..., x_n)^2 on the basis (1, x_1, ..., x_n) that
    leaves only the radical generators varying."""
    p, m = algebra.field.p, algebra.dim
    unit = algebra.unit
    fixed = next(k for k in range(m) if unit[k])
    varying = [k for k in range(m) if k != fixed]
    mats = [a.entries for a in all_matrices(algebra.field, d, d)]
    eye = tuple(tuple(int(r == s) for s in range(d)) for r in range(d))
    out = []

    def laws_hold(rho, pairs):
        return all(_mat_mul(p, rho[i], rho[j]) == _mat_combination(p, algebra.mul[i][j], rho, d)
                   for i, j in pairs)

    def grow(rho, t):
        if t == len(varying):
            # rho(fixed) = (I - sum of the other u_k rho(e_k)) / u_fixed
            inv = pow(unit[fixed], p - 2, p)
            rest = _mat_combination(p, [0 if k == fixed else -c * inv for k, c in enumerate(unit)], rho, d)
            rho[fixed] = _mat_combination(p, [inv, 1], [eye, rest], d)
            if laws_hold(rho, itertools.product(range(m), repeat=2)):
                out.append(tuple(rho[k] for k in range(m)))
            return
        chosen = set(varying[:t + 1])
        pairs = [(i, j) for i in chosen for j in chosen if varying[t] in (i, j)
                 and all(k in chosen for k, c in enumerate(algebra.mul[i][j]) if c)]
        for a in mats:
            grown = {**rho, varying[t]: a}
            if laws_hold(grown, pairs):
                grow(grown, t + 1)

    grow({}, 0)
    return out


def count_module_classes(algebra, d):
    """The number of d-dim modules up to isomorphism: the orbits of
    module_actions under simultaneous conjugation by GL_d(GF(p))."""
    p = algebra.field.p
    gl = [((), ())]
    if d:
        gl = [(g.entries, g.inverse().entries) for g in all_matrices(algebra.field, d, d)
              if g.is_invertible()]
    seen = set()
    classes = 0
    for acts in module_actions(algebra, d):
        if acts not in seen:
            classes += 1
            seen.update(tuple(_mat_mul(p, _mat_mul(p, g, a), g_inv) for a in acts) for g, g_inv in gl)
    return classes


def textbook_action(module, coeffs):
    """sum c_i rho(e_i), entry by entry on the field's own operations."""
    f, n = module.algebra.field, module.dim
    out = [[f.zero] * n for _ in range(n)]
    for c, act in zip(coeffs, module.action):
        for r in range(n):
            for k in range(n):
                out[r][k] = f.add(out[r][k], f.mul(c, act.entries[r][k]))
    return Matrix(f, out, cols=n)


def closedness_via_hom_module(tt, x):
    """(closed, alpha, hom, module): closedness read in the full left
    T-module Hom_R(Iinf, X) of hom_module, alpha's column k being the map
    a |-> a.x_k with a.x taken by textbook_action."""
    f = x.algebra.field
    mod, hom = hom_module(tt.ideal_bimodule, x)
    acts = [textbook_action(x, v) for v in tt.stable_ideal.basis.vectors]
    alpha = hom.coords_matrix((Matrix.from_cols(f, [act.col(k) for act in acts], rows=x.dim)
                               for k in range(x.dim)), "alpha left the hom space")
    return alpha.is_invertible(), alpha, hom, mod


def localize_via_hom_module(tt, x):
    """(module, canonical, hom, kept): the localization Hom_R(Iinf, X / t(X))
    as closedness_via_hom_module builds it, with the canonical map, and
    kept the non-pivot coordinates of t(X) that index X / t(X)."""
    t = torsion_submodule(tt, x)
    quo, proj = t.quotient()
    _, alpha, hom, mod = closedness_via_hom_module(tt, quo)
    return mod, alpha @ proj, hom, [i for i in range(x.dim) if i not in t.basis.pivots]


def extension_space_dense(s, t):
    """extension_space with the cocycle equations of every basis pair
    (i, j), not only of the generators, each a dense row over the whole
    derivation space, added up by the field's own operations."""
    alg = s.algebra
    f = alg.field
    td = t.dim
    block = s.dim * td
    nvars = alg.dim * block
    rows = []
    for i, j in itertools.product(range(alg.dim), repeat=2):
        for r, c in itertools.product(range(s.dim), range(td)):
            row = [f.zero] * nvars
            terms = [(j * block + q * td + c, s.action[i].entries[r][q]) for q in range(s.dim)]
            terms += [(i * block + r * td + q, t.action[j].entries[q][c]) for q in range(td)]
            terms += [(k * block + r * td + c, f.neg(x)) for k, x in enumerate(alg.mul[i][j])]
            for at, x in terms:
                row[at] = f.add(row[at], x)
            rows.append(row)
    cocycles = kernel_basis(Matrix(f, rows, cols=nvars))
    units = [Matrix(f, [[f.one if (x, y) == (r, c) else f.zero for y in range(td)]
                        for x in range(s.dim)], cols=td)
             for r, c in itertools.product(range(s.dim), range(td))]
    inner = Basis.span(f, nvars, [[x for a, b in zip(s.action, t.action)
                                   for row in (a @ h + -(h @ b)).entries for x in row]
                                  for h in units])
    return Basis.span(f, nvars, [inner.reduce(z) for z in cocycles.vectors])


# ------------------------------------------------------- kron-based oracles


def projection_by_reduce(u):
    """(projection, section) of k^n / span(u): the projection's column j is
    u.reduce(e_j) read at the free columns, the section's columns are the
    unit vectors at the free columns."""
    f, n = u.field, u.ambient_dim
    free = [c for c in range(n) if c not in u.pivots]
    proj = Matrix.from_cols(f, [tuple(u.reduce(unit_vector(f, n, j))[c] for c in free)
                                for j in range(n)], rows=len(free))
    return proj, Matrix.from_cols(f, [unit_vector(f, n, c) for c in free], rows=n)


def tensor_kron(middle, left, right):
    """left (x)_middle right built from dense matrices: the balancing
    relations of every basis element (tensor_relations_all_basis), the
    quotient by projection_by_reduce, and the outer actions as
    projection @ kron(rho, I) @ section and projection @ kron(I, rho) @ section
    (right_action None for a left-module factor)."""
    f = middle.field
    relations = tensor_relations_all_basis(middle, left, right)
    proj, sect = projection_by_reduce(relations)
    eye_m, eye_n = Matrix.identity(f, left.dim), Matrix.identity(f, right.dim)
    left_action = tuple(proj @ kron(a, eye_n) @ sect for a in left.left_action)
    right_action = (tuple(proj @ kron(eye_m, a) @ sect for a in right.right_action)
                    if isinstance(right, Bimodule) else None)
    return SimpleNamespace(relations=relations, projection=proj, section=sect,
                           left_action=left_action, right_action=right_action)


def induced_map_kron(source, target, f_left, f_right):
    """target.projection @ kron(f_left, f_right) @ source's section, for
    two TensorProducts; the section's columns are the unit vectors at
    source's free (nonpivot) coordinates."""
    f = f_left.field
    n = source.quotient.projection.cols
    section = Matrix.from_cols(f, [unit_vector(f, n, c) for c in source.quotient.nonpivots], rows=n)
    return target.projection @ kron(f_left, f_right) @ section


def eta_kron(ctx, x):
    """The matrix of eta(X) on tensor_kron's N (x) X and M (x) (N (x) X):
    the raw matrix with phi(m_i (x) n_j).x_k at column (i*dim N + j)*dim X + k,
    times kron(I_M, inner section) and the outer section."""
    f = x.algebra.field
    inner = tensor_kron(ctx.R, ctx.N, x)
    outer = tensor_kron(ctx.S, ctx.M, LeftModule(ctx.S, inner.projection.rows, inner.left_action))
    acts = [textbook_action(x, r) for r in raw_pairing(ctx).columns()]
    raw = Matrix.from_cols(f, [act.col(k) for act in acts for k in range(x.dim)], rows=x.dim)
    return raw @ kron(Matrix.identity(f, ctx.M.dim), inner.section) @ outer.section


def counit_kron(ctx, x):
    """The evaluation M (x)_S Hom_R(M, X) -> X on tensor_kron's product:
    the raw matrix with f_a(m_i) at column i*dim Hom + a, times the section."""
    mod, hom = hom_module(ctx.M, x)
    t = tensor_kron(ctx.S, ctx.M, mod)
    cols = [hom.matrices[a].col(i) for i in range(ctx.M.dim) for a in range(hom.dim)]
    return Matrix.from_cols(x.algebra.field, cols, rows=x.dim) @ t.section


# ------------------------------------------------- all-basis law checks


def module_laws_all_pairs(m):
    """Failure strings of the unit law and rho(e_i) rho(e_j) = rho(e_i e_j)
    on every pair of basis elements, and for a Bimodule commutation of
    every left with every right basis action."""
    if isinstance(m, Bimodule):
        out = module_laws_all_pairs(m.left_module()) + module_laws_all_pairs(m.right_module())
        return out + [(i, j) for i, a in enumerate(m.left_action)
                      for j, b in enumerate(m.right_action) if a @ b != b @ a]
    alg = m.algebra
    out = [] if textbook_action(m, alg.unit) == Matrix.identity(alg.field, m.dim) else ["unit"]
    for i in range(alg.dim):
        for j in range(alg.dim):
            got = (m.action[i] @ m.action[j] if isinstance(m, LeftModule)
                   else m.action[j] @ m.action[i])
            if got != textbook_action(m, alg.mul[i][j]):
                out.append((i, j))
    return out


def context_laws_all_basis(ctx):
    """Failures of phi's and psi's linearity at every basis element of R
    and S, as ("phi" or "psi", "left" or "right", basis index), and of both
    compatibility identities on every basis triple, in validate_context's
    words; the actions are taken by textbook_action."""
    out = []
    for name, phi, t, alg in (("phi", ctx.phi, ctx.MN, ctx.R), ("psi", ctx.psi, ctx.NM, ctx.S)):
        for r in range(alg.dim):
            e = alg.basis_vector(r)
            if phi @ t.left_action[r] != alg.left_mult_matrix(e) @ phi:
                out.append((name, "left", r))
            if phi @ t.right_action[r] != alg.right_mult_matrix(e) @ phi:
                out.append((name, "right", r))
    phi_raw, psi_raw = ctx.phi @ ctx.MN.projection, ctx.psi @ ctx.NM.projection
    for a, b, p1, p2, names, mod in ((ctx.M, ctx.N, phi_raw, psi_raw, "phi/psi", "M"),
                                     (ctx.N, ctx.M, psi_raw, phi_raw, "psi/phi", "N")):
        for i in range(a.dim):
            for j in range(b.dim):
                for k in range(a.dim):
                    lhs = textbook_action(a.left_module(), p1.col(i * b.dim + j)).col(k)
                    rhs = textbook_action(a.right_module(), p2.col(j * a.dim + k)).col(i)
                    if lhs != rhs:
                        out.append(f"{names} compatibility in {mod} fails at ({i}, {j}, {k})")
    return out


def is_ideal_all_basis(alg, basis):
    """basis spans a two-sided ideal: e_i v and v e_i stay in it for every
    basis element e_i and basis vector v."""
    return all(basis.contains_vector(alg.multiply(e, v)) and basis.contains_vector(alg.multiply(v, e))
               for e in (alg.basis_vector(i) for i in range(alg.dim)) for v in basis.vectors)


def first_ideal_escape(alg, basis):
    """The ValueError message Ideal(alg, basis) must raise, or None: the
    first product e_g v or v e_g outside the span, walked generator by
    generator, vector by vector, left before right."""
    for i in alg.generator_indices():
        e = alg.basis_vector(i)
        for v in basis.vectors:
            if not basis.contains_vector(alg.multiply(e, v)):
                return f"not left-stable: e_{i} * basis vector escapes the span"
            if not basis.contains_vector(alg.multiply(v, e)):
                return f"not right-stable: basis vector * e_{i} escapes the span"
    return None


def ideal_bimodule_by_products(tt):
    """The R-R-bimodule Iinf with each action read one product e_i v or
    v e_i at a time through Algebra.multiply."""
    alg, vecs = tt.algebra, tt.stable_ideal.basis
    es = [alg.basis_vector(i) for i in range(alg.dim)]
    left = [vecs.coords_matrix((alg.multiply(e, v) for v in vecs.vectors), "left product escaped")
            for e in es]
    right = [vecs.coords_matrix((alg.multiply(v, e) for v in vecs.vectors), "right product escaped")
             for e in es]
    return Bimodule(alg, alg, vecs.dim, left, right)


def workspace_dense(path):
    """The objects of a workspace file built with the dense constructions
    above: algebras from the JSON (checked by validate_algebra), modules
    and bimodules checked by module_laws_all_pairs, ideal bases checked by
    is_ideal_all_basis, and for each context (M, N, tensor_kron of M (x)_S N
    and N (x)_R M, phi and psi times their sections), checked by
    context_laws_all_basis.  Returns a namespace of name -> object dicts."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    field = Field.gf(doc["field"]["p"]) if doc["field"]["kind"] == "gf" else Field.rationals()

    def mat(rows, cols):
        return Matrix(field, [[field.parse(x) for x in r] for r in rows], cols=cols)

    out = SimpleNamespace(algebras={}, modules={}, bimodules={}, ideals={}, contexts={})
    for name, a in doc.get("algebras", {}).items():
        alg = Algebra(field, a["dim"], [[tuple(field.parse(x) for x in v) for v in row] for row in a["mul"]],
                      tuple(field.parse(x) for x in a["unit"]))
        assert validate_algebra(alg) == []
        out.algebras[name] = alg
    for name, m in doc.get("modules", {}).items():
        left = [mat(a, m["dim"]) for a in m["action"]]
        if "right_algebra" in m:
            right = [mat(a, m["dim"]) for a in m["right_action"]]
            mod = Bimodule(out.algebras[m["algebra"]], out.algebras[m["right_algebra"]], m["dim"], left, right)
            out.bimodules[name] = mod
        else:
            mod = LeftModule(out.algebras[m["algebra"]], m["dim"], left)
            out.modules[name] = mod
        assert module_laws_all_pairs(mod) == []
    for name, i in doc.get("ideals", {}).items():
        alg = out.algebras[i["algebra"]]
        basis = Basis.span(field, alg.dim, [tuple(field.parse(x) for x in v) for v in i["basis"]])
        assert is_ideal_all_basis(alg, basis)
        out.ideals[name] = basis
    for name, c in doc.get("contexts", {}).items():
        r, s = out.algebras[c["R"]], out.algebras[c["S"]]
        m, n = out.bimodules[c["M"]], out.bimodules[c["N"]]
        mn, nm = tensor_kron(s, m, n), tensor_kron(r, n, m)
        phi_raw, psi_raw = mat(c["phi"], m.dim * n.dim), mat(c["psi"], n.dim * m.dim)
        assert not any(any(phi_raw.apply(v)) for v in mn.relations.vectors)
        assert not any(any(psi_raw.apply(v)) for v in nm.relations.vectors)
        phi, psi = phi_raw @ mn.section, psi_raw @ nm.section
        out.contexts[name] = SimpleNamespace(R=r, S=s, M=m, N=n, MN=mn, NM=nm, phi=phi, psi=psi)
        assert context_laws_all_basis(out.contexts[name]) == []
    return out


# ------------------------------------------------------------ graded oracles


def hom_component_by_kernel(full, coord_degrees, sigma):
    """The degree-sigma maps of the hom space `full`, solved for: the
    combinations of its basis vanishing on every coordinate of another
    degree, as the kernel of those coordinate rows."""
    f = full.basis.field
    size = len(coord_degrees)
    if full.dim == 0:
        return HomBasis(full.source, full.target, Basis.zero(f, size))
    rows = [[vec[pos] for vec in full.basis.vectors]
            for pos, d in enumerate(coord_degrees) if d != sigma]
    combos = kernel_basis(Matrix(f, rows, cols=full.dim)) if rows else Basis.full(f, full.dim)
    vecs = [full.basis.from_coords(c) for c in combos.vectors]
    return HomBasis(full.source, full.target, Basis.span(f, size, vecs))


def graded_closed_by_degrees(tt, gm):
    """Graded closedness read off degrees: the closedness map alpha must be
    invertible and send each coordinate of degree d into the degree-d
    component of Hom_R(Iinf, X), whose basis degrees are read off the hom
    basis against the stabilized ideal's degrees."""
    galg = gm.algebra
    res = closedness_map(tt, gm.base)
    if not res.closed:
        return False
    hdegs = degrees_for_hom_basis(res.hom, galg.group, ideal_degrees(tt, galg), gm.degrees)
    return _stray_column(res.alpha, gm.degrees, hdegs) is None


def smash_algebra(galg):
    """A#k[G]* for a G-graded algebra A: graded A-modules are its modules
    (Cohen-Montgomery).  The basis vector a_i p_g sits at i * |G| + g, the
    product is (a_i p_g)(a_j p_h) = [deg(a_j) h = g] a_i a_j p_h, and the
    unit is the sum over g of 1 p_g."""
    base, group = galg.base, galg.group
    f, n, order = base.field, base.dim, galg.group.order
    size = n * order
    mul = [[[f.zero] * size for _ in range(size)] for _ in range(size)]
    for i, g, j, h in itertools.product(range(n), range(order), range(n), range(order)):
        if group.mul(galg.degrees[j], h) == g:
            for k, c in enumerate(base.mul[i][j]):
                mul[i * order + g][j * order + h][k * order + h] = c
    unit = [base.unit[i] for i in range(n) for _ in range(order)]
    return Algebra(f, size, mul, unit)
